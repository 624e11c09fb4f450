(** Page identifiers, private to the Data Component side of the kernel.

    The TC never sees one of these: confining pagination knowledge to the
    DC is the core architectural invariant of the paper. *)

type t

val of_int : int -> t

val to_int : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t

module Set : Set.S with type elt = t

module Tbl : Hashtbl.S with type key = t
