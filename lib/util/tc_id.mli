(** Identifiers for Transactional Component instances.

    A DC serving several TCs (Section 6) keys idempotence state — abstract
    LSNs, dedup memos, stable-log watermarks — by the originating TC. *)

type t

val of_int : int -> t

val to_int : t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t

module Set : Set.S with type elt = t
