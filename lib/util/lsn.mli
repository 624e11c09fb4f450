(** Log sequence numbers.

    LSNs are the unique, monotonically increasing request identifiers the
    paper requires (Section 4.2, "Unique request IDs").  The same abstract
    type serves the TC log (logical operation LSNs) and, as {!Lsn.t} under
    the alias [dlsn], the DC's private structure-modification log. *)

type t

val zero : t
(** The smallest LSN; no operation ever carries it. *)

val of_int : int -> t
(** [of_int i] builds an LSN from a raw integer.  Raises [Invalid_argument]
    if [i < 0]. *)

val to_int : t -> int

val next : t -> t
(** Successor LSN. *)

val prev : t -> t
(** Predecessor LSN; [prev zero = zero]. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val max : t -> t -> t

val min : t -> t -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Set : Set.S with type elt = t
