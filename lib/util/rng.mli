(** Deterministic pseudo-random number generation.

    Every stochastic choice in the system (message reordering, workload key
    picks, crash points) draws from an explicitly seeded generator so that
    tests and experiments are exactly reproducible. *)

type t

val create : seed:int -> t

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
