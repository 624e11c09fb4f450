(** The TC's lock manager (Section 4.1.1).

    Transactional concurrency control lives entirely in the TC and must
    work without any knowledge of data pagination, so lockable resources
    are purely logical: record keys, static key ranges (the range-lock
    protocol of Section 3.1), or whole tables.

    Standard strict-2PL machinery: shared/exclusive modes, FIFO wait
    queues, upgrade from S to X for a sole holder, and deadlock detection
    on the waits-for graph with youngest-transaction victim selection. *)

type mode = S | X

(** A lockable logical resource.  No page ids, by construction. *)
type resource =
  | Record of { table : string; key : string }
  | Range of { table : string; slot : int }
      (** one cell of a static partition of the key space *)
  | Table of string

type t

val create : unit -> t

val acquire : t -> owner:int -> resource -> mode -> [ `Granted | `Blocked ]
(** Try to take the lock.  [`Blocked] enqueues the request; it will be
    granted later by a {!release_all} (check {!holds}), unless the owner
    is chosen as a deadlock victim and {!cancel_waits} is called. *)

val holds : t -> owner:int -> resource -> mode -> bool
(** Whether the owner currently holds the resource at least at the given
    mode (X covers S). *)

val release_all : t -> owner:int -> int list
(** Drop every lock and queued request of the owner; returns the owners
    whose queued requests became granted. *)

val cancel_waits : t -> owner:int -> unit
(** Remove the owner's queued (not yet granted) requests. *)

val waiting : t -> owner:int -> bool

val find_deadlock : t -> int option
(** An owner on a waits-for cycle ([None] if none); the youngest (highest
    id) member is returned as the suggested victim. *)

val held_count : t -> owner:int -> int

val total_acquisitions : t -> int
(** Cumulative granted requests — the locking-overhead metric of E7. *)

val live_locks : t -> int
