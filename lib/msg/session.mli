(** Per-link epoch/seq contract sessions.

    The control channel (PR 2) and the replication channel both govern
    their traffic with the same contract: every message carries a
    densely-increasing sequence number under a session {e epoch} that
    advances whenever either end restarts; the sender caches encoded
    frames and resends them with bounded exponential backoff until
    acknowledged; the receiver applies strictly in order, buffers
    out-of-order arrivals, absorbs duplicates by answering from a
    bounded reply memo, and discards frames from dead epochs.

    This module is that contract, factored once.  It is deliberately
    counter-free and transport-free: callers supply [encode]/[send]
    closures and translate outcomes into their own metric names, so the
    accounting stays where it is read. *)

module Backoff : sig
  type t
  (** The resend clock of one frame awaiting its answer: stalled rounds
      since the last (re)send, the interval before the next, and the
      resends so far.  Every resending sender in the system — TC data
      requests, its redo batch, and each {!Sender} — ages its frames
      with this one clock, so the resend policy below is the system's
      only one. *)

  val first : int
  (** Stalled rounds before the first resend: 4. *)

  val cap : int
  (** The interval doubles after every resend up to this many stalled
      rounds: 64.  Resends therefore fall at stalled rounds 4, 12, 28,
      60, 124, 188, ... *)

  val max_retries : int
  (** Resends before the clock expires: 32.  With an in-process peer a
      frame can only be lost, not the peer, so expiry is a bug guard. *)

  val create : unit -> t
  (** A clock that first falls due after {!first} ticks. *)

  val retries : t -> int
  (** Resends so far. *)

  val tick : t -> [ `Wait | `Resend | `Expired ]
  (** Age the clock one round.  [`Resend] when it fell due: the interval
      doubles (bounded by {!cap}) and the retry count grows, so the
      caller sends the frame again.  [`Expired] when it fell due with
      {!max_retries} resends already spent; the clock is left as it was
      and the caller is expected to fail. *)
end

val max_stalls : int
(** Consecutive pump rounds without progress after which a resending
    await loop ([Tc]'s, the replication manager's) gives up: 100 000.
    Far beyond the last resend {!Backoff} allows, so reaching it means a
    message was lost with nothing left to resend it. *)

module Sender : sig
  type 'reply t
  (** The sending half of one link's session, parameterized by the
      reply type its acknowledgements carry. *)

  type 'reply ticket
  (** One posted message: its seq, and the slot its reply lands in. *)

  val create : unit -> 'reply t
  (** A fresh session at epoch 1, next seq 1. *)

  val epoch : _ t -> int

  val unacked : _ t -> int
  (** Messages posted but not yet acknowledged this epoch. *)

  val post :
    'reply t ->
    encode:(epoch:int -> seq:int -> string) ->
    send:(string -> unit) ->
    'reply ticket
  (** Allocate the next seq, build the frame with [encode] (cached so
      every resend puts identical bytes on the wire), [send] it, and
      track it as pending on a fresh {!Backoff} clock.  The ticket's
      {!reply} is filled when the matching ack arrives. *)

  val seq : _ ticket -> int

  val reply : 'reply ticket -> 'reply option
  (** The acknowledgement's reply, once it has arrived. *)

  val ack : 'reply t -> epoch:int -> seq:int -> 'reply -> bool
  (** Match an acknowledgement: [false] for stale epochs and duplicate
      acks, [true] when a pending was retired (its ticket now holds the
      reply). *)

  val tick :
    'reply t ->
    on_resend:(seq:int -> string -> unit) ->
    on_timeout:(seq:int -> retries:int -> unit) ->
    unit
  (** Age every pending one {!Backoff.tick}.  A pending that falls due
      is resent through [on_resend]; one that has already been resent
      {!Backoff.max_retries} times goes to [on_timeout] instead, which
      must raise. *)

  val clear : 'reply t -> int
  (** Drop all pendings (they died with a crash, or a new epoch voids
      them); their tickets never receive a reply.  Returns the number
      dropped so the caller can keep its unacked gauge honest. *)

  val new_epoch : 'reply t -> int
  (** Advance the epoch, reset seq numbering to 1, and {!clear};
      returns the dropped-pending count. *)
end

module Receiver : sig
  type ('msg, 'reply) t
  (** The receiving half: per-sender idempotence/ordering state. *)

  val memo_window : int
  (** How many recent replies are kept for duplicate replay: 1024. *)

  val create : unit -> ('msg, 'reply) t
  (** Epoch 0, so the sender's first real epoch (1 or later) is always
      adopted as new on first contact. *)

  val epoch : _ t -> int
  (** The adopted epoch — replies must travel stamped with it. *)

  val applied : _ t -> int
  (** Highest contiguously-applied seq this epoch. *)

  type 'reply outcome =
    | Stale  (** dead epoch: drop, no reply (nothing awaits it) *)
    | Replayed of 'reply  (** duplicate, answered from the memo *)
    | Buffered  (** ahead of turn: parked, no reply until the gap fills *)
    | Applied of 'reply  (** applied in turn; buffered successors drained *)

  val handle :
    ('msg, 'reply) t ->
    epoch:int ->
    seq:int ->
    'msg ->
    apply:(int -> 'msg -> 'reply) ->
    fallback:'reply ->
    'reply outcome
  (** Run one received message through the contract.  [apply seq msg]
      executes an in-turn message and returns its reply; it also runs
      for each buffered successor this message releases, whose replies
      are only memoized (the sender's own resend collects them through
      the duplicate path).  [fallback] answers a duplicate older than
      the memo window — long since settled, a bare acknowledgement
      suffices. *)
end
