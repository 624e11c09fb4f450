(** The unreliable message plane between a TC and a DC.

    The paper treats the unbundled kernel as a distributed system
    (Section 4.1): requests may be delayed, reordered, duplicated or
    lost, and the contracts (unique request ids, resend, idempotence)
    must mask all of it.  This transport makes those behaviours
    injectable and deterministic.

    The plane carries encoded {!Untx_msg.Wire} frames — real bytes, not
    shared heap values — on three lanes: {e data} (operation requests
    and replies), {e control} (watermarks, checkpoints, restart
    protocol) and {e repl} (replication frames to a standby and its
    acks).  One adversarial policy governs every lane; every frame is
    charged to its lane's byte counters at send time, so experiments
    report measured encoded bytes, not estimates.

    Time is logical: each {!drain} call advances one tick, delivers due
    frames to the DC-side handlers (collecting their reply frames into
    the reverse direction, under the same policy), and returns due
    replies.  All frames due in a delivery round are coalesced into one
    batch (["transport.batches"] / ["transport.batched_frames"]).

    A delivery attempt passes the ["transport.frame.corrupt"] fault
    point: when a rule fires, a random byte of the frame is flipped.
    The receiving edge validates every frame's checksum
    ({!Untx_msg.Wire.frame_ok}) and silently drops failures
    (["transport.corrupt_dropped"]) — corruption is indistinguishable
    from loss, and the sender's resend path carries it.  This is the
    one checksum pass a frame gets: handlers and {!drain} see only
    frames that passed it, and decode them with
    {!Untx_msg.Wire.Verified}. *)

type policy = {
  delay_min : int;
  delay_max : int;  (** per-message delivery delay, in ticks *)
  reorder : bool;  (** deliver due messages in random order *)
  dup_prob : float;  (** probability a message is delivered twice *)
  drop_prob : float;  (** probability a message is silently lost *)
}

val reliable : policy
(** Immediate, ordered, exactly-once — the in-process fast path. *)

val chaotic : policy
(** Delays 0-3 ticks, reordering, 10% duplication, 10% loss: the
    adversary used by contract tests (E10). *)

type t

val create :
  ?counters:Untx_util.Instrument.t ->
  ?policy:policy ->
  ?label:string ->
  ?repl:(string -> string option) ->
  seed:int ->
  data:(string -> string option) ->
  control:(string -> string option) ->
  unit ->
  t
(** [data] and [control] are the DC-side endpoints, and [repl] (default:
    answers nothing) the standby-side one: each takes a received frame
    and returns an optional reply frame.  [policy] (default {!reliable})
    is the adversary every lane — data, control and replication — faces.
    Delivery, drop, duplication, batching, byte and corruption events
    are mirrored into [counters] (["transport.delivered"],
    ["transport.control_delivered"], ["transport.repl_delivered"],
    ["transport.dropped"], ["transport.duplicated"],
    ["transport.batches"], ["transport.batched_frames"],
    ["transport.data_bytes"], ["transport.control_bytes"],
    ["transport.repl_bytes"], ["transport.frames_corrupted"],
    ["transport.corrupt_dropped"]) so experiments report them uniformly
    with everything else.  The delivery, batch and byte cells exist from
    [create] on, at 0.  [label] names the link: when set, byte and
    delivery accounting is additionally mirrored into
    ["transport.<label>.data_bytes"], ["transport.<label>.control_bytes"],
    ["transport.<label>.repl_bytes"] and ["transport.<label>.delivered"]
    (data requests), so a multi-DC deployment can read traffic per
    partition. *)

val send : t -> string -> unit
(** Enqueue an encoded request frame on the data lane. *)

val send_control : t -> string -> unit
(** Enqueue an encoded control frame on the control lane. *)

val send_repl : t -> string -> unit
(** Enqueue an encoded replication frame on the repl lane.  The
    receiving endpoint is the [repl] handler given to {!create}
    (a standby's frame entry point); its replies surface through
    {!drain_repl}.  Repl frames face the same adversary as every other
    lane and are charged to ["transport.repl_bytes"] /
    ["transport.<label>.repl_bytes"]. *)

val drain : t -> string list * string list
(** Advance one tick and surface due (reply frames, control-reply
    frames). *)

val drain_repl : t -> string list
(** Advance one tick, deliver due frames (all lanes) and surface due
    replication acks.  Replication links carry only repl traffic, so
    {!drain} keeps its (replies, control replies) signature. *)

val drop_in_flight : t -> unit
(** Lose every frame currently in transit, on every lane (component
    crash). *)

val in_flight : t -> int

val requests_delivered : t -> int
(** Data-lane request frames delivered to the DC endpoint. *)

val dropped : t -> int

val duplicated : t -> int

val corrupt_dropped : t -> int
(** Frames rejected by the receiving edge's checksum check. *)

val data_bytes_sent : t -> int
(** Measured encoded bytes handed to the data lane (both
    directions). *)

val control_bytes_sent : t -> int

val bytes_sent : t -> int
(** [data_bytes_sent + control_bytes_sent] plus the encoded bytes
    handed to the replication lane (both directions). *)
