(** The unreliable message plane between a TC and a DC.

    The paper treats the unbundled kernel as a distributed system
    (Section 4.1): requests may be delayed, reordered, duplicated or
    lost, and the contracts (unique request ids, resend, idempotence)
    must mask all of it.  This transport makes those behaviours
    injectable and deterministic.

    The plane carries encoded {!Untx_msg.Wire} frames — real bytes, not
    shared heap values — on two logical channels: {e data} (operation
    requests and replies) and {e control} (watermarks, checkpoints,
    restart protocol).  Each channel has its own adversarial policy;
    every frame is charged to per-channel byte counters at send time, so
    experiments report measured encoded bytes, not estimates.

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
  ?control_policy:policy ->
  ?label:string ->
  ?repl:(string -> string option) ->
  seed:int ->
  data:(string -> string option) ->
  control:(string -> string option) ->
  unit ->
  t
(** [data] and [control] are the DC-side endpoints: each takes a
    received frame and returns an optional reply frame.  [control_policy]
    defaults to [policy] — both channels face the same adversary unless
    a test separates them.  Delivery, drop, duplication, batching, byte
    and corruption events are mirrored into [counters]
    (["transport.delivered"], ["transport.control_delivered"],
    ["transport.dropped"], ["transport.duplicated"],
    ["transport.batches"], ["transport.batched_frames"],
    ["transport.data_bytes"], ["transport.control_bytes"],
    ["transport.frames_corrupted"], ["transport.corrupt_dropped"],
    ["transport.flush_delivered"]) so experiments report them uniformly
    with everything else.  [label] names the link: when set, byte and
    delivery accounting is additionally mirrored into
    ["transport.<label>.data_bytes"], ["transport.<label>.control_bytes"]
    and ["transport.<label>.delivered"], so a multi-DC deployment can
    read traffic per partition. *)

val set_policy : t -> policy -> unit
(** Set the adversary for both channels. *)

val send : t -> string -> unit
(** Enqueue an encoded request frame on the data channel. *)

val send_control : t -> string -> unit
(** Enqueue an encoded control frame on the control channel. *)

val send_repl : t -> string -> unit
(** Enqueue an encoded replication frame on the repl channel.  The
    receiving endpoint is the [repl] handler given to {!create}
    (a standby's frame entry point); its replies surface through
    {!drain_repl}.  Repl frames face the control channel's adversary
    and are charged to ["transport.repl_bytes"] /
    ["transport.<label>.repl_bytes"]. *)

val drain : t -> string list * string list
(** Advance one tick and surface due (reply frames, control-reply
    frames). *)

val drain_repl : t -> string list
(** Advance one tick, deliver due frames (all channels) and surface due
    replication acks.  Replication links carry only repl traffic, so
    {!drain}'s two-channel signature is untouched. *)

val flush : t -> string list * string list
(** Deliver everything in flight (reliably).  A test-only escape hatch:
    the kernel quiesces through the TC's resend path instead, which
    exercises the paper's contracts. *)

val drop_in_flight : t -> unit
(** Lose every frame currently in transit, both channels (component
    crash). *)

val in_flight : t -> int

val requests_delivered : t -> int
(** Data-channel request frames delivered to the DC endpoint. *)

val dropped : t -> int

val duplicated : t -> int

val force_delivered : t -> int
(** Total frames surfaced by {!flush} calls. *)

val corrupt_dropped : t -> int
(** Frames rejected by the receiving edge's checksum check. *)

val data_bytes_sent : t -> int
(** Measured encoded bytes handed to the data channel (both
    directions). *)

val control_bytes_sent : t -> int

val bytes_sent : t -> int
(** [data_bytes_sent + control_bytes_sent] plus the encoded bytes
    handed to the replication channel (both directions). *)
