(** Messages crossing the TC:DC boundary (the API of Section 4.2.1).

    Every interaction is serialized: requests, replies, control messages
    and control replies all travel as length-prefixed, checksummed byte
    frames ({!encode_request} and friends), so the boundary carries
    [bytes], never shared heap values.  Operation requests carry the
    unique request id (the TC-log LSN) that makes resend + idempotence
    work.  Control traffic ([end_of_stable_log], [low_water_mark],
    [checkpoint], [restart]) is governed by the same contracts: each
    control message is wrapped in a {!control_msg} envelope carrying a
    per-(TC, DC)-link session epoch and a unique control-sequence id;
    the TC resends unacknowledged control frames with backoff and the DC
    absorbs duplicates and reorderings through a per-TC control
    idempotence table, exactly as it does for data operations. *)

type request = {
  tc : Untx_util.Tc_id.t;
  lsn : Untx_util.Lsn.t;  (** unique request id, from the TC log *)
  part : int;
      (** partition id of the DC this operation was routed to.  The
          receiving DC rejects a request stamped for a different
          partition instead of silently applying it — a misrouted frame
          means the TC's partition map and the deployment disagree. *)
  op : Op.t;
}

type result =
  | Done  (** write acknowledged *)
  | Value of Op.value option  (** point read *)
  | Pairs of (Op.key * Op.value) list  (** scan *)
  | Next_keys of Op.key list  (** fetch-ahead probe *)
  | Failed of string  (** semantic error (e.g. duplicate insert) *)

type reply = {
  tc : Untx_util.Tc_id.t;
      (** the requesting TC, echoed back.  With M TCs every sender
          numbers its LSNs independently, so a reply that strays onto
          another TC's link would otherwise match that TC's own
          in-flight request; the receiver drops misattributed replies
          instead of absorbing them. *)
  lsn : Untx_util.Lsn.t;
  result : result;
  prior : Op.value option;
      (** for updates/deletes on unversioned tables: the value the
          operation replaced, which the TC logs as undo information *)
}

type control =
  | End_of_stable_log of { tc : Untx_util.Tc_id.t; eosl : Untx_util.Lsn.t }
  | Low_water_mark of { tc : Untx_util.Tc_id.t; lwm : Untx_util.Lsn.t }
  | Watermarks of {
      tc : Untx_util.Tc_id.t;
      eosl : Untx_util.Lsn.t;
      lwm : Untx_util.Lsn.t;
    }
      (** the combined form Section 4.2.1 suggests: "one might trade some
          flexibility in DC for simplicity of coding, by combining
          end_of_stable_log and low_water_mark into one function" *)
  | Checkpoint of { tc : Untx_util.Tc_id.t; new_rssp : Untx_util.Lsn.t }
  | Restart_begin of {
      tc : Untx_util.Tc_id.t;
      stable_lsn : Untx_util.Lsn.t;
          (** the largest LSN on the TC's stable log; the DC must discard
              any effect of this TC's operations beyond it *)
    }
  | Restart_end of { tc : Untx_util.Tc_id.t }
  | Redo_fence_begin of { tc : Untx_util.Tc_id.t }
      (** A TC is about to replay history (e.g. after this DC's own
          crash): the DC defers page-delete system transactions, whose
          abstract-LSN merges assume globally valid low-water claims. *)
  | Redo_fence_end of { tc : Untx_util.Tc_id.t }

type control_reply =
  | Ack
  | Checkpoint_done of { granted : bool }
      (** [granted = false]: some page holding operations below the
          requested redo-scan start point could not be made stable yet;
          the TC must keep its old RSSP and retry later *)

type control_msg = { c_epoch : int; c_seq : int; c_ctl : control }
(** The control-channel envelope.  [c_seq] is the unique, densely
    increasing id of this message on its (TC, DC) link — the control
    analogue of a request LSN.  [c_epoch] identifies the control
    session: the TC starts a new epoch when either end of the link
    restarts, which invalidates every frame of the old session still in
    flight (a stale pre-crash watermark must not be applied to
    freshly-reset state). *)

type control_reply_msg = {
  r_tc : Untx_util.Tc_id.t;
      (** the TC whose session this ack belongs to — acks are keyed
          [(tc, epoch, seq)], not bare [(epoch, seq)], because every
          TC's sender starts at (epoch 1, seq 1) *)
  r_epoch : int;
  r_seq : int;  (** echo of the request's envelope, for TC-side matching *)
  r_reply : control_reply;
}

val control_tc : control -> Untx_util.Tc_id.t
(** The TC a control message speaks for (every variant carries one). *)

(** {2 Replication}

    The third channel: a primary's TC continuously ships its stable log
    to warm standbys.  Repl traffic travels under the same epoch/seq
    contract sessions as control traffic ({!Session}). *)

type repl =
  | Repl_hello of { tc : Untx_util.Tc_id.t }
      (** Open or resume a session.  The standby's ack carries its exact
          applied LSN, so a rejoining sender ships only the missing
          suffix instead of rebuilding the replica. *)
  | Repl_ship of {
      tc : Untx_util.Tc_id.t;
      eosl : Untx_util.Lsn.t;
          (** the sender's end-of-stable-log, shipped in-band so the
              standby's page cache obeys the same causality rule as the
              primary's *)
      lwm : Untx_util.Lsn.t;
      upto : Untx_util.Lsn.t;
          (** the batch covers the stable-log range up to here; [ops]
              may skip LSNs (reads are never logged), so the standby
              advances its applied LSN to [upto], not to the last
              listed record *)
      ops : (Untx_util.Lsn.t * Op.t) list;
    }

type repl_reply = Repl_ack of { applied : Untx_util.Lsn.t }
(** The standby's cumulative applied LSN — the sender's replication
    low-water mark derives from the minimum of these across replicas. *)

type repl_msg = { p_epoch : int; p_seq : int; p_repl : repl }

type repl_reply_msg = {
  q_tc : Untx_util.Tc_id.t;
      (** the shipping TC whose session this ack belongs to (same
          [(tc, epoch, seq)] keying as control acks) *)
  q_epoch : int;
  q_seq : int;
  q_reply : repl_reply;
}

val repl_tc : repl -> Untx_util.Tc_id.t

(** {2 Frames}

    [encode_*] produce self-contained binary frames: a kind byte, a
    4-byte big-endian trace id ([?tid], default 0 = untraced), a 4-byte
    big-endian payload length, the payload (a {!Untx_util.Codec} field
    list), and a 4-byte FNV-1a checksum.  [decode_*] raise
    [Invalid_argument] on anything malformed — wrong kind, bad length,
    checksum mismatch, unparseable payload, an integer written in any
    form {!Untx_util.Codec.encode_int} would not write — and never
    return a silently wrong value. *)

val encode_request : ?tid:int -> request -> string

val decode_request : string -> request

val encode_reply : ?tid:int -> reply -> string

val decode_reply : string -> reply

val encode_control : ?tid:int -> control_msg -> string

val decode_control : string -> control_msg

val encode_control_reply : ?tid:int -> control_reply_msg -> string

val decode_control_reply : string -> control_reply_msg

val encode_repl : ?tid:int -> repl_msg -> string

val decode_repl : string -> repl_msg

val encode_repl_reply : ?tid:int -> repl_reply_msg -> string

val decode_repl_reply : string -> repl_reply_msg

val frame_ok : string -> bool
(** Structural + checksum validation without a full decode — what a
    receiving endpoint checks before accepting a frame.  A frame that
    fails this test is dropped by the transport (and the sender's
    resend path carries it). *)

val frame_tid : string -> int
(** The trace id a valid frame carries; [0] for an untraced frame or
    any string that fails {!frame_ok}.  The id sits inside the
    checksummed region, so corruption can invalidate a frame but never
    reattribute it to another trace. *)

(** Decoders for frames that already passed {!frame_ok}, as every frame
    the kernel's transport hands to its endpoints has: they check
    the frame's shape and payload like [decode_*], but skip the
    checksum, so a delivered frame is hashed once.  Any other caller
    uses [decode_*]. *)
module Verified : sig
  val decode_request : string -> request

  val decode_reply : string -> reply

  val decode_control : string -> control_msg

  val decode_control_reply : string -> control_reply_msg

  val decode_repl : string -> repl_msg

  val decode_repl_reply : string -> repl_reply_msg

  val tid : string -> int
  (** {!frame_tid} without the checksum pass. *)
end

val request_size : request -> int
(** The exact encoded frame length of the request — measured from the
    codec, not estimated. *)

val pp_control : Format.formatter -> control -> unit
