(** Messages crossing the TC:DC boundary (the API of Section 4.2.1).

    Every interaction is serialized: requests, replies, control messages
    and control replies all travel as length-prefixed, checksummed byte
    frames ({!encode_request} and friends), so the boundary carries
    [bytes], never shared heap values.  Operation requests carry the
    unique request id (the TC-log LSN) that makes resend + idempotence
    work.  Control traffic (watermarks, checkpoints, restarts and redo
    fences) is governed by the same contracts: each control message is
    wrapped in a {!control_msg} envelope carrying a per-(TC, DC)-link
    session epoch and a unique control-sequence id; the TC resends
    unacknowledged control frames with backoff and the DC absorbs
    duplicates and reorderings through a per-TC control idempotence
    table, exactly as it does for data operations. *)

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
  | Window of { rows : (Op.key * Op.value) list; hidden : Op.key list }
      (** fetch-ahead read ({!Op.Fetch}): the window's visible rows and
          the keys of its rows the reader cannot see (an uncommitted
          delete's tombstone), each list in key order, no key in both *)
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
}

(** {2 Data-channel frames}

    A request frame carries one operation, or a {e redo batch}: a run of
    logged operations, in LSN order, that a TC resends to one DC after a
    restart.  Every operation keeps its own LSN, so the DC's per-operation
    idempotence test and memo work on a batch exactly as on single
    requests; the batch only saves the per-message cost.  Its reply lists
    each operation's [(lsn, result)] in the same order. *)

type request_msg =
  | Request of request
  | Redo_batch of {
      tc : Untx_util.Tc_id.t;
      part : int;  (** as {!request.part}, for every operation *)
      ops : (Untx_util.Lsn.t * Op.t) list;
    }

type reply_msg =
  | Reply of reply
  | Redo_batch_reply of {
      tc : Untx_util.Tc_id.t;
      outcomes : (Untx_util.Lsn.t * result) list;
          (** one per batched operation, in the batch's order *)
    }

type control =
  | Watermarks of {
      tc : Untx_util.Tc_id.t;
      eosl : Untx_util.Lsn.t;
      lwm : Untx_util.Lsn.t;
    }
      (** Section 4.2.1's end_of_stable_log and low_water_mark as one
          function, the combined form it suggests "for simplicity of
          coding".  A zero mark claims nothing: marks only grow, so the
          DC applies [max 0 m = m].  An end-of-stable-log push is
          [Watermarks { tc; eosl; lwm = Lsn.zero }], a low-water push
          [Watermarks { tc; eosl = Lsn.zero; lwm }]; the frame layout
          below writes only the non-zero marks. *)
  | Checkpoint of { tc : Untx_util.Tc_id.t; new_rssp : Untx_util.Lsn.t }
  | Restart_begin of {
      tc : Untx_util.Tc_id.t;
      stable_lsn : Untx_util.Lsn.t;
          (** the largest LSN on the TC's stable log; the DC must discard
              any effect of this TC's operations beyond it *)
    }
  | Redo_fence_begin of { tc : Untx_util.Tc_id.t }
      (** A TC is about to replay history (e.g. after this DC's own
          crash): the DC defers page-delete system transactions, whose
          abstract-LSN merges assume globally valid low-water claims. *)
  | Redo_fence_end of { tc : Untx_util.Tc_id.t }
      (** Closes the fence a [Redo_fence_begin] or a [Restart_begin]
          opened: the end of a redo, and of a TC's restart. *)

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

    [encode_*] produce self-contained binary frames: a kind byte, the
    trace id as a {!Untx_util.Codec} varint ([?tid], default 0 =
    untraced, taken modulo 2{^32}; an untraced frame's id is one byte),
    the payload length as a varint, the payload, and a 4-byte
    big-endian FNV-1a checksum of everything before it.  The kind bytes
    are ['Q'] request, ['R'] reply, ['C'] control, ['K'] control reply,
    ['S'] repl and ['T'] repl reply.

    The payload is binary.  An integer (tc, LSN, partition, epoch, seq,
    limit, count) is a varint; a string is its length as a varint, then
    its bytes; a list is its count as a varint, then its elements; a
    boolean or an option's presence is one byte, [0x00] or [0x01]; each
    constructor is one tag byte, an ASCII letter.  A key in a list
    (probe keys, scan pairs, window rows and hidden keys, commit and
    abort version keys) is an [fkey], front-coded against the key
    before it in its list, the first against [""]: the length of the
    prefix the two share as a varint, the length of the rest as a
    varint, then the rest.  The shared length is the longest common
    prefix's, so the rest never opens with the byte the key before has
    there.  A window's rows and hidden keys each ascend strictly and
    share no key, so a window's keys are each written once, and a
    window with every row visible costs its [Pairs] bytes plus one, the
    empty hidden list's count.  In the layouts below, [tag] names
    that byte, [n × x] a count followed by [n] elements [x], and every
    other field is a varint or a string as above:

    {v
request       'S' tc lsn part op
redo batch    'B' tc part (n × lsn op)
reply         'S' tc lsn result
batch reply   'B' tc (n × lsn result)
op            'I' table key value        insert
              'U' table key value        update
              'D' table key              delete
              'R' table key mode         read; mode 'o' own, 'c' committed, 'd' dirty
              'S' table from_key limit mode   scan
              'P' table from_key limit   probe
              'F' table from_key limit   fetch
              'V' table (n × fkey)       commit versions
              'A' table (n × fkey)       abort versions
result        'D'                        done
              'V' 0x00 | 'V' 0x01 value  point read, absent | present
              'P' (n × fkey value)       scan pairs
              'N' (n × fkey)             probe keys
              'W' (n × fkey value) (m × fkey)   fetch window: rows, hidden keys
              'F' message                failed
control msg   epoch seq control
control       'E' tc eosl                watermarks, lwm = 0
              'L' tc lwm                 watermarks, eosl = 0, lwm > 0
              'W' tc eosl lwm            watermarks, both > 0
              'C' tc new_rssp            checkpoint
              'R' tc stable_lsn          restart begin
              'F' tc | 'f' tc            redo fence begin | end
control reply tc epoch seq ('A' | 'G' granted)    ack | checkpoint done
repl msg      epoch seq ('H' tc | 'S' tc eosl lwm upto (n × lsn op))
repl reply    tc epoch seq 'A' applied
    v}

    [decode_*] raise [Invalid_argument] on anything malformed — wrong
    kind, bad length, checksum mismatch, an unknown tag, a field cut
    short, a count beyond the bytes left, a byte after the last field,
    a varint in any form {!Untx_util.Codec.write_varint} would not
    write, a trace id of 2{^32} or more, a shared length beyond the key
    before or short of the longest shared prefix, window rows or hidden
    keys out of strictly ascending order, a hidden key that is also a
    row's, a zero mark in ['L'] or ['W'] — and never return a silently
    wrong value.  Decoding is canonical: a frame that decodes re-encodes
    to its own bytes. *)

val encode_request : ?tid:int -> request_msg -> string

val decode_request : string -> request_msg

val encode_reply : ?tid:int -> reply_msg -> string

val decode_reply : string -> reply_msg

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
  val decode_request : string -> request_msg

  val decode_reply : string -> reply_msg

  val decode_control : string -> control_msg

  val decode_control_reply : string -> control_reply_msg

  val decode_repl : string -> repl_msg

  val decode_repl_reply : string -> repl_reply_msg

  val tid : string -> int
  (** {!frame_tid} without the checksum pass. *)
end

val request_size : request -> int
(** The exact encoded frame length of the untraced request — sized by
    the encoder's own sizing pass, not estimated. *)

val pp_control : Format.formatter -> control -> unit
