(** The Data Component.

    A DC is a server for logical, record-oriented requests from one or
    more TCs (Section 4.1.2).  It knows nothing about transactions: it
    makes each individual operation atomic and idempotent, organizes
    records in B-trees whose pagination it alone knows, manages the page
    cache, and runs its own system transactions (page splits and
    deletes) with their private DC-log.

    Idempotence is provided by abstract page LSNs ({!Ablsn}); causality
    (the unbundled WAL rule) by refusing to flush a page holding
    operations beyond the owning TC's reported end-of-stable-log;
    contract termination by the checkpoint interaction.  Partial-failure
    handling follows Section 5.3: on a DC crash, {!recover} rebuilds
    well-formed structures from stable state and the DC-log *before* any
    TC redo arrives; on a TC crash, [Restart_begin] resets exactly the
    cache pages holding that TC's lost operations — record-granular on
    pages shared between TCs (Section 6.1.2). *)

(** How abstract LSNs are made stable atomically with a page flush
    (the three page-sync options of Section 5.1.2). *)
type sync_policy =
  | Stall_until_lwm
      (** option 1: only flush once the low-water mark covers every
          included LSN, so a single LSN suffices on the page *)
  | Full_ablsn
      (** option 2: serialize the whole abstract LSN into the page *)
  | Bounded of int
      (** option 3: flush once the {LSNin} set is no bigger than [k] *)

(** Reaction to a TC failure (Section 5.3.2). *)
type tc_reset_mode =
  | Selective  (** reset only the affected pages/records *)
  | Complete  (** "draconian": treat it as a complete DC failure *)

type config = {
  page_capacity : int;
  cache_pages : int;
  sync_policy : sync_policy;
  tc_reset_mode : tc_reset_mode;
  debug_checks : bool;
      (** verify tree well-formedness after recovery steps *)
}

val default_config : config

type t

val create : ?counters:Untx_util.Instrument.t -> config -> t

val config : t -> config

val set_identity : t -> part:int -> unit
(** Assign the DC its partition id in the deployment (default 0).
    {!perform} rejects requests stamped for a different partition with
    [Failed "misrouted..."] and bumps ["dc.misrouted"], leaving state
    untouched — a routing disagreement must surface, not fork data. *)

val part : t -> int

val create_table : t -> name:string -> versioned:bool -> unit
(** Register a table (idempotent).  Versioned tables maintain
    before-versions for multi-TC read-committed sharing (Section 6.2.2)
    and version-based undo. *)

val seal_table : t -> name:string -> unit
(** Make the table read-only (Section 6.2.1): every TC may then read it
    lock-free; all writes are rejected.  Durable. *)

val table_names : t -> string list

val install_record :
  t -> table:string -> key:string -> Stored_record.t -> unit
(** Bootstrap backdoor: install a fully materialized record straight
    into the table's tree, bypassing the wire path.  No LSN is consumed
    and no abstract-LSN state is touched — correct only for building a
    {e fresh} standby from a layer store's {!Untx_layer} state, where a
    subsequent watermark adoption claims the whole installed prefix as
    covered.  Raises [Invalid_argument] for unknown tables. *)

val set_history_read :
  t -> (table:string -> key:string -> at:Untx_util.Lsn.t -> string option) -> unit
(** Install the versioned-read hook: the DC keeps only the newest record
    version, so point-in-time reads are answered by whoever retains
    history (a layer store's [reconstruct]). *)

val read_as_of :
  t -> table:string -> key:string -> at:Untx_util.Lsn.t -> string option
(** The record's visible value as of the given LSN, answered through the
    {!set_history_read} hook (counted as ["dc.history_reads"]).  Raises
    [Invalid_argument] when no hook is installed. *)

val perform : t -> Untx_msg.Wire.request -> Untx_msg.Wire.reply
(** Execute one logical operation, idempotently: a resent request whose
    effect the target pages already contain is absorbed and answered
    from the result memo. *)

val control : t -> Untx_msg.Wire.control -> Untx_msg.Wire.control_reply
(** Apply one control message directly.  Tests drive this; the kernel
    delivers control traffic as frames through
    {!handle_control_frame}, which adds the idempotence/ordering
    layer. *)

val handle_request_frame :
  ?expect:Untx_util.Tc_id.t -> t -> string -> string option
(** Transport endpoint for the data channel: decode a request frame,
    {!perform} it, return the encoded reply frame.  The frame must have
    passed {!Untx_msg.Wire.frame_ok}, as every frame the transport
    delivers has: the checksum is not computed again here.  An
    undecodable frame is dropped (counted as ["dc.bad_frames"]) —
    indistinguishable from loss, so the TC's resend carries it.

    [expect] is the link's owning TC (deployments wire one transport per
    (TC, DC) pair): a frame stamped with a different [tc] is refused
    with a [Failed] reply and counted as ["dc.misattributed"] — applying
    it would charge the operation to another TC's idempotence state. *)

val handle_control_frame :
  ?expect:Untx_util.Tc_id.t -> t -> string -> string option
(** Transport endpoint for the control channel, for frames that passed
    {!Untx_msg.Wire.frame_ok} like {!handle_request_frame}'s.  Enforces
    the control contract of Section 4.2 on the per-TC session table:
    frames from a dead epoch are discarded; duplicates are absorbed and
    re-answered from a reply memo (["dc.control_dups_absorbed"]); frames
    arriving ahead of their sequence turn are buffered
    (["dc.control_buffered"]) until the TC's resend fills the gap;
    in-turn frames are applied via {!control} and acknowledged.  [None]
    means no reply travels back — the TC's backoff resend recovers.

    [expect] as in {!handle_request_frame}: a control frame speaking for
    another TC is dropped (counted as ["dc.misattributed"]) rather than
    allowed to touch a session its owner never sees. *)

val crash : t -> unit
(** Lose all volatile state: page cache, in-memory abstract LSNs, result
    memo, unforced DC-log tail. *)

val recover : t -> unit
(** Rebuild from stable state: reload the catalog, replay the DC-log so
    every index is well-formed (system transactions execute here, out of
    their original order relative to TC operations), and verify
    structures.  Must complete before the TC starts redo (Section 4.2,
    Recovery). *)

val flush_all : t -> unit
(** Force the DC-log, then flush every dirty page the policy permits. *)

val self_checkpoint : t -> bool
(** Try to make the whole cache stable and, if fully successful, write
    the master catalog and truncate the DC-log.  [false] if some page
    could not be flushed yet. *)

(** {2 Introspection (tests, benches, experiment harness)} *)

val check : t -> (unit, string) result
(** Well-formedness of every table's index. *)

val dump_table : t -> string -> (string * Stored_record.t) list
(** All records of a table in key order (including tombstones). *)

val table_root : t -> string -> Untx_storage.Page_id.t

val table_pages : t -> string -> Untx_storage.Page_id.t list

val cache : t -> Untx_storage.Cache.t

val disk : t -> Untx_storage.Disk.t

val dc_log_records : t -> int

val dc_log_bytes : t -> int

val splits : t -> int

val consolidations : t -> int

val dup_absorbed : t -> int
(** Requests answered purely by the idempotence test. *)

val eosl_of : t -> Untx_util.Tc_id.t -> Untx_util.Lsn.t
(** The end-of-stable-log this DC currently believes for one TC
    ({!Untx_util.Lsn.zero} before any watermark arrived).  Watermark
    state is keyed per TC — deployment audits check each TC's claims
    independently. *)

val lwm_of : t -> Untx_util.Tc_id.t -> Untx_util.Lsn.t
(** The low-water mark this DC currently believes for one TC (zero
    before any watermark arrived).  Always at or below that TC's
    {!eosl_of}. *)

val suggested_rssp :
  t -> tc:Untx_util.Tc_id.t -> Untx_util.Lsn.t
(** The redo-scan start point this DC could grant the TC right now
    without any further flushing — proactive contract termination
    (Section 4.2.1).  A checkpoint request at or below it succeeds
    without I/O. *)

val take_escalation : t -> bool
(** Whether the last TC-failure reset escalated to a complete DC
    recovery (draconian mode, or a selective reset that found lost
    operations baked into every recoverable image of a page).  Reading
    clears the flag.  Deployments use this to drive redo from the other
    TCs. *)

val pages_dropped : t -> int
(** Pages dropped whole by a TC-failure reset. *)

val records_reset : t -> int
(** Records individually reverted by a multi-TC page reset. *)

val page_meta_of : t -> Untx_storage.Page_id.t -> Page_meta.t
(** Current (volatile) recovery metadata of a page, for tests: its
    abstract LSNs as of every low-water mark received so far.  A page
    the DC holds no state for yet gets one, as on its first operation;
    an unknown page reads as {!Page_meta.empty}. *)
