(** The Transactional Component.

    A TC wraps all requests from the application: it does transactional
    locking (with no knowledge of pagination), logical undo/redo logging,
    commit/abort, log forcing for durability, and the contract-keeping
    traffic to its DCs (EOSL, LWM, checkpoint, restart) — Section 4.1.1.

    Concurrency control is strict two-phase locking over logical
    resources.  Two interchangeable range protocols implement Section 3.1:

    - [Key_locks]: individual record locks; scans use the *fetch-ahead*
      protocol (speculative probe, lock the returned keys, verify).
    - [Range_locks n]: a static order-preserving partition of each
      table's key space into [n] slots; every access locks its slot.
      Fewer, coarser locks — less concurrency, less overhead.
    - [Table_locks]: the coarsest scheme the paper's Section 3.1 lists
      among what "many systems currently support": one lock per table.
    - [Optimistic]: the "optimistic methods" Section 4.1.1 allows the TC
      to choose: lock-free reads/scans with observations recorded,
      writes buffered, backward validation at commit (any observed key
      or range that changed aborts the transaction), then the buffered
      writes applied and committed.  Scans do not see the transaction's
      own buffered writes.

    The TC never lets two conflicting operations be outstanding at a DC
    simultaneously (its obligation from Section 1.2): before dispatching
    an operation it awaits acknowledgement of any conflicting in-flight
    request.  Non-conflicting writes to versioned tables are pipelined,
    which is what creates genuine out-of-LSN-order arrivals at the DC.

    Operations return [`Blocked] instead of blocking the thread when a
    lock is unavailable; the workload driver reschedules the transaction
    and uses {!resolve_deadlock} when nothing can run. *)

type cc_protocol = Key_locks | Range_locks of int | Table_locks | Optimistic

type config = {
  id : Untx_util.Tc_id.t;
  cc_protocol : cc_protocol;
  lwm_every : int;  (** send a low-water mark every n acknowledged ops *)
  resend_after : int;  (** pump rounds without progress before resending *)
  resend_backoff_max : int;
      (** the resend interval doubles after every resend of a request
          (exponential backoff), capped at this many stalled rounds *)
  resend_max_retries : int;
      (** per-request resend budget; exhausting it raises (bug guard —
          with an in-process DC a request can only be lost, not the DC
          itself), counted as ["tc.request_timeouts"] *)
  max_pump_rounds : int;  (** give up (bug guard) after this many stalls *)
  pipeline_writes : bool;
      (** dispatch versioned-table writes without awaiting each ack *)
  combine_watermarks : bool;
      (** send the combined [Watermarks] control instead of separate
          EOSL/LWM messages (the Section 4.2.1 simplification) *)
  group_commit : int;
      (** force the log every n commits (1 = every commit).  Batched
          commits are not durable until the group force — an explicit
          latency/IO trade for the E-ablation benchmarks. *)
  debug_checks : bool;
}

val default_config : Untx_util.Tc_id.t -> config

(** How the kernel wires a TC to a DC: an asynchronous byte plane.
    [send] and [send_control] enqueue encoded {!Untx_msg.Wire} frames on
    the data and control channels; both may be delayed, lossy,
    reordering or duplicating — the TC's contracts (unique ids, backoff
    resend, the DC's idempotence tests) mask all of it, on {e both}
    channels.  [drain] advances the plane one tick and surfaces due
    (reply frames, control-reply frames). *)
type dc_link = {
  dc_name : string;
  part : int;
      (** the DC's partition id, stamped into every request frame so a
          misrouted frame is rejected by the receiving DC *)
  send : string -> unit;
  send_control : string -> unit;
  drain : unit -> string list * string list;
      (** due (reply, control-reply) frames, each already past
          {!Untx_msg.Wire.frame_ok} — what the transport's [drain]
          returns; the TC does not checksum them again *)
}

type t

type txn

type 'a outcome = [ `Ok of 'a | `Blocked | `Fail of string ]

val create : ?counters:Untx_util.Instrument.t -> config -> t

val id : t -> Untx_util.Tc_id.t

val set_group_commit : t -> int -> unit
(** Retune the live group-commit batch size (initially
    [config.group_commit]).  A session front end raises it so commits
    from many client sessions share one force; commits already waiting
    ride the next force ({!force_log} closes a partial batch).  Raises
    [Invalid_argument] for sizes below 1. *)

val group_commit : t -> int
(** The live group-commit batch size. *)

val attach_dc : t -> dc_link -> unit

val map_table : t -> table:string -> dc:string -> versioned:bool -> unit
(** Route a table to a DC.  [versioned] must match the DC-side table. *)

val map_table_partitioned :
  t -> table:string -> versioned:bool -> partition:(string -> string) -> unit
(** Route a table whose keys are spread over several DCs (Figure 2:
    Movies/Reviews partitioned by movie across DC1 and DC2).
    [partition key] names the DC holding [key].  Scans must stay inside
    one partition — arrange keys so a scan prefix pins the partition, as
    the clustered movie-review schema does. *)

(** {2 Transactions} *)

val begin_txn : t -> txn

val xid : txn -> int

val is_active : txn -> bool

val insert : t -> txn -> table:string -> key:string -> value:string -> unit outcome

val update : t -> txn -> table:string -> key:string -> value:string -> unit outcome

val delete : t -> txn -> table:string -> key:string -> unit outcome

val read : t -> txn -> table:string -> key:string -> string option outcome

val scan :
  t -> txn -> table:string -> from_key:string -> limit:int ->
  (string * string) list outcome

val commit : t -> txn -> unit outcome
(** Forces the log, finishes version housekeeping, awaits outstanding
    acknowledgements, releases locks.  [`Fail] if a pipelined operation
    had failed — the transaction is rolled back automatically. *)

val abort : t -> txn -> reason:string -> unit
(** Roll back: inverse operations (unversioned tables) and
    [Abort_versions] (versioned tables), logged as compensations. *)

(** {2 Lock-free sharing reads (Section 6.2)} *)

val read_committed : t -> table:string -> key:string -> string option
(** Versioned read-committed access to data owned by other TCs: sees
    before-versions of uncommitted updates; takes no locks. *)

val read_dirty : t -> table:string -> key:string -> string option

val scan_committed :
  t -> table:string -> from_key:string -> limit:int -> (string * string) list

val scan_dirty :
  t -> table:string -> from_key:string -> limit:int -> (string * string) list

(** {2 Scheduling support} *)

val wakeups : t -> int list
(** Transactions whose blocked lock requests were granted since the last
    call (drained). *)

val resolve_deadlock : t -> int option
(** Detect a waits-for cycle; abort the youngest member; return it. *)

val quiesce : t -> unit
(** Pump the transport until no request is outstanding, then push a
    fresh low-water mark.  Test and bench helper. *)

(** {2 Contract maintenance / recovery} *)

val checkpoint : t -> bool
(** Push LWM, ask every DC to advance the redo-scan start point to it,
    and on unanimous grant log a checkpoint record and truncate the log.
    [false] if some DC could not comply yet. *)

val crash : t -> unit
(** Lose volatile state: unforced log tail, transaction table, lock
    table, in-flight requests. *)

val recover : t -> unit
(** Restart (Section 5.3.2 TC failure): tell each DC to reset state
    beyond the stable log, resend logged operations from the redo-scan
    start point (repeating history), then roll back loser transactions
    and finish interrupted version cleanup. *)

val redo_batch_cap : int
(** The most logged operations one redo frame carries.  {!recover},
    {!on_dc_restart} and {!on_dc_failover} resend history as
    {!Untx_msg.Wire.Redo_batch} frames, in LSN order, one batch in
    flight at a time: a batch closes at this cap, when the next
    operation routes to another DC, or when the history ends.  The DC
    applies a batch's operations in order, each through its own
    idempotence test, and answers with one reply. *)

val on_dc_restart : ?from:Untx_util.Lsn.t -> t -> dc:string -> unit
(** A DC lost its cache (Section 5.3.2 DC failure): resend logged
    operations from the redo-scan start point to that DC.  [from]
    (default [Lsn.zero]) moves the scan start to the caller's cursor —
    see {!on_dc_failover}. *)

val on_dc_failover : t -> dc:string -> from:Untx_util.Lsn.t -> unit
(** The named link now fronts a promoted standby that applied the
    shipped log through [from - 1]: run the same redo-fence protocol as
    {!on_dc_restart} (including its cursor-cap ordering, which a
    watermark pushed mid-barrier must not race), but re-drive only the
    gap from [from] to end-of-stable-log.  In-flight requests below
    [from] are re-dispatched inside the fence so the standby re-answers
    them from its idempotence memo.

    [from] may legally sit {e below} the redo-scan start point — a
    detached standby's applied cursor freezes while checkpoints keep
    advancing — provided the log still retains the suffix
    ([{!log_retained_from} <= from]): the scan then starts at [from]
    and re-drives the whole retained gap (counted as
    ["tc.redo_below_rssp"]).  If the suffix was truncated, a
    {!set_history_replay} source covering [[from, retained)] replays the
    missing gap from layers before the log takes over (counted as
    ["tc.redo_from_layers"]); with no such source the scan clamps up to
    the rssp as before, which would leave a hole — callers must refuse
    such promotions instead ({!Untx_repl} eligibility). *)

val set_durability_gate : t -> (Untx_util.Lsn.t -> unit) -> unit
(** Install a hook invoked after every group-commit force with the new
    stable LSN, before the commit acknowledgement is returned.  A
    replication manager blocks in it until its durability policy
    (e.g. a quorum of standby acks) covers the LSN. *)

val set_truncate_floor : t -> (unit -> Untx_util.Lsn.t option) -> unit
(** Install an extra lower bound on checkpoint log truncation: return
    the lowest LSN still needed (e.g. by a lagging standby's catch-up
    cursor), or [None] for no constraint. *)

val set_history_replay :
  t ->
  (from:Untx_util.Lsn.t ->
  upto:Untx_util.Lsn.t ->
  ((Untx_util.Lsn.t -> Untx_msg.Op.t -> unit) -> unit) option) ->
  unit
(** Install a redo source for history {e below} {!log_retained_from}: a
    layer store that absorbed the truncated prefix returns a feed
    replaying the original operations in [[from, upto]] in LSN order, or
    [None] when it cannot cover the range.  {!on_dc_failover} consults
    it when the promotion cursor sits below the retained head — the feed
    re-drives the missing gap inside the redo fence (counted as
    ["tc.redo_from_layers"]) and the log takes over at the retained
    head, so a laggard whose history lives only in layers is still
    promotable without data loss. *)

val force_log : t -> unit
(** Force the log and push the resulting end-of-stable-log — makes the
    whole volatile tail shippable (replication parity checks). *)

(** {2 Introspection} *)

val rssp : t -> Untx_util.Lsn.t

val log_retained_from : t -> Untx_util.Lsn.t
(** Lowest LSN checkpoint truncation has provably kept in the log
    (see {!Untx_wal.Wal.retained_from}).  Always [<= rssp]: every
    truncation cut is bounded by the checkpoint target.  Replica
    serviceability and promotion eligibility are decided against it. *)

val stable_lsn : t -> Untx_util.Lsn.t

val last_lsn : t -> Untx_util.Lsn.t

val log_forces : t -> int

val log_bytes : t -> int

val log_records : t -> int

val lock_acquisitions : t -> int

val messages_sent : t -> int

val resends : t -> int

val iter_stable_ops :
  t -> (Untx_util.Lsn.t -> Untx_msg.Op.t -> unit) -> unit
(** Visit every operation in the stable log from the redo scan start
    point, in LSN order — the exact suffix recovery would resend.  The
    post-recovery auditor re-delivers it to prove idempotence. *)

val iter_stable_ops_from :
  t ->
  from:Untx_util.Lsn.t ->
  (Untx_util.Lsn.t -> Untx_msg.Op.t -> unit) ->
  unit
(** Visit the stable log's logged operations from an arbitrary cursor,
    in LSN order — the log-shipping read path.  Allocation-light: seeks
    to the cursor instead of scanning the whole log.  Volatile records
    are never visited (a standby must not hold effects a TC crash could
    disown). *)

val dc_of_op : t -> Untx_msg.Op.t -> string
(** The DC this operation routes to under the current table maps — the
    owning partition for a partitioned table.  The deployment auditor
    uses it to re-deliver each logged operation to the right DC. *)

val table_versioned : t -> string -> bool
(** Whether the named table was mapped with [~versioned:true] ([false]
    for unmapped tables).  A layer store replaying this TC's log needs
    it to materialize records under the right mutation semantics. *)
