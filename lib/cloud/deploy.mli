(** Multi-TC / multi-DC deployments (Figure 1 at full generality,
    Section 6).

    A deployment owns any number of TCs and DCs and the transports
    between them.  TCs may share a DC: the DC keys its idempotence state
    per TC (Section 6.1), and applications keep updaters on disjoint
    partitions while readers use the lock-free sharing modes of
    Section 6.2.  Nothing here is a distributed transaction — each TC's
    log remains the single commit point for its transactions, even when
    they span several DCs. *)

type t

(** How a partitioned table spreads keys over its DCs. *)
type scheme =
  | Hash  (** stable FNV hash of the key, mod partition count *)
  | Range of string list
      (** N-1 ordered split keys; partition [i+1] starts at split [i].
          Scans stay inside one partition when their prefix pins it. *)

val create :
  ?counters:Untx_util.Instrument.t ->
  ?policy:Untx_kernel.Transport.policy ->
  ?durability:Untx_repl.Repl.durability ->
  ?layers:bool ->
  ?seed:int ->
  unit ->
  t
(** [durability] (default [Primary_only]) governs every replicated
    primary: under [Quorum k] commit acknowledgements wait for [k]
    standby acks per replicated partition.

    [layers] (default [false]) runs every TC's shipping manager on an
    {!Untx_layer} store ({!Untx_repl.Repl.Manager.enable_layers}):
    checkpoint truncation floors at the store's durable watermark
    instead of the slowest detached replica's cursor, failover can redo
    below the retained log head from layers, fresh standbys bootstrap
    from materialized state, and {!read_as_of} answers point-in-time
    lookups. *)

val add_dc : t -> name:string -> Untx_dc.Dc.config -> Untx_dc.Dc.t
(** The DC is assigned the next partition id ({!Untx_dc.Dc.part}) and
    linked to every TC present and TCs added later. *)

val add_tc : t -> name:string -> Untx_tc.Tc.config -> Untx_tc.Tc.t
(** The TC is linked (via its own transport) to every DC present and to
    DCs added later. *)

val tc : t -> string -> Untx_tc.Tc.t

val dc : t -> string -> Untx_dc.Dc.t

val tc_names : t -> string list

val dc_names : t -> string list

val create_table :
  t -> dc:string -> name:string -> versioned:bool -> unit
(** Create the physical table at one DC (idempotent). *)

val add_partitioned_table :
  t ->
  ?scheme:scheme ->
  ?replicas:int ->
  name:string ->
  versioned:bool ->
  dcs:string list ->
  unit ->
  unit
(** Register a table partitioned over [dcs] (default {!Hash}): the
    physical table is created at each listed DC, and every TC — present
    or added later — routes each key to its owning partition.  The map
    is static and deterministic, so redo after any crash ships every
    logical log record back to the same DC that first applied it.
    [replicas] (default 0) gives every owning partition that many warm
    standbys fed by continuous redo shipping ({!Untx_repl.Repl}). *)

val add_indexed_table :
  t ->
  ?scheme:scheme ->
  ?replicas:int ->
  idx:Untx_index.Index.t ->
  name:string ->
  versioned:bool ->
  dcs:string list ->
  indexes:(string * Untx_index.Index.extract) list ->
  unit ->
  unit
(** {!add_partitioned_table} for a table carrying secondary indexes:
    registers each [(index name, extract)] in [idx], the primary table
    under [scheme], and one entry table per index
    ({!Untx_index.Index.index_table}) under {e secondary-hash}
    placement — entry keys are partitioned by the hash of their decoded
    secondary-key component, so every entry for one secondary key lives
    on one partition and an {!Untx_index.Index.lookup} prefix scan
    never crosses DCs.  Entry tables share the primary's versioned-ness
    and [replicas]; being ordinary partitioned tables, redo,
    checkpoints, replication, failover and multi-TC sharing treat them
    exactly like the primary.  Index maintenance itself is the caller's
    contract: mutate the table through {!Untx_index.Index.insert}/
    [update]/[delete] with [idx]. *)

val partition_dc : t -> table:string -> key:string -> string
(** The DC owning [key] under the table's partition map. *)

val partitions : t -> table:string -> string list
(** The owning DCs of a partitioned table, in partition-id order. *)

val crash_dc : t -> string -> unit
(** Crash + recover the DC, then drive redo from every TC (each resends
    its own logged operations from its redo-scan start point). *)

val crash_tc : t -> string -> unit
(** Crash + restart one TC.  Other TCs are untouched: the DCs reset only
    the failed TC's lost operations (record-granular on shared pages). *)

(** {2 Replication (warm standbys per partition)} *)

val add_replica : t -> dc:string -> string
(** Mint a warm standby for the named primary (config and partition id
    copied from it, schema mirrored), wire a repl-only transport from
    every TC, and start shipping.  Returns the standby's name
    (["<dc>~r<i>"]). *)

val replicas : t -> dc:string -> string list
(** The standbys currently shadowing a primary, sorted by name. *)

val standby : t -> string -> Untx_repl.Repl.Standby.t

val manager : t -> tc:string -> Untx_repl.Repl.Manager.t
(** The named TC's shipping engine (created on first use; its creation
    installs the durability gate and truncate floor on the TC). *)

val settle_replicas : t -> unit
(** Ship and pump until every attached standby confirms its TC's
    end-of-stable-log. *)

val crash_standby : t -> string -> unit
(** Crash + recover one standby, then reattach it on a fresh session
    epoch: its applied cursors are volatile, so the whole stable stream
    re-ships and the idempotence path absorbs what survived.  If
    checkpoint truncation already passed the rejoin cursor the re-ship
    is impossible: the manager demotes the replica to rebuild-required
    and it stays out of the replica set.  An already rebuild-required
    replica just crashes without the rejoin. *)

val attached_replicas : t -> dc:string -> string list
(** The subset of {!replicas} attached in every manager — the ones
    actively shadowing the primary.  Detached and rebuild-required
    replicas legitimately trail it (parity audits skip them). *)

exception Promotion_refused of string
(** {!fail_over} found candidates but none whose acked history is
    provably reconstructible from the retained log.  Refusal is the
    durability-preserving outcome: the operator falls back to a cold
    restart of the primary ({!crash_dc}) instead of losing commits.
    Counted as ["repl.promote_refusals"]. *)

val fail_over : ?catch_up:bool -> t -> dc:string -> unit
(** The primary died: promote its most-caught-up {e eligible} standby
    (exact applied LSNs, summed across TCs; eligibility per
    {!Untx_repl.Repl.Manager.promotion_eligible} in every manager),
    install it under the primary's name, re-link every TC, and re-drive
    only the gap from the standby's applied LSN to end-of-stable-log
    ({!Untx_tc.Tc.on_dc_failover}).  With [catch_up] (default [true])
    the chosen laggard is first caught up from the retained stable log
    while still a replica, so the TC redo shrinks to the post-catch-up
    gap; [~catch_up:false] promotes it frozen and leans entirely on the
    TC's redo — which may legally start below the redo-scan start point
    when the suffix is retained.  Raises {!Promotion_refused} when no
    candidate is eligible.  Counted as ["repl.promotions"]; timed as
    ["repl.promote_ns"]. *)

val rebuild_replica : t -> string -> int
(** Rebuild the named replica from layers: discard the old standby
    object entirely, mint a fresh one from the primary's config and
    schema, install the layer store's materialized current state
    ({!Untx_repl.Repl.Manager.bootstrap_standby}), and reattach so only
    the post-layer suffix ships — the recovery path for a
    rebuild-required replica whose missed history the log no longer
    retains.  Returns the number of records installed.  Raises
    [Invalid_argument] for unknown replicas or deployments created
    without [~layers:true]. *)

val read_as_of :
  t -> table:string -> key:string -> at:Untx_util.Lsn.t -> string option
(** Point-in-time read: the key's visible value after every logged
    operation at or below [at] — [None] if absent or deleted there.
    Answered by the layer store's [reconstruct], probing every TC's
    store (updaters are disjoint, so at most one holds the key's
    history; two raise [Invalid_argument]); no DC is asked, since a DC
    keeps only the newest record version.  Counted as
    ["deploy.history_reads"].  Every store is synced to
    end-of-stable-log first, so any [at <= stable_lsn] is answerable.
    Raises {!Untx_layer.Layer.Beyond_ingested} when [at] is beyond every
    store's ingest watermark ([ingested] is the highest of them) — never
    a silent [None], so unanswerable-at-[at] cannot pass for a
    legitimate absent-at-[at] — and
    [Untx_layer.Layer.History_truncated] when [at] sits below a rebased
    store's {!truncate_history} cut.  Requires [~layers:true]. *)

(** {2 Copy-on-write branches (layered deployments)} *)

exception Branch_has_children of { parent : string; children : string list }
(** {!delete_branch} refused: the named branch is still the parent of
    live branches — deleting it would unpin history its children
    resolve through.  Delete the children first. *)

val create_branch :
  ?tc:string ->
  ?from:string ->
  t ->
  from_lsn:Untx_util.Lsn.t ->
  name:string ->
  Untx_branch.Branch.t
(** Fork the deployment at [from_lsn]: the branch gets its own TC
    (fresh identity on the deployment's ~expect plane), DC (fresh
    partition id), transport and layer store, while everything at or
    below [from_lsn] stays shared with the parent under a retention pin
    ({!Untx_branch.Branch}).  No data is copied — fork cost is
    O(metadata), timed as ["branch.fork_ns"].  The parent is [~from]'s
    branch when given (nesting; [from_lsn] is then in that branch's
    combined LSN space), else [~tc]'s root layer store ([~tc] may be
    omitted with a single TC; the branch serves every table created in
    the deployment).  Raises {!Untx_layer.Layer.Beyond_ingested} when
    [from_lsn] exceeds the parent's ingest watermark ([ingested] in the
    parent's LSN space), [Invalid_argument] for duplicate names, unknown
    TCs or parents, an omitted [~tc] with several TCs, or deployments
    without [~layers:true]. *)

val branch : t -> string -> Untx_branch.Branch.t

val branch_names : t -> string list

val branch_children : t -> string -> string list
(** The live branches forked directly off the named branch. *)

val delete_branch : t -> string -> unit
(** Close the branch and release its fork-point pin, letting parent
    truncation pass it.  Raises {!Branch_has_children} while the branch
    still has live children — never silently unpins history someone
    resolves through — and [Invalid_argument] for unknown names. *)

val crash_branch_dc : t -> string -> unit
(** Crash + recover the named branch's DC and redo from its TC — the
    single-DC restart scoped to the branch; the parent is untouched. *)

val truncate_history : ?tc:string -> t -> below:Untx_util.Lsn.t -> int
(** Rebase [~tc]'s layer store ({!Untx_layer.Layer.truncate_history}):
    fold history below [below] — as clamped by live branch fork-point
    pins and the durable watermark — into a snapshot layer.  Returns
    entries reclaimed.  [~tc] may be omitted with a single TC; raises
    [Invalid_argument] for an unknown TC or an omitted [~tc] with
    several. *)

val crash_for_point : t -> point:string -> tc:string -> dc:string -> unit
(** Kill whichever component owns the fault point (see
    {!Untx_fault.Fault.component_of_point}): a TC-side point crashes
    the named TC; a DC-side point crashes the DC whose handler the
    injected fault actually escaped from (falling back to the named
    [dc]) — with N partitions the dying component is whichever DC was
    mid-operation, not whichever a plan named.  Plans that fire again
    during recovery crash the restarted component in turn
    ({!Untx_fault.Fault.route_crash}). *)

val checkpoint_all : t -> bool
(** One deployment-wide checkpoint round: every TC checkpoints (in name
    order), each truncating only its own log.  Per-TC keying of
    watermarks, abstract LSNs and grant tests means no cross-TC floor
    is required — one TC's granted checkpoint can never cover another
    TC's unstable operations.  Returns whether every TC was granted. *)

val detach_replica : t -> string -> unit
(** Detach the named standby in {e every} TC's manager (replica state
    is per (TC, standby)).  Each manager's retention lease burns only on
    its own TC's granted checkpoints, so a deployment of M TCs gives a
    detached standby M independent leases — consults from different TCs
    never decrement each other's. *)

val quiesce : t -> unit

val messages_total : t -> int
(** Requests delivered across all transports. *)
