(** Log-shipping replication: warm standbys per partition.

    Each partition's primary DC gains K warm standbys fed by continuous
    redo shipping over the transport's third ([Repl]) channel.  Only
    {e stable} log records ship — a volatile record can still be
    disowned by a TC crash, and a standby must never hold effects the
    TC's log cannot account for.  Shipped batches travel under the same
    epoch/seq contract sessions as control traffic
    ({!Untx_msg.Session}); the standby applies them through the DC's
    normal abstract-LSN idempotence path, so resent batches, duplicated
    frames and post-promotion redo overlap are all safe.

    On a primary crash the deployment promotes the most-caught-up
    {e eligible} standby and asks the TC ({!Untx_tc.Tc.on_dc_failover})
    to re-drive only the gap between the standby's applied LSN and
    end-of-stable-log — a small fraction of a cold restart's full redo.
    Eligibility is the promotion durability contract: a candidate may
    only be promoted when its acked history is provably reconstructible
    from the retained stable log.  Detached replicas keep that provable
    under a bounded {e retention lease} on the log suffix past their
    frozen cursor; when the lease expires they are demoted to
    rebuild-required — honestly unavailable — rather than left silently
    promotable with a hole where acked commits used to be. *)

type durability =
  | Primary_only
      (** Commit acknowledgement waits only for the TC's own log force;
          standbys catch up asynchronously. *)
  | Quorum of int
      (** [Quorum k]: commit acknowledgement additionally waits until at
          least [k] standbys of every replicated primary (clamped to how
          many it has) have acknowledged applying the commit's LSN. *)

val p_ship_batch : string
(** The ["repl.ship.batch"] fault point, hit once per shipped batch
    before it is posted — the chaos harness kills the primary here to
    exercise promotion at every batch boundary. *)

(** A warm standby: a full DC continuously applying the shipped redo
    stream. *)
module Standby : sig
  type t

  val create :
    ?counters:Untx_util.Instrument.t -> Untx_dc.Dc.config -> part:int -> t
  (** A standby for a primary whose partition id is [part] (shipped
      requests are stamped with it, and the DC rejects misrouted
      frames like any other). *)

  val dc : t -> Untx_dc.Dc.t
  (** The underlying DC — what promotion installs as the new primary. *)

  val applied : t -> tc:Untx_util.Tc_id.t -> Untx_util.Lsn.t
  (** Cumulative applied LSN for [tc]'s stream: every stable record at
      or below it has been applied (or was never shipped: reads, other
      partitions' records).  Promotion picks the standby maximizing
      this, and redo after promotion starts just past it. *)

  val handle_repl_frame :
    ?expect:Untx_util.Tc_id.t -> t -> string -> string option
  (** Decode one repl frame, run it through the session contract, apply
      in-turn ships, and return the encoded [Repl_ack] if one is owed.
      Wired as the transport's repl handler: the frame has passed
      {!Untx_msg.Wire.frame_ok} there, so it is not checksummed again.

      [expect] is the link's shipping TC: a ship stamped with another
      TC's id is dropped (counted as ["repl.misattributed"]) instead of
      advancing a cursor its manager never sent for. *)

  val crash : t -> unit
  (** Lose all volatile state — DC cache, session state, applied
      cursors.  After {!recover}, re-shipping from zero is absorbed by
      the idempotence path. *)

  val recover : t -> unit
end

(** The TC-side shipping engine: one per TC, managing every replica of
    every primary that TC fronts. *)
module Manager : sig
  type t

  (** Where a replica stands in the retention-lease life cycle:

      [Attached] —[detach]→ [Detached]{lease} —lease runs out→
      [Rebuild_required] (terminal). *)
  type replica_state =
    | Attached  (** shipping; holds the truncation floor unconditionally *)
    | Detached of { lease : int }
        (** frozen at its cursor; holds the floor for [lease] more
            granted checkpoints *)
    | Rebuild_required
        (** its missed suffix is no longer provably retained: ineligible
            for promotion, refuses {!reattach}.  Terminal — recovering
            such a replica needs a state copy, not the log. *)

  val create :
    ?counters:Untx_util.Instrument.t ->
    ?durability:durability ->
    Untx_tc.Tc.t ->
    t
  (** Create the manager and install its hooks on the TC: the
      durability gate (ship + optional quorum wait after every
      group-commit force) and the truncate floor (checkpoint log
      truncation never passes the catch-up cursor of any attached
      replica, nor of any detached replica whose lease still holds).
      [durability] defaults to [Primary_only].  Shipped frames carry at
      most 32 records; a detached replica's retention lease lasts 4
      granted checkpoints; unacknowledged frames resend on
      {!Untx_msg.Session.Backoff}'s clock, and a wait with
      {!Untx_msg.Session.max_stalls} rounds without progress fails. *)

  val enable_layers : t -> unit
  (** Switch this manager's TC onto an {!Untx_layer} store: the stable
      redo stream is absorbed into L0 at every durability-gate force and
      floor consult, checkpoint truncation is re-floored at the store's
      durable high watermark (a detached laggard stops pinning the log
      once layer coverage meets the retained head — its lease machinery
      goes dormant), and the TC's history-replay hook is installed so
      failover can redo below the retained head from layers.  Idempotent
      after the first call.  Enabling on an already-truncated log only
      covers history from the current retained head. *)

  val layer_store : t -> Untx_layer.Layer.t option

  val sync_layers : t -> unit
  (** Absorb the stable suffix the store has not ingested yet (no-op
      without {!enable_layers}).  Runs implicitly at every
      durability-gate force, floor consult and {!settle}; explicit for
      callers about to read the store at end-of-stable-log. *)

  val compact_layers : t -> unit
  (** Sync the store to end-of-stable-log and fold everything absorbed
      into L1 ([compact ~all]), advancing the durable watermark — the
      explicit handle tests and benches use instead of waiting out the
      auto-compaction thresholds.  No-op without {!enable_layers}. *)

  val bootstrap_standby : t -> standby:Standby.t -> primary:string -> int
  (** Layer-fed standby creation: install the store's materialized
      current state (this TC's records routed to [primary]) directly
      into the standby's DC ({!Untx_dc.Dc.install_record}), then
      claims the store's ingest watermark as applied.  A subsequent
      {!attach} resumes shipping at the post-layer suffix, so a fresh
      replica costs the live state size instead of a full-redo replay
      from LSN 1 — and a {!Rebuild_required} replica becomes recoverable
      by rebuilding through this path.  Returns the number of records
      installed.  Raises [Invalid_argument] without {!enable_layers}. *)

  val attach :
    t ->
    name:string ->
    primary:string ->
    standby:Standby.t ->
    send:(string -> unit) ->
    drain:(unit -> string list) ->
    unit
  (** Register a standby for [primary] and open its session with a
      hello; the ack carries the standby's exact applied LSN, from
      which shipping resumes — a rejoining standby catches up from
      where it left off instead of rebuilding.  [drain] returns frames
      that passed {!Untx_msg.Wire.frame_ok} (a transport's
      [drain_repl]). *)

  val detach : t -> name:string -> unit
  (** Stop shipping without forgetting the replica: its applied LSN
      keeps holding the truncation floor — under a retention lease of 4
      granted checkpoints — so {!reattach} stays cheap while the lease
      lasts.  Each checkpoint that consults the
      floor burns one lease unit; at zero the replica is demoted to
      {!Rebuild_required} and stops constraining truncation.
      Idempotent: detaching an already-detached replica does not
      refresh its lease. *)

  val reattach : t -> name:string -> unit
  (** Resume shipping on a new session epoch (any old in-flight frame
      is void), re-adopting the standby's applied LSN, then ship the
      missed suffix — provided the log still retains it.  If the
      standby's cursor (zero, for one that crashed while away) fell
      below {!Untx_tc.Tc.log_retained_from}, the replica is demoted to
      {!Rebuild_required} instead of resuming with a silent hole — or,
      when a contiguous layer store covers the missing middle, parked
      [Detached] again (counted ["repl.reattach_deferred"]): shipping
      cannot resume mid-stream, but promotion through layer-sourced
      redo or a layer bootstrap still can recover it.  Raises
      [Invalid_argument] for an unknown or already rebuild-required
      replica. *)

  val catch_up : t -> name:string -> unit
  (** Re-ship the retained stable suffix past the replica's cursor and
      wait until it confirms end-of-stable-log (reattaching it first if
      detached).  Promotion runs this on the chosen laggard before
      installing it, so the TC's post-promotion redo shrinks to the
      post-catch-up gap.  Shipped records are counted as
      ["repl.catchup_ops"].  When the replica's cursor fell below the
      retained head and only layers cover the gap, no shipping happens
      (["repl.catchup_skipped"]) — an out-of-order re-ship would corrupt
      the stream; promotion re-drives the whole gap through
      layer-sourced redo instead.  Raises [Invalid_argument] for an
      unknown or rebuild-required replica. *)

  val promotion_eligible : t -> name:string -> bool
  (** The fail-over gate's per-manager half: [true] iff the candidate's
      acked history is provably reconstructible — it is not
      {!Rebuild_required} and either this TC's stable log retains
      everything past its exact applied cursor, or a contiguous layer
      store covers the gap below the retained head (layer-sourced redo);
      {!catch_up} or post-promotion redo can then re-drive the gap in
      full.  [false] for unknown names. *)

  val state_of : t -> name:string -> replica_state

  val remove : t -> name:string -> unit
  (** Forget a replica entirely (promoted or decommissioned). *)

  val settle : t -> unit
  (** Ship everything stable and pump (with backoff resend) until every
      attached replica confirms the current end-of-stable-log —
      replication parity for quiesce and audits. *)

  val replica_names : t -> primary:string -> string list

  val lag : t -> name:string -> int
  (** End-of-stable-log minus the replica's confirmed applied LSN. *)

  val last_ship_primary : t -> string option
  (** The primary whose stream was last being shipped — a chaos harness
      reads this to learn which primary a kill at {!p_ship_batch}
      belongs to. *)
end
