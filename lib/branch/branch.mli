(** Copy-on-write database branches over the layered log tier.

    A branch forks a deployment's state at any absorbed LSN of its
    parent's layer store (the paper's §7 "log as a service" outlook
    taken one step further: once every [(key, LSN)] state is
    reconstructable, a second TC+DC pipeline can {e share} the history
    below a fork point instead of copying it).  The fork itself is
    O(metadata): no record moves — the branch takes a retention {!pin}
    on the parent at the fork LSN and starts an empty TC, DC, transport
    and layer store of its own.

    Reads and writes split at the fork point:

    - {e below or at} the fork LSN, reads resolve through the parent's
      shared layers ([`Unwritten] in the branch's own tier falls
      through; [`Gone] — a branch-side delete — must not);
    - {e above} it, through the branch's own WAL/L0/L1 tier, addressed
      in a {e combined} LSN space: combined [c > fork] maps to the
      branch-local LSN [c - fork].

    Base state is installed {e lazily}, copy-on-write: the first touch
    of a key runs a separately-committed system transaction through the
    branch's own TC dispatch path inserting the parent's value at the
    fork point.  Because that install is ordinary logged traffic, a
    branch DC crash recovers it by ordinary redo — {!crash_dc} never
    touches the parent.

    Parents are abstract ({!parent}): a branch can fork from a root
    layer store ({!of_manager}) or from another branch
    ({!as_parent}), nesting arbitrarily. *)

(** What a branch needs from whatever it forked: a 3-way point-in-time
    lookup, a fork-point scan, retention pins, and the high watermark.
    All LSNs are in the parent's own (combined, if it is itself a
    branch) LSN space. *)
type parent = {
  p_label : string;  (** diagnostics: who the parent is *)
  p_high : unit -> Untx_util.Lsn.t;
      (** highest LSN the parent currently answers (its ingest
          watermark, freshened) — the ceiling for fork points *)
  p_lookup :
    table:string ->
    key:string ->
    at:Untx_util.Lsn.t ->
    [ `Visible of string | `Gone | `Unwritten ];
  p_iter_at :
    at:Untx_util.Lsn.t -> (table:string -> key:string -> string -> unit) -> unit;
  p_pin : at:Untx_util.Lsn.t -> unit;
  p_unpin : at:Untx_util.Lsn.t -> unit;
}

val of_manager : ?label:string -> Untx_repl.Repl.Manager.t -> parent
(** The root parent: a TC's layered shipping manager.  Lookups, scans
    and the high watermark sync the store to end-of-stable-log first.
    Raises [Invalid_argument] if the manager has no layer store. *)

type t

val create :
  ?counters:Untx_util.Instrument.t ->
  ?policy:Untx_kernel.Transport.policy ->
  ?seed:int ->
  ?wrap:((string -> string option) -> string -> string option) ->
  name:string ->
  fork_lsn:Untx_util.Lsn.t ->
  parent:parent ->
  tc_id:Untx_util.Tc_id.t ->
  dc_config:Untx_dc.Dc.config ->
  part:int ->
  tables:(string * bool) list ->
  unit ->
  t
(** Fork [parent] at [fork_lsn]: pin the parent there, then stand up
    the branch's own TC ([tc_id] must be fresh in the deployment — the
    M-TC identity plumbing rejects misattributed frames), DC ([part]
    likewise), a {!Untx_kernel.Kernel.link} transport under
    [policy]/[seed], and a
    layered shipping manager (so the branch supports [read_as_of],
    layer-sourced redo and history truncation of its own).  [tables]
    are created on both sides and routed.  [wrap] (default identity)
    wraps the DC's frame handlers — deployments use it to attribute
    injected faults to the branch.  No data is copied: fork cost is
    O(metadata), timed as ["branch.fork_ns"] and counted as
    ["branch.creates"].  Raises {!Untx_layer.Layer.Beyond_ingested}
    when [fork_lsn] exceeds the parent's high watermark ([ingested] is
    that watermark, in the parent's LSN space). *)

val fork_lsn : t -> Untx_util.Lsn.t

val tc : t -> Untx_tc.Tc.t

val dc : t -> Untx_dc.Dc.t

val tables : t -> (string * bool) list
(** The branch's table set, as [(name, versioned)] pairs. *)

val durable : t -> Untx_util.Lsn.t
(** The highest combined LSN the branch answers: fork LSN plus its own
    store's ingest watermark (freshened to end-of-stable-log). *)

val materialized_count : t -> int
(** Keys whose fork-point base state has been faulted in so far. *)

(** {2 Transactions} *)

val engine : t -> (module Untx_kernel.Engine.S)
(** The branch's transactions, as an {!Untx_kernel.Engine.S} so a
    harness drives a branch exactly as it drives a TC.  Copy-on-write:
    each accessor first ensures the touched key's fork-point base state
    is materialized (a separately committed system transaction —
    [`Blocked]/[`Fail] from that install surfaces to the caller, with
    nothing marked), then runs the user operation through the branch
    TC's ordinary dispatch path.  A scan must see every parent key, so
    it materializes the whole table first; if any install could not run
    it answers [`Blocked] rather than a partial view.  Reads are counted
    as ["branch.reads"], writes as ["branch.writes"], installs as
    ["branch.materializations"]. *)

(** {2 Point-in-time reads} *)

val lookup_at :
  t ->
  table:string ->
  key:string ->
  at:Untx_util.Lsn.t ->
  [ `Visible of string | `Gone | `Unwritten ]
(** The 3-way state at combined LSN [at]: at or below the fork, the
    parent's shared layers answer; above it, the branch's own tier,
    with [`Unwritten] falling through to the parent at the fork point.
    Past {!durable} it raises {!Untx_layer.Layer.Beyond_ingested}, the
    store's own refusal checked in combined coordinates: [wanted] is
    [at] and [ingested] is {!durable}. *)

val read_as_of :
  t -> table:string -> key:string -> at:Untx_util.Lsn.t -> string option
(** {!lookup_at} flattened to the user-visible value ([`Gone] and
    [`Unwritten] both read as [None]).  Counted as ["branch.reads"]. *)

val rows_at : t -> table:string -> at:Untx_util.Lsn.t -> (string * string) list
(** Every visible row of [table] at combined LSN [at], sorted by key —
    the parent's fork-point rows overridden by the branch's own state.
    Audit and parity checks read the branch through this. *)

val fork_rows : t -> table:string -> (string * string) list
(** The parent's visible rows at the fork point, sorted by key — the
    shared prefix the branch must agree with below the fork. *)

(** {2 Fault tolerance} *)

val crash_dc : t -> unit
(** Crash + recover the branch's DC, then redo from the branch TC —
    exactly the deployment's single-DC restart, scoped to the branch.
    The parent is untouched; materialized base state is logged traffic,
    so redo restores it. *)

val quiesce : t -> unit
(** Settle the branch: pump the transport dry, force the log, sync the
    branch store to end-of-stable-log. *)

(** {2 Nesting and teardown} *)

val as_parent : t -> parent
(** The branch viewed as a parent, so branches fork from branches.  All
    LSNs in the returned record are combined (parent-space below the
    fork, fork + local above). *)

val close : t -> unit
(** Delete the branch: release the parent's fork-point pin.  Every
    subsequent operation raises [Invalid_argument].  Counted as
    ["branch.deletes"].  The caller (deployment) is responsible for
    refusing to close a branch that still has live children. *)
