(** Deterministic chaos-soak engine.

    One {e cycle} builds a fresh deployment of some {!shape} from a
    seed, runs a randomized transactional workload against a shadow-map
    oracle while a fault plan is armed, answers every injected fault
    with a hard kill of the component it escaped from (or, at the
    ["repl.ship.batch"] boundary of a replicated shape, a standby
    promotion), quiesces through the resend path, and hands the
    survivor to the auditor ({!Audit.run} for the plain kernel,
    {!Audit.run_deploy} plus the shape's own checks otherwise).

    Every shape runs the same engine: the same seed-derived deployment
    (transport policy, DC sync policy, reset mode, versioned tables,
    small pages and a tiny cache so splits, evictions and flushes
    happen), the same workload generator and the same fate protocol.
    A shape only adds what really differs: its crash routing, its
    mid-workload maintenance, the {!Untx_kernel.Engine.S} value it
    drives and its audit.

    Everything — workload, transport policy, fault plan, crash instant —
    is a pure function of the shape, seed, plan and [txns], so any
    violation is reproducible by rerunning the cycle with the same
    arguments.  A violating cycle's [c_shape], [c_label], [c_seed] and
    [c_txns] are exactly those arguments:
    [run_cycle ~shape ~label ~plan:(List.assoc label (plans shape))
    ~seed ~txns ()].

    A commit interrupted by a crash is ambiguous (the Commit record may
    or may not have reached the stable log).  Every transaction's first
    write is a unique marker key; after a TC crash the engine probes the
    marker to learn the transaction's fate and updates the oracle
    accordingly — exactly the "did my transaction commit?" probe an
    application would issue.  A DC crash leaves the TC and the
    transaction alive: an unfinished body is rolled back, an unfinished
    commit is retried. *)

type repl = {
  parts : int;
  replicas : int;  (** warm standbys per partition *)
  durability : Untx_repl.Repl.durability option;
      (** [None] alternates [Quorum 1] (even seeds) and [Primary_only]
          (odd seeds), so Quorum-gated commits also live through
          mid-workload promotions *)
}

(** What a cycle deploys and drives.  The [int] is the DC count. *)
type shape =
  | Kernel
      (** one TC and one DC as a {!Untx_kernel.Kernel}, driven through
          {!Untx_kernel.Engine.of_kernel}, so commits take its
          auto-checkpoint path
          (every 7 commits on seeds divisible by 4); quiesce and
          checkpoint at the midpoint; audited by {!Audit.run} *)
  | Partitioned of int
      (** one TC over hash-partitioned DCs ({!Untx_cloud.Deploy}).  An
          injected DC fault kills whichever partition it escaped from;
          that partition recovers alone while its siblings keep serving.
          Fan-out checkpoint at the midpoint. *)
  | Replicated of repl
      (** {!Partitioned} with warm standbys fed by continuous redo
          shipping.  A kill at ["repl.ship.batch"] is answered with
          {!Untx_cloud.Deploy.fail_over} — promote the most-caught-up
          eligible standby, re-drive only the gap; the TC survives it —
          and, if the gate refuses every candidate
          ({!Untx_cloud.Deploy.Promotion_refused}), with a cold restart
          of the primary.  DC faults inside a standby's apply crash the
          standby, which rejoins from its stable state.  The audit also
          holds every attached standby to parity with its primary. *)
  | Detach of repl
      (** {!Replicated} with the detach→checkpoint→promote interleaving
          as its maintenance: dc0's first standby detaches a quarter
          into the workload, a granted checkpoint at the midpoint
          advances the redo-scan start point past its frozen cursor
          (burning one unit of its retention lease), and at the
          three-quarter mark dc0 fails over to that laggard.  The
          promotion must catch the laggard up from the retained log, or
          refuse and cold-restart — never serve a hole. *)
  | Front of int
      (** TC kill under load: two TCs share the DCs behind the session
          front end ({!Untx_front.Front}), each TC's sessions updating
          their own table (the Section 6 disjoint-updaters rule) with
          bounded queues and group-commit batching.  At the midpoint one
          TC (picked by seed) is hard-killed with non-empty queues; no
          planned fault is routed (one escapes the cycle).  After the
          final drain every acknowledged commit's marker is probed, since
          acknowledged commits may have ridden unforced batches into the
          kill.  The audit runs {!Audit.run_deploy} once per TC,
          including the cross-TC watermark check. *)
  | Indexed of int
      (** {!Partitioned} driven through {!Untx_index.Index.engine}, so
          every mutation maintains a table's two secondary indexes
          (categories from the value, occasionally NUL-embedded; length
          buckets), under a seed-picked Section 3.1 lock protocol (never
          Optimistic).  A kill can land between a primary write and its
          entry maintenance; any index op answering non-[`Ok] aborts the
          transaction.  The audit adds {!Audit.check_index}. *)
  | Branch of int
      (** fork under load on a layered deployment: a third into the
          workload the deployment forks a copy-on-write branch at its
          stable LSN, later iterations drive one parent and one branch
          transaction over the same key space (deletes at a fixed 0.3),
          and at the two-thirds mark the parent compacts, truncates
          history at its stable LSN — the cut must clamp at the live
          branch's fork pin — and the branch DC is killed and
          recovered.  TC-side points that escaped a branch operation
          crash-recover the branch's own TC.  The audit adds
          {!Audit.check_branch} and the bank's branch-oracle laws
          ({!Untx_workload.Workload.fork_laws}). *)

type cycle = {
  c_shape : string;
      (** the shape in OCaml syntax (["Partitioned 3"]), or ["bank"]
          for a {!run_cycle_workload} cycle *)
  c_txns : int;
  c_label : string;  (** human-readable plan description *)
  c_seed : int;
  c_fired : string list;  (** fault points that fired, in firing order *)
  c_crashes : int;  (** injected hard kills (incl. during recovery) *)
  c_committed : int;  (** transactions the oracle counts as committed *)
  c_redelivered : int;  (** stable ops re-delivered by the audit *)
  c_violations : string list;
  c_counters : (string * int) list;  (** Instrument snapshot *)
  c_trace : string;
      (** the cycle's span dump ({!Untx_obs.Trace.to_jsonl}), captured
          whenever the audit reports violations — the verdict comes with
          the per-operation timelines that led to it — or when the
          caller asked with [keep_trace].  Empty otherwise.  Feed it to
          {!Untx_obs.Analyzer.of_jsonl}. *)
}

val run_cycle :
  ?keep_trace:bool ->
  shape:shape ->
  label:string ->
  plan:Untx_fault.Fault.rule list ->
  seed:int ->
  txns:int ->
  unit ->
  cycle
(** Run one workload→crash→recover→audit cycle.  The cycle always runs
    with tracing on (the ring is cleared first, so trace ids and span
    dumps are deterministic per cycle); [keep_trace] (default false)
    retains the dump in [c_trace] even for a clean cycle. *)

val plans : shape -> (string * Untx_fault.Fault.rule list) list
(** The shape's fault plans, as [(label, rules)]:
    - [Kernel]: every registered crash point at several Nth-hit
      positions, double-failure plans that also crash during recovery
      (["tc.recover.mid"]), transient-I/O-error plans and a corrupting
      wire;
    - [Partitioned]: kills mid-SMO, mid-checkpoint-grant, mid-flush and
      mid-WAL-force on whichever DC the fault escapes from, TC commit
      kills that drive redo fan-out, and doubles that take down two
      partitions in one cycle;
    - [Replicated]: primary kills swept across shipped-batch boundaries,
      a double promotion, and promotions paired with cold DC and TC
      kills;
    - [Detach]: the pure interleaving, a forced ["repl.lease.expire"]
      (the refusal path), and primary-kill and TC-kill combos;
    - [Front]: the scripted kill alone and under 5% frame corruption;
    - [Indexed]: kills mid-entry-table-SMO, mid-flush, mid-WAL-force and
      at both commit-force edges, an SMO+commit double, and 5%
      corruption under an SMO kill;
    - [Branch]: a fault-free control, flush / WAL-force / commit-edge
      kills (landing on either side by attribution), a kill inside the
      parent's compaction while the branch pins its history, 5%
      corruption, and a flush+commit double. *)

val run_cycle_workload :
  spec:Untx_workload.Workload.spec -> seed:int -> unit -> cycle
(** One workload-bank spec as a chaos cycle: {!Untx_workload.Workload.run}
    executes the spec differentially against its oracle (scripted
    DC/TC kills included), then the surviving deployment takes the full
    {!Audit.run_deploy} per table against the oracle's rows and — for
    index-maintaining specs — {!Audit.check_index}.  [c_violations]
    merges the run's differential violations with the audit's;
    [c_redelivered] sums the per-table audits. *)

type summary = {
  s_cycles : int;
  s_fired : int;  (** cycles in which at least one rule fired *)
  s_crashes : int;
  s_violating : cycle list;
  s_fires_by_point : (string * int) list;
  s_counters : (string * int) list;  (** summed across cycles *)
}

val soak : shape:shape -> seeds_per_plan:int -> cycle list * summary
(** Sweep every plan of [plans shape] across [seeds_per_plan] seeds, 24
    transactions per cycle.  Plan [p]'s seeds are
    [base + 131 p + 17 s], with a fixed [base] per shape. *)

val soak_workloads : seeds_per_spec:int -> cycle list * summary
(** Run every workload-bank spec ({!Untx_workload.Workload.bank}) as a
    {!run_cycle_workload} across [seeds_per_spec] seeds, from the
    bank's canonical base seed 0xB0B. *)
