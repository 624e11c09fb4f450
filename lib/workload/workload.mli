(** Seeded deterministic workload bank, run differentially against a
    sequential in-memory oracle.

    Each {!spec} describes one adversarial workload shape over a
    partitioned deployment — Zipfian hot keys, range scans under either
    Section 3.1 lock protocol, read-modify-write, large values, mixed
    versioned/unversioned tables, index-maintaining transactions — and
    {!run} executes it transaction by transaction while a shadow oracle
    predicts every outcome:

    - every read and range scan is compared against the oracle's view
      the moment it returns (scans against the owning partition's
      expected fragment, index lookups against a recomputation over the
      oracle's rows);
    - deliberately invalid operations ({e poison probes}: duplicate
      inserts, updates of absent keys) must fail exactly where the
      TC contract says they fail — immediately on unversioned tables,
      at commit on versioned ones;
    - scripted crash cycles kill a DC or the TC between transactions
      ({!Untx_cloud.Deploy.crash_dc}/[crash_tc]); recovery must land on
      the oracle's exact state;
    - after the final quiesce, every partition fragment is merged and
      held to byte equality with the oracle, and every index-entry
      table to {!Untx_index.Index.expected_entries} parity.

    Everything is a pure function of [(spec, seed)], so any violation
    replays exactly.  The bank is the scenario-diversity half of
    ROADMAP item 5: each spec is also a chaos and experiment target. *)

module Tc := Untx_tc.Tc

type crash = Crash_dc | Crash_tc | Crash_branch

type spec = {
  w_name : string;
  w_desc : string;
  w_protocol : Tc.cc_protocol;
  w_tables : (string * bool) list;  (** (table, versioned); ≥ 1 *)
  w_indexed : bool;
      (** maintain secondary indexes (["by_cat"], ["by_len"]) on the
          single table through {!Untx_index.Index}; values are
          structured ["<cat>:<payload>"] and categories occasionally
          embed NUL bytes to exercise the entry-key escaping *)
  w_parts : int;
  w_replicas : int;
  w_txns : int;
  w_keyspace : int;
  w_theta : float;  (** Zipfian skew; [0.] = uniform *)
  w_value_len : int * int;  (** value length range *)
  w_scan_prob : float;  (** chance of a differential range scan per txn *)
  w_lookup_prob : float;  (** chance of a differential index lookup *)
  w_rmw_prob : float;  (** chance an update is read-modify-write *)
  w_abort_prob : float;  (** chance a transaction deliberately aborts *)
  w_poison_prob : float;  (** chance of a poison probe per txn *)
  w_crashes : crash list;
      (** scripted kills, spread evenly across the run — every bank
          spec schedules at least one; [Crash_branch] kills the
          copy-on-write branch's DC (a no-op before the fork) *)
  w_branch_at : float option;
      (** fork a copy-on-write branch ({!Untx_cloud.Deploy.create_branch})
          at the stable LSN this fraction into the run; from then on
          every iteration also drives one branch transaction against
          the branch's own oracle (seeded from the parent's state at
          the fork), and the final parity adds branch-vs-branch-oracle
          equality plus shared-prefix-at-fork parity through both
          sides.  A branch transaction follows the parent's rules:
          the same table rotation and, under [Optimistic], the same
          re-pick of a key it already wrote; it draws no poison
          probe.  Requires an unversioned single-table spec. *)
}

type result = {
  r_name : string;
  r_committed : int;
  r_aborted : int;  (** deliberate aborts + expected poison failures *)
  r_crashes : int;
  r_checks : int;  (** differential comparisons performed *)
  r_violations : string list;  (** empty iff the oracle always agreed *)
}

type env = {
  e_deploy : Untx_cloud.Deploy.t;
  e_idx : Untx_index.Index.t;
  e_expected : (string * (string * string) list) list;
      (** per table, the oracle's committed rows in key order — feed to
          {!Untx_audit.Audit.run_deploy} for the full post-run audit *)
}

val bank : unit -> spec list
(** The standard bank: [zipfian_rmw], [range_scan_keylocks],
    [range_scan_rangelocks], [occ_uniform], [large_values],
    [mixed_tables], [indexed_zipf], [indexed_unversioned],
    [branched_pitr]. *)

val find : string -> spec
(** Look a bank spec up by name.  Raises [Not_found]. *)

val run : ?seed:int -> spec -> result * env
(** Execute the spec (default seed [0xB0B]).  The returned deployment
    is quiesced; callers typically chain the auditor over
    [e_expected]. *)

(** {2 Forks}

    The one fork procedure and the branch-oracle laws, shared by {!run}
    and the chaos branch cycles. *)

type fork = {
  f_branch : Untx_branch.Branch.t;
  f_lsn : Untx_util.Lsn.t;  (** the fork point *)
  f_rows : (string * (string * string option) list) list;
      (** per table, the parent oracle at the fork: a row's value, or
          [None] for a key it held deleted *)
}

val fork :
  Untx_cloud.Deploy.t ->
  tables:string list ->
  rows:(string -> (string * string option) list) ->
  fork
(** Quiesce the deployment, force ["tc1"]'s log and fork branch ["b"]
    at its stable LSN; [rows table] is the parent oracle's committed
    state at that instant, deleted keys included. *)

val fork_laws :
  Untx_cloud.Deploy.t ->
  fork ->
  own:(string -> (string * string) list) ->
  (bool * string) list
(** The branch-oracle laws over a quiesced deployment, one
    [(holds, message)] per comparison.  Per table: the branch's whole
    table at its durable LSN equals its own oracle [own table]; its
    whole table at the fork LSN equals the fork's live rows, so a key
    deleted before the fork cannot reappear there; and every fork
    entry, a deleted key included, reads back through the branch and
    through the parent as the parent's oracle stood at the fork (two
    per entry). *)
