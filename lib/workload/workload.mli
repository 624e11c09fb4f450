(** The workload bank: seeded adversarial workload specs, their
    generators, the shadow oracle every chaos cycle keeps, and the fork.

    Each {!spec} describes one adversarial workload shape over a
    partitioned deployment — Zipfian hot keys, range scans under either
    Section 3.1 lock protocol, read-modify-write, large values, mixed
    versioned/unversioned tables, index-maintaining transactions, a
    copy-on-write fork.  {!Untx_audit.Chaos.run_cycle} runs a spec as the
    [Bank spec] shape: transaction by transaction against the {!oracle},
    with every read, range scan and index lookup compared against the
    oracle the moment it returns, poison probes (duplicate inserts,
    updates of absent keys) that must fail exactly where the TC contract
    says, and scripted DC/TC kills between transactions; the quiesced
    survivor then takes the chaos audit.

    Everything is a pure function of [(spec, seed)], so any violation
    replays exactly:
    [Chaos.run_cycle ~shape:(Bank (Workload.find name)) ~label:("bank:" ^ name)
    ~plan:[] ~seed ~txns:(Workload.find name).w_txns ()]. *)

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
          the fork), and the audit adds {!fork_laws}.  A branch transaction follows the parent's rules:
          the same table rotation and, under [Optimistic], the same
          re-pick of a key it already wrote; it draws no poison
          probe.  Requires an unversioned single-table spec. *)
}

val bank : unit -> spec list
(** The standard bank: [zipfian_rmw], [range_scan_keylocks],
    [range_scan_rangelocks], [occ_uniform], [large_values],
    [mixed_tables], [indexed_zipf], [indexed_unversioned],
    [branched_pitr]. *)

val find : string -> spec
(** Look a bank spec up by name.  Raises [Not_found]. *)

(** {2 Generators} *)

val key_of : int -> string
(** The key of a rank: ["k0042"]. *)

val gen_cat : Untx_util.Rng.t -> string
(** A category, occasionally with an embedded NUL so the
    order-preserving entry escaping is on the differential path. *)

val gen_value : spec -> Untx_util.Rng.t -> string
(** A value in the spec's length range, ["<cat>:<payload>"] when the
    spec is indexed. *)

val indexes : (string * Untx_index.Index.extract) list
(** The two secondary indexes of the bank and of the [Indexed] chaos
    shape: ["by_cat"] (the value's prefix up to its first [':']; a value
    without one has no category) and ["by_len"] (["L<length / 16>"]). *)

(** {2 The oracle} *)

type oracle = (string, (string, string option) Hashtbl.t) Hashtbl.t
(** Committed state only: table → key → value, [None] for a key whose
    delete committed.  A transaction stages its effects and {!commit}s
    them exactly when the system under test reports the commit. *)

val view : oracle -> table:string -> string -> string option
(** A key's committed value. *)

val rows : oracle -> string -> (string * string) list
(** A table's live rows in key order — the [expected] the auditor
    takes. *)

val commit : oracle -> table:string -> (string, string option) Hashtbl.t -> unit
(** Land one transaction's staged effects on [table]. *)


(** {2 Forks}

    The one fork procedure and the branch-oracle laws, shared by the
    [Bank] and [Branch] chaos shapes. *)

type fork = {
  f_branch : Untx_branch.Branch.t;
  f_lsn : Untx_util.Lsn.t;  (** the fork point *)
  f_rows : (string * (string * string option) list) list;
      (** per table, the parent oracle's entries at the fork in key
          order, deleted keys included *)
  f_oracle : oracle;
      (** the branch's own oracle, a copy of the parent's at the fork *)
}

val fork : Untx_cloud.Deploy.t -> oracle -> tables:string list -> fork
(** Quiesce the deployment, force ["tc1"]'s log and fork branch ["b"]
    at its stable LSN; the oracle is the parent's committed state at
    that instant. *)

val fork_laws : Untx_cloud.Deploy.t -> fork -> (bool * string) list
(** The branch-oracle laws over a quiesced deployment, one
    [(holds, message)] per comparison.  Per table: the branch's whole
    table at its durable LSN equals [f_oracle]'s rows; its whole table
    at the fork LSN equals the fork's live rows, so a key deleted before
    the fork cannot reappear there; and every fork entry, a deleted key
    included, reads back through the branch and through the parent as
    the parent's oracle stood at the fork (two per entry). *)
