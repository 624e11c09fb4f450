(** Classic blocking two-phase commit over partitioned monolithic
    engines — the architecture the Section 6 sharing design avoids.

    Each partition is a full {!Untx_baseline.Mono} engine.  A
    distributed transaction runs local work at every touched partition,
    then the coordinator drives prepare (each participant forces its
    log and keeps its locks) and commit (each participant commits and
    releases).  Message and force counts are modelled explicitly so E6
    can compare against the unbundled deployment, and a coordinator
    crash between the phases leaves participants in doubt with their
    locks held — the blocking the paper's versioned sharing eliminates. *)

type t

val create :
  ?counters:Untx_util.Instrument.t ->
  partitions:string list ->
  Untx_baseline.Mono.config ->
  t

val create_table : t -> name:string -> unit
(** Create the table on every partition. *)

val engine : t -> string -> Untx_baseline.Mono.t

(** A distributed transaction touching one or more partitions. *)
type dtxn

val begin_dtxn : t -> dtxn

val write :
  t -> dtxn -> table:string -> key:string -> value:string ->
  (unit, string) result
(** Upsert at the key's home partition (acquires the local lock;
    [Error] on conflict for simplicity — callers retry). *)

val read : t -> dtxn -> table:string -> key:string -> (string option, string) result

val commit : t -> dtxn -> (unit, string) result
(** Full 2PC: prepare round then commit round. *)

val abort : t -> dtxn -> unit

val crash_coordinator_in_doubt : t -> dtxn -> unit
(** Simulate the coordinator failing after prepare: the transaction's
    locks stay held at every participant until {!recover_coordinator}. *)

val recover_coordinator : t -> unit
(** Resolve in-doubt transactions (commit them) and release locks. *)

val in_doubt : t -> int

val messages : t -> int
(** Coordination messages exchanged (2 per participant per commit). *)

val forces : t -> int
(** Log forces across participants (prepare + commit = 2 each). *)
