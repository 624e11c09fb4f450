(** An assembled unbundled kernel: one TC and one DC joined by an
    injectable transport (Figure 1 with a single instance of each; the
    multi-TC / multi-DC deployments of Section 6 live in [Untx_cloud]).

    This is the primary user-facing API of the library: create a kernel,
    create tables, run transactions, crash components, recover. *)

type config = {
  tc : Untx_tc.Tc.config;
  dc : Untx_dc.Dc.config;
  policy : Transport.policy;
  seed : int;
  auto_checkpoint_every : int;
      (** attempt a checkpoint every n commits; 0 disables (manual
          {!checkpoint} only).  Checkpoints are the contract-termination
          mechanism bounding restart redo (Section 4.2). *)
}

val default_config : config

type t

val create : ?counters:Untx_util.Instrument.t -> config -> t

val tc : t -> Untx_tc.Tc.t

val dc : t -> Untx_dc.Dc.t

val transport : t -> Transport.t

val create_table : t -> name:string -> versioned:bool -> unit
(** Register the table at the DC and route it in the TC. *)

(** {2 Transactions} — thin passthroughs to {!Untx_tc.Tc}. *)

type txn = Untx_tc.Tc.txn

val begin_txn : t -> txn

val read : t -> txn -> table:string -> key:string -> string option Untx_tc.Tc.outcome

val insert : t -> txn -> table:string -> key:string -> value:string -> unit Untx_tc.Tc.outcome

val update : t -> txn -> table:string -> key:string -> value:string -> unit Untx_tc.Tc.outcome

val delete : t -> txn -> table:string -> key:string -> unit Untx_tc.Tc.outcome

val scan :
  t -> txn -> table:string -> from_key:string -> limit:int ->
  (string * string) list Untx_tc.Tc.outcome

val commit : t -> txn -> unit Untx_tc.Tc.outcome

val abort : t -> txn -> reason:string -> unit

val checkpoint : t -> bool

(** {2 Failure injection (Section 5.3)} *)

val crash_dc : t -> unit
(** DC loses its volatile state (cache, in-memory abLSNs, unforced
    DC-log tail) and every in-flight message; it recovers to well-formed
    structures from stable state, then the TC redoes from the redo-scan
    start point. *)

val crash_tc : t -> unit
(** TC loses its unforced log tail, transaction and lock tables; the DC
    resets exactly the pages holding the lost operations; the TC then
    repeats history and rolls back losers. *)

val crash_both : t -> unit

val crash_for_point : t -> string -> unit
(** Translate a {!Untx_fault.Fault.Injected_crash} at the named point
    into a hard kill of the owning component (crash + recover), routed
    by {!Untx_fault.Fault.route_crash}. *)

val quiesce : t -> unit
(** Wait for every outstanding acknowledgement, via the TC's
    await/resend loop — lost messages are recovered by the resend
    contract, not by bypassing the transport. *)
