(** An assembled unbundled kernel: one TC and one DC joined by an
    injectable transport (Figure 1 with a single instance of each; the
    multi-TC / multi-DC deployments of Section 6 live in [Untx_cloud]).

    A kernel only wires one TC to one DC and injects failures: create
    it, create tables, crash components.  Transactions run on the TC
    itself, [Untx_tc.Tc.begin_txn (Kernel.tc k)] and the rest of
    {!Untx_tc.Tc}, or through [Engine.of_kernel k]. *)

type config = {
  tc : Untx_tc.Tc.config;
  dc : Untx_dc.Dc.config;
  policy : Transport.policy;
  seed : int;
}

val default_config : config

type t

val link :
  ?counters:Untx_util.Instrument.t ->
  ?policy:Transport.policy ->
  ?label:string ->
  ?wrap:((string -> string option) -> string -> string option) ->
  seed:int ->
  Untx_tc.Tc.t ->
  dc_name:string ->
  Untx_dc.Dc.t ->
  Transport.t
(** Join a TC to a DC: build a {!Transport} whose data and control
    endpoints are the DC's frame handlers, declared as owned by the TC
    (a frame stamped with another TC's id is refused), and attach it to
    the TC as [dc_name] on the DC's partition.  [wrap] (default
    identity) wraps both handlers; [counters], [policy] and [label] go
    to {!Transport.create}.  Every TC<->DC link — this kernel's, a
    deployment's, a branch's — is built here. *)

val create : ?counters:Untx_util.Instrument.t -> config -> t

val tc : t -> Untx_tc.Tc.t

val dc : t -> Untx_dc.Dc.t

val transport : t -> Transport.t

val create_table : t -> name:string -> versioned:bool -> unit
(** Register the table at the DC and route it in the TC. *)

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
