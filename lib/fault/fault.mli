(** Deterministic fault injection.

    The paper's interaction contracts (Section 3) only earn their keep
    when TC, DC, log, or disk can fail at *any* instant — not just at
    clean API boundaries.  This module is the lowest layer of a
    FoundationDB-style simulation harness: code paths that a real crash
    could interrupt declare named {e crash points} and call {!hit} when
    execution passes through them.  A test arms a seeded {e fault plan};
    when a plan rule fires at a point, {!hit} raises and the caller's
    harness translates the exception into a simulated hard kill
    ({!route_crash}) or a transient I/O failure.

    With no plan armed, {!hit} is a single ref read — cheap enough to
    leave the points compiled into the hot paths that benchmarks
    exercise (and safe to call concurrently from multiple domains, since
    benchmarks never arm plans).

    Determinism: a plan's behaviour is a pure function of the armed
    rules, the [seed], and the sequence of {!hit} calls.  The same
    workload under the same plan fires at the same instant, every
    time. *)

exception Injected_crash of string
(** Raised by {!hit} when a [Crash] rule fires; the payload is the crash
    point's name.  Simulates the process dying at that instant: the
    catcher must discard all volatile state of the owning component
    (e.g. via {!route_crash}) before continuing. *)

exception Io_error of string
(** Raised by {!hit} when an [Io_fail] rule fires: a transient I/O error
    the caller may retry without crashing. *)

type trigger =
  | Nth of int  (** fire on the [n]-th hit of the point (1-based), once *)
  | Prob of float  (** fire on each hit with this probability (seeded) *)

type action = Crash | Io_fail

type rule = { point : string; trigger : trigger; action : action }

val crash_at : string -> int -> rule
(** [crash_at point n] crashes on the [n]-th hit of [point]. *)

val crash_with_prob : string -> float -> rule

val io_error_at : string -> int -> rule

val io_error_with_prob : string -> float -> rule

val declare : string -> string
(** Register a crash point name (idempotent) and return it.  Modules
    declare their points at initialization time so harnesses can
    enumerate what is instrumentable via {!declared}. *)

val declared : unit -> string list
(** All declared point names, sorted. *)

val arm : ?seed:int -> rule list -> unit
(** Install a fault plan, replacing any previous one.  Resets per-point
    hit counts and the fired log.  [Nth] rules are consumed when they
    fire; [Prob] rules keep firing.  Any points named by the rules are
    implicitly {!declare}d. *)

val disarm : unit -> unit
(** Remove the plan.  {!fired_points} still reports the last plan's
    fires until the next {!arm}. *)

val hit : string -> unit
(** Pass through a crash point.  No-op unless a plan is armed; raises
    {!Injected_crash} or {!Io_error} when a rule fires. *)

val hits : string -> int
(** Hits of a point recorded since the last {!arm} (0 when disarmed). *)

val fired_points : unit -> string list
(** Points whose rules fired since the last {!arm}, in firing order.
    Survives {!disarm} so a harness can collect results after tearing
    the plan down. *)

(** {2 Crash routing} *)

val component_of_point : string -> [ `Tc | `Dc ]
(** Which process a fault point dies with, by name prefix: ["tc."] and
    ["wal.tc."] points die with the TC; every other point ([dc.],
    [wal.dc.], [disk.], cache, replication, layer and transport points)
    dies with the DC. *)

val route_crash : ([ `Tc | `Dc ] -> unit) -> string -> unit
(** [route_crash kill point] answers an {!Injected_crash} at [point]
    with [kill (component_of_point point)], a hard kill (crash +
    recover) of the owning component.  If the armed plan fires again
    during that recovery, the newly raised point is routed in turn, up
    to 8 times ([Nth] rules are consumed when they fire, so this
    terminates). *)
