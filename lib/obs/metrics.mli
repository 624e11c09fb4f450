(** The observability registry: named counters plus fixed-bucket
    latency/size histograms.

    Counters keep the old [Instrument] contract exactly (that module is
    now a thin shim over this one).  Histograms use geometric buckets —
    four sub-buckets per power of two — so percentile estimates
    overshoot the true value by at most ~25% while snapshots stay
    mergeable by bucket addition.  Timing helpers are near-zero-cost
    while [set_timed] is off: one field read and one float compare per
    instrumented site. *)

type t

val create : unit -> t

val global : t
(** A process-wide registry, convenient for benches. *)

(** {2 Counters (the [Instrument] contract)} *)

val counter_cell : t -> string -> int ref

val bump : t -> string -> unit

val bump_by : t -> string -> int -> unit

val get_counter : t -> string -> int

val reset_counters : t -> unit
(** Zero every counter; histograms are untouched. *)

val counter_snapshot : t -> (string * int) list
(** All counters, sorted by name — deterministic, no timing data. *)

val pp_counters : Format.formatter -> t -> unit

(** {2 Histograms} *)

type hsnap = {
  s_count : int;
  s_sum : int;
  s_min : int;  (** [max_int] when empty *)
  s_max : int;
  s_buckets : int array;
}
(** A mergeable point-in-time copy of one histogram. *)

val observe : t -> string -> int -> unit
(** Record a non-negative sample (negatives clamp to 0).  Units are the
    caller's: the built-in instrumentation uses nanoseconds for
    latencies and bytes for sizes ([*_ns] / [*_bytes] name suffixes). *)

val set_timed : t -> bool -> unit
(** Enable or disable the [start]/[stop] timing helpers (default off). *)

val timed : t -> bool

val start : t -> int
(** A timestamp in nanoseconds to pass to [stop], or the sentinel [-1]
    when timing is disabled. *)

val stop : t -> string -> int -> unit
(** Record the elapsed nanoseconds since [start]'s timestamp into the
    named histogram; a no-op on the disabled sentinel. *)

val hist_snapshot : t -> string -> hsnap option

val hist_names : t -> string list

val empty_hsnap : hsnap

val merge : hsnap -> hsnap -> hsnap
(** Bucket-wise sum: [merge (snap a) (snap b)] equals the snapshot of
    recording both sample streams into one histogram. *)

val percentile : hsnap -> float -> int
(** [percentile s p] for [p] in [0..100]: the upper bound of the bucket
    holding the p-th ordered sample, clamped to the true maximum. *)

val fmt_ns : int -> string
(** Render nanoseconds with a human unit (ns/us/ms/s). *)

val pp_hsnap : Format.formatter -> hsnap -> unit
(** ["n=… p50=… p95=… p99=… max=…"] with [fmt_ns] units. *)
