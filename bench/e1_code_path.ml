(* E1 — Code-path length: unbundled TC/DC vs the integrated baseline.

   Paper claim (Conclusion): "compared to a traditional storage kernel
   with integrated transaction management, our unbundling approach
   inevitably has longer code paths", justified by deployment
   flexibility.  We run the same transaction mix on both engines and
   report throughput plus the per-transaction footprint: messages (zero
   in the monolith — everything is a function call), log forces, lock
   acquisitions, log bytes.  The unversioned unbundled variant also
   shows the read-before-write cost of logging undo information without
   page access; versioned tables (before-versions in the DC) avoid it —
   a design point the paper's Section 6.2.2 machinery enables. *)

open Bench_util
module Driver = Untx_kernel.Driver
module Engine = Untx_kernel.Engine
module Tc = Untx_tc.Tc
module Kernel = Untx_kernel.Kernel
module Mono = Untx_baseline.Mono
module Transport = Untx_kernel.Transport

let ms ns = float_of_int ns /. 1e6

let spec =
  {
    Driver.default_spec with
    txns = 2_000;
    ops_per_txn = 6;
    read_ratio = 0.5;
    key_space = 5_000;
    concurrency = 4;
    seed = 11;
  }

let run () =
  (* unbundled, versioned (pipelined writes, version-based undo) *)
  let kv = make_kernel ~versioned:true () in
  let ev = Engine.of_kernel kv in
  Driver.preload ev spec;
  let rv, tv = time (fun () -> Driver.run ev spec) in
  (* unbundled, unversioned (read-before-write undo) *)
  let ku = make_kernel ~versioned:false () in
  let eu = Engine.of_kernel ku in
  Driver.preload eu spec;
  let ru, tu = time (fun () -> Driver.run eu spec) in
  (* monolithic *)
  let m = make_mono () in
  let em = Engine.of_mono m in
  Driver.preload em spec;
  let rm, tm = time (fun () -> Driver.run em spec) in
  let row label (r : Driver.result) t msgs wire_bytes forces locks log_bytes =
    [
      label;
      fmt_f (float_of_int r.Driver.committed /. t);
      fmt_f2 (ms (Metrics.percentile r.Driver.latency 50.));
      fmt_f2 (ms (Metrics.percentile r.Driver.latency 99.));
      fmt_f2 (per msgs r.Driver.committed);
      string_of_int (wire_bytes / max 1 r.Driver.committed);
      fmt_f2 (per forces r.Driver.committed);
      fmt_f2 (per locks r.Driver.committed);
      string_of_int (log_bytes / max 1 r.Driver.committed);
    ]
  in
  print_table
    ~title:
      "E1  Code-path length: same mix (50% reads, 6 ops/txn), identical \
       drivers"
    ~header:
      [ "engine"; "txns/s"; "p50 ms"; "p99 ms"; "msgs/txn"; "wire B/txn";
        "forces/txn"; "locks/txn"; "log B/txn" ]
    [
      row "unbundled (versioned)" rv tv
        (Tc.messages_sent (Kernel.tc kv))
        (Transport.bytes_sent (Kernel.transport kv))
        (Tc.log_forces (Kernel.tc kv))
        (Tc.lock_acquisitions (Kernel.tc kv))
        (Tc.log_bytes (Kernel.tc kv));
      row "unbundled (unversioned)" ru tu
        (Tc.messages_sent (Kernel.tc ku))
        (Transport.bytes_sent (Kernel.transport ku))
        (Tc.log_forces (Kernel.tc ku))
        (Tc.lock_acquisitions (Kernel.tc ku))
        (Tc.log_bytes (Kernel.tc ku));
      row "monolithic baseline" rm tm 0 0 (Mono.log_forces m)
        (Mono.lock_acquisitions m) (Mono.log_bytes m);
    ];
  Printf.printf
    "claim check: the monolith exchanges 0 messages; the unbundled kernel \
     pays per-op messages\n\
     (wire B/txn is measured from the encoded frames, both channels) and an \
     extra read-before-write\n\
     on unversioned tables for its deployment flexibility.\n";
  (* Instrumented re-run: the same versioned engine with timing and
     tracing switched on, for the per-hop latency breakdown.  The three
     runs above execute with observability disabled — their throughput
     is the disabled baseline, so the delta against this run is the
     full cost of having spans and histograms on. *)
  let ci = Instrument.create () in
  let ki = make_kernel ~versioned:true ~counters:ci () in
  let ei = Engine.of_kernel ki in
  Driver.preload ei spec;
  Metrics.set_timed ci true;
  Trace.set_enabled true;
  let ri, ti = time (fun () -> Driver.run ei spec) in
  Trace.set_enabled false;
  Metrics.set_timed ci false;
  print_hists
    ~title:
      "E1  Per-hop latency, observability on (versioned engine, same mix)" ci
    [
      "wal.tc.append_ns";
      "tc.data_rtt_ns";
      "dc.apply_ns";
      "wal.tc.force_ns";
      "wal.dc.append_ns";
      "wal.dc.force_ns";
      "transport.frame_bytes";
    ];
  let tput (r : Driver.result) t = float_of_int r.Driver.committed /. t in
  Printf.printf
    "observability: disabled %.0f txns/s vs enabled %.0f txns/s (%+.1f%% \
     when on; the disabled\n\
     path costs one bool check per site, within run-to-run noise of the \
     untraced rows above).\n"
    (tput rv tv) (tput ri ti)
    ((tput rv tv -. tput ri ti) /. tput rv tv *. 100.)
