(* A — Ablations of the design choices DESIGN.md calls out.

   A1  write pipelining: the TC's only obligation is "no conflicting
       operations concurrently in flight"; non-conflicting writes can be
       dispatched without awaiting each ack (versioned tables).
   A2  low-water-mark cadence: frequent LWMs shrink {LSNin} sets (small
       page-sync metadata) at the cost of control messages.
   (A3 compared separate and combined watermark messages; there is
   one watermark message now, so it has nothing left to compare.)
   A4  group commit: batching log forces across commits.
   A5  lock granularity on a plain point-op mix (table locks at one
       extreme; E7 covers the scan-heavy case). *)

open Bench_util
module Driver = Untx_kernel.Driver
module Engine = Untx_kernel.Engine
module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Transport = Untx_kernel.Transport
module Instrument = Untx_util.Instrument

let spec =
  {
    Driver.default_spec with
    txns = 1_000;
    ops_per_txn = 8;
    read_ratio = 0.25;
    key_space = 4_000;
    concurrency = 2;
    seed = 111;
  }

let run_kernel ?(spec = spec) ?counters ?group_commit cfg =
  let k = Kernel.create ?counters cfg in
  Option.iter (Tc.set_group_commit (Kernel.tc k)) group_commit;
  Kernel.create_table k ~name:spec.Driver.table ~versioned:true;
  let e = Engine.of_kernel k in
  Driver.preload e spec;
  let r, t = time (fun () -> Driver.run e spec) in
  (k, r, t)

let delayed =
  { Transport.delay_min = 1; delay_max = 2; reorder = true; dup_prob = 0.;
    drop_prob = 0. }

let a1_pipelining () =
  let row label pipeline =
    let cfg = kernel_config ~policy:delayed () in
    let cfg =
      { cfg with Kernel.tc = { cfg.Kernel.tc with pipeline_writes = pipeline } }
    in
    let k, r, t = run_kernel cfg in
    [
      label;
      fmt_f (float_of_int r.Driver.committed /. t);
      string_of_int (Tc.messages_sent (Kernel.tc k));
    ]
  in
  print_table
    ~title:
      "A1  Write pipelining over a delayed transport (1-2 tick latency \
       per message)"
    ~header:[ "writes"; "txns/s"; "msgs" ]
    [ row "pipelined (in-flight batch)" true; row "await each ack" false ];
  Printf.printf
    "ablation: pipelining hides per-message latency; the conflict rule \
     (not per-op round trips)\nis what correctness actually needs.\n"

let a2_lwm_cadence () =
  let row every =
    let counters = Instrument.create () in
    let cfg = kernel_config ~lwm_every:every ~cache_pages:64 () in
    let k, r, t = run_kernel ~counters cfg in
    Kernel.quiesce k;
    Dc.flush_all (Kernel.dc k);
    [
      string_of_int every;
      fmt_f (float_of_int r.Driver.committed /. t);
      string_of_int (Instrument.get counters "dc.meta_bytes_flushed");
      string_of_int (Instrument.get counters "cache.flushes");
    ]
  in
  print_table
    ~title:"A2  Low-water-mark cadence (ops between LWM messages)"
    ~header:[ "lwm every"; "txns/s"; "meta bytes"; "flushes" ]
    (List.map row [ 4; 16; 64; 256 ]);
  Printf.printf
    "ablation: rare LWMs leave fat {LSNin} sets that bloat page-sync \
     metadata — the knob behind\nE4's policy trade-off.\n"

let a4_group_commit () =
  let row group =
    let k, r, t = run_kernel ~group_commit:group (kernel_config ()) in
    [
      string_of_int group;
      fmt_f (float_of_int r.Driver.committed /. t);
      fmt_f2 (per (Tc.log_forces (Kernel.tc k)) r.Driver.committed);
    ]
  in
  print_table
    ~title:"A4  Group commit (commits per log force)"
    ~header:[ "group size"; "txns/s"; "forces/txn" ]
    (List.map row [ 1; 4; 16 ]);
  Printf.printf
    "ablation: batching forces trades commit durability latency for \
     I/O; recovery still only\nloses what the lost forces covered (test \
     suite: exactly the unforced tail).\n"

let a5_lock_granularity () =
  let row label cc =
    let k = make_kernel ~cc_protocol:cc () in
    let e = Engine.of_kernel k in
    Driver.preload e spec;
    let r, t = time (fun () -> Driver.run e spec) in
    [
      label;
      fmt_f (float_of_int r.Driver.committed /. t);
      string_of_int (Tc.lock_acquisitions (Kernel.tc k));
      string_of_int r.Driver.blocked_events;
      string_of_int r.Driver.deadlocks;
    ]
  in
  print_table
    ~title:"A5  Lock granularity on a point-op mix (2 concurrent txns)"
    ~header:[ "protocol"; "txns/s"; "locks"; "blocked"; "deadlocks" ]
    [
      row "key locks" Tc.Key_locks;
      row "range locks (32)" (Tc.Range_locks 32);
      row "table locks" Tc.Table_locks;
    ];
  Printf.printf
    "ablation: the spectrum Section 3.1 sketches — key locks maximize \
     concurrency, table locks\nserialize everything touching a table.\n"

let a6_occ_vs_2pl () =
  let row label cc theta =
    let contended = { spec with zipf_theta = theta; concurrency = 6;
                      key_space = (if theta > 0. then 64 else 4_000) } in
    let k = make_kernel ~cc_protocol:cc () in
    let e = Engine.of_kernel k in
    Driver.preload e contended;
    let r, t = time (fun () -> Driver.run e contended) in
    [
      label;
      (if theta > 0. then "hot (64 keys, zipf .9)" else "uniform (4k keys)");
      fmt_f (float_of_int r.Driver.committed /. t);
      string_of_int r.Driver.committed;
      string_of_int r.Driver.aborted;
      string_of_int r.Driver.deadlocks;
    ]
  in
  print_table
    ~title:
      "A6  Optimistic vs pessimistic TC concurrency control (Section        4.1.1 allows either)"
    ~header:
      [ "cc method"; "contention"; "txns/s"; "committed"; "aborted";
        "deadlocks" ]
    [
      row "2PL (key locks)" Tc.Key_locks 0.;
      row "optimistic" Tc.Optimistic 0.;
      row "2PL (key locks)" Tc.Key_locks 0.9;
      row "optimistic" Tc.Optimistic 0.9;
    ];
  Printf.printf
    "ablation: uncontended, OCC skips lock bookkeeping and never blocks;      contended, its validation
aborts replace 2PL's blocking and deadlock      victims — the classic crossover.
"

let run () =
  a1_pipelining ();
  a2_lwm_cadence ();
  a4_group_commit ();
  a5_lock_granularity ();
  a6_occ_vs_2pl ()
