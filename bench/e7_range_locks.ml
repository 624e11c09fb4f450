(* E7 — Range locking without pages (paper Section 3.1).

   An unbundled TC must lock ranges before it knows which keys exist —
   the two proposed protocols are fetch-ahead (probe, lock the returned
   keys, verify) and static range-partition locks (fewer, coarser).
   The integrated baseline locks keys as it walks its own pages, with
   no probe round-trips — the advantage the paper concedes to existing
   systems.  A scan-heavy mix exposes all three. *)

open Bench_util
module Driver = Untx_kernel.Driver
module Engine = Untx_kernel.Engine
module Tc = Untx_tc.Tc
module Kernel = Untx_kernel.Kernel
module Mono = Untx_baseline.Mono

let spec =
  {
    Driver.default_spec with
    txns = 800;
    ops_per_txn = 5;
    read_ratio = 0.2;
    scan_ratio = 0.4;
    scan_limit = 25;
    key_space = 4_000;
    concurrency = 4;
    seed = 71;
  }

let run () =
  let run_unbundled label cc =
    let k = make_kernel ~cc_protocol:cc () in
    let e = Engine.of_kernel k in
    Driver.preload e spec;
    let r, t = time (fun () -> Driver.run e spec) in
    let tc = Kernel.tc k in
    [
      label;
      fmt_f (float_of_int r.Driver.committed /. t);
      string_of_int (Tc.lock_acquisitions tc);
      string_of_int (Tc.messages_sent tc);
      string_of_int r.Driver.blocked_events;
      string_of_int r.Driver.deadlocks;
    ]
  in
  let run_mono () =
    let m = make_mono () in
    let e = Engine.of_mono m in
    Driver.preload e spec;
    let r, t = time (fun () -> Driver.run e spec) in
    [
      "monolith (in-page key locks)";
      fmt_f (float_of_int r.Driver.committed /. t);
      string_of_int (Mono.lock_acquisitions m);
      "0";
      string_of_int r.Driver.blocked_events;
      string_of_int r.Driver.deadlocks;
    ]
  in
  print_table
    ~title:
      "E7  Range protocols on a scan-heavy mix (40% scans of 25 keys, 4 \
       concurrent txns)"
    ~header:[ "protocol"; "txns/s"; "locks"; "msgs"; "blocked"; "deadlocks" ]
    [
      run_unbundled "fetch-ahead (key locks)" Tc.Key_locks;
      run_unbundled "range partition (64 slots)" (Tc.Range_locks 64);
      run_unbundled "range partition (16 slots)" (Tc.Range_locks 16);
      run_mono ();
    ];
  Printf.printf
    "claim check: fetch-ahead pays probe messages per scan batch; range \
     partitions need far fewer\nlocks but block more (coarser conflicts) — \
     'gives up some concurrency... reduces locking\noverhead'.  The \
     integrated engine needs no probes at all.\n"
