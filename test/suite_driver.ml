(* The interleaved workload driver against every engine: completion
   accounting, determinism, contention handling, cross-engine result
   agreement on contention-free workloads, and clean audits after it
   drives an indexed table and a copy-on-write branch. *)

open Helpers
module Kernel = Untx_kernel.Kernel
module Driver = Untx_kernel.Driver
module Engine = Untx_kernel.Engine
module Mono = Untx_baseline.Mono
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Deploy = Untx_cloud.Deploy
module Index = Untx_index.Index
module Branch = Untx_branch.Branch
module Audit = Untx_audit.Audit

let spec =
  {
    Driver.default_spec with
    txns = 120;
    ops_per_txn = 5;
    key_space = 400;
    concurrency = 6;
    scan_ratio = 0.1;
  }

let test_driver_on_kernel () =
  let k = make_kernel () in
  let e = Engine.of_kernel k in
  Driver.preload e spec;
  let r = Driver.run e spec in
  Alcotest.(check int) "all txns completed" spec.Driver.txns
    (r.Driver.committed + r.Driver.aborted);
  Alcotest.(check bool) "most committed" true
    (r.Driver.committed > spec.Driver.txns / 2);
  check_wellformed k

let test_driver_on_baseline () =
  let m =
    Mono.create
      { Mono.default_config with page_capacity = 256; debug_checks = true }
  in
  Mono.create_table m ~name:spec.Driver.table;
  let e = Engine.of_mono m in
  Driver.preload e spec;
  let r = Driver.run e spec in
  Alcotest.(check int) "all txns completed" spec.Driver.txns
    (r.Driver.committed + r.Driver.aborted)

let test_driver_deterministic () =
  let run () =
    let k = make_kernel () in
    let e = Engine.of_kernel k in
    Driver.preload e spec;
    let r = Driver.run e spec in
    (r.Driver.committed, r.Driver.aborted, r.Driver.op_count)
  in
  Alcotest.(check (triple int int int)) "two identical runs" (run ()) (run ())

let test_driver_high_contention () =
  (* A tiny hot key space forces blocking and deadlocks; the driver must
     still complete every transaction. *)
  let hot =
    { spec with key_space = 8; zipf_theta = 0.9; txns = 80; concurrency = 8 }
  in
  let k = make_kernel () in
  let e = Engine.of_kernel k in
  Driver.preload e hot;
  let r = Driver.run e hot in
  Alcotest.(check int) "all completed despite contention" hot.Driver.txns
    (r.Driver.committed + r.Driver.aborted);
  Alcotest.(check bool) "contention observed" true
    (r.Driver.blocked_events > 0);
  check_wellformed k

let test_driver_serial_no_blocking () =
  let serial = { spec with concurrency = 1; txns = 50 } in
  let k = make_kernel () in
  let e = Engine.of_kernel k in
  Driver.preload e serial;
  let r = Driver.run e serial in
  Alcotest.(check int) "no blocking when serial" 0 r.Driver.blocked_events;
  Alcotest.(check int) "no deadlocks" 0 r.Driver.deadlocks;
  Alcotest.(check int) "all committed" serial.Driver.txns r.Driver.committed

(* One TC over two DCs, table "kv" added by the caller. *)
let two_dc_deploy ~layers =
  let d = Deploy.create ~layers () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  List.iter
    (fun name -> ignore (Deploy.add_dc d ~name Dc.default_config))
    [ "dc0"; "dc1" ];
  (d, tc)

let check_completed (r : Driver.result) =
  Alcotest.(check int) "all txns completed" spec.Driver.txns
    (r.Driver.committed + r.Driver.aborted);
  Alcotest.(check bool) "most committed" true
    (r.Driver.committed > spec.Driver.txns / 2)

let test_driver_on_index () =
  let d, tc = two_dc_deploy ~layers:false in
  let idx = Index.create () in
  Deploy.add_indexed_table d ~idx ~name:"kv" ~versioned:true
    ~dcs:[ "dc0"; "dc1" ]
    ~indexes:[ ("by_first", fun ~key:_ ~value -> [ String.sub value 0 1 ]) ]
    ();
  let e = Index.engine idx tc in
  Driver.preload e spec;
  check_completed (Driver.run e spec);
  Deploy.quiesce d;
  Alcotest.(check (list string))
    "index parity" [] (Audit.check_index d ~idx ~table:"kv")

let test_driver_on_branch () =
  let d, tc = two_dc_deploy ~layers:true in
  Deploy.add_partitioned_table d ~replicas:0 ~name:"kv" ~versioned:false
    ~dcs:[ "dc0"; "dc1" ] ();
  Driver.preload (Engine.of_tc tc) spec;
  Deploy.quiesce d;
  Tc.force_log tc;
  let b = Deploy.create_branch d ~from_lsn:(Tc.stable_lsn tc) ~name:"b" in
  check_completed (Driver.run (Branch.engine b) spec);
  Deploy.quiesce d;
  Alcotest.(check bool) "the branch materialized keys" true
    (Branch.materialized_count b > 0);
  Alcotest.(check (list string))
    "branch parity" [] (Audit.check_branch d ~name:"b" ~table:"kv")

let suite =
  [
    Alcotest.test_case "driver on unbundled kernel" `Quick
      test_driver_on_kernel;
    Alcotest.test_case "driver on baseline" `Quick test_driver_on_baseline;
    Alcotest.test_case "driver determinism" `Quick test_driver_deterministic;
    Alcotest.test_case "driver high contention" `Quick
      test_driver_high_contention;
    Alcotest.test_case "driver serial" `Quick test_driver_serial_no_blocking;
    Alcotest.test_case "driver on an indexed table" `Quick
      test_driver_on_index;
    Alcotest.test_case "driver on a branch" `Quick test_driver_on_branch;
  ]
