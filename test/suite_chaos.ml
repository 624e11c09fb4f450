(* The chaos-soak engine at test scale: a handful of fixed-seed
   crash→recover→audit cycles that must come back violation-free and
   bit-identical on rerun, plus the lost-reply workload that proves the
   resend path (not Transport.flush) is what completes transactions
   under loss.  The full sweep lives in bench/e11_chaos.ml. *)

module Fault = Untx_fault.Fault
module Chaos = Untx_audit.Chaos
module Analyzer = Untx_obs.Analyzer

let cycle ?keep_trace ~label ~plan ~seed () =
  Chaos.run_cycle ?keep_trace ~shape:Chaos.Kernel ~label ~plan ~seed ~txns:12 ()

let check_clean (c : Chaos.cycle) =
  Alcotest.(check (list string))
    (Printf.sprintf "%s seed=%d: no violations" c.c_label c.c_seed)
    [] c.c_violations

let counter (c : Chaos.cycle) name =
  match List.assoc_opt name c.c_counters with Some n -> n | None -> 0

let test_small_soak () =
  let plans =
    [
      ("wal.tc.force.mid@2", [ Fault.crash_at "wal.tc.force.mid" 2 ]);
      ("dc.flush.before_page_write@1",
       [ Fault.crash_at "dc.flush.before_page_write" 1 ]);
      ("dc.smo.split.mid@1", [ Fault.crash_at "dc.smo.split.mid" 1 ]);
      ("disk.page_write.torn@1",
       [ Fault.crash_at "disk.page_write.torn" 1 ]);
      ("tc.commit.before_force@2",
       [ Fault.crash_at "tc.commit.before_force" 2 ]);
    ]
  in
  List.iter
    (fun (label, plan) ->
      List.iter
        (fun seed ->
          let c = cycle ~label ~plan ~seed () in
          check_clean c;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: the planned rule fired" label seed)
            true (c.c_fired <> []))
        [ 3; 10 ])
    plans

let test_reproducible () =
  (* One fixed-seed cycle of every shape but the partitioned one (which
     has its own case), each with a rule that fires at seed 9, run twice:
     everything the cycle reports must repeat. *)
  let repl = { Chaos.parts = 2; replicas = 2; durability = None } in
  List.iter
    (fun (shape, plan) ->
      let run () =
        Chaos.run_cycle ~shape ~label:"repro" ~plan ~seed:9 ~txns:12 ()
      in
      let a = run () and b = run () in
      let same what = Printf.sprintf "%s: same %s" a.c_shape what in
      check_clean a;
      Alcotest.(check bool)
        (a.c_shape ^ ": a rule fired")
        true (a.c_fired <> []);
      Alcotest.(check (list string)) (same "fired points") a.c_fired b.c_fired;
      Alcotest.(check int) (same "crash count") a.c_crashes b.c_crashes;
      Alcotest.(check int) (same "committed count") a.c_committed b.c_committed;
      Alcotest.(check int) (same "redelivery count") a.c_redelivered
        b.c_redelivered;
      Alcotest.(check (list (pair string int))) (same "counter snapshot")
        a.c_counters b.c_counters)
    [
      (Chaos.Kernel, [ Fault.crash_at "dc.flush.after_page_write" 2 ]);
      (Replicated repl, [ Fault.crash_at "repl.ship.batch" 3 ]);
      ( Detach { repl with replicas = 1 },
        [ Fault.crash_at "tc.commit.after_force" 3 ] );
      (Front 2, [ Fault.crash_with_prob "transport.frame.corrupt" 0.05 ]);
      (Indexed 2, [ Fault.crash_at "dc.smo.split.mid" 1 ]);
      (Branch 2, [ Fault.crash_at "dc.flush.before_page_write" 1 ]);
    ]

let test_lossy_resend_completes () =
  (* Seeds divisible by 3 run under the lossy policy (10% drop); the
     empty plan means every transaction must complete purely through
     timeout-driven resends — there is no Transport.flush anywhere in
     the engine's workload or quiesce path. *)
  let c = cycle ~label:"lossy, no faults" ~plan:[] ~seed:6 () in
  check_clean c;
  Alcotest.(check int) "every transaction committed" 12 c.c_committed;
  Alcotest.(check bool) "transport really dropped messages" true
    (counter c "transport.dropped" > 0);
  Alcotest.(check bool) "resends carried the workload" true
    (counter c "tc.resends" > 0);
  Alcotest.(check int) "flush bypass never used" 0
    (counter c "transport.flush_delivered")

let test_corrupting_wire () =
  (* Seed 6 runs under the lossy policy, and the armed corruption point
     flips bytes in a fraction of all delivered frames on both channels.
     Every corrupted frame must be caught by the checksum gate (never
     applied), and the contracts must still complete every
     transaction. *)
  let plan = [ Fault.crash_with_prob "transport.frame.corrupt" 0.05 ] in
  let c = cycle ~label:"corrupting wire" ~plan ~seed:6 () in
  check_clean c;
  Alcotest.(check int) "every transaction committed" 12 c.c_committed;
  Alcotest.(check bool) "frames were corrupted" true
    (counter c "transport.frames_corrupted" > 0);
  Alcotest.(check int) "every corrupted frame was rejected"
    (counter c "transport.frames_corrupted")
    (counter c "transport.corrupt_dropped")

let test_trace_reconstructs () =
  (* The same corrupting-wire cycle, with its span dump kept: the
     analyzer must reconstruct a complete per-operation timeline from
     the JSONL — every traced operation ends in an ack (no orphan spans:
     each resend chain converges on exactly the operation that started
     it), and the resend chains in the timelines account for exactly the
     resends the TC counted. *)
  let plan = [ Fault.crash_with_prob "transport.frame.corrupt" 0.05 ] in
  let c = cycle ~keep_trace:true ~label:"traced corrupting wire" ~plan ~seed:6 () in
  check_clean c;
  Alcotest.(check bool) "trace dump captured" true (c.c_trace <> "");
  let report = Analyzer.analyze (Analyzer.of_jsonl c.c_trace) in
  Alcotest.(check bool) "timelines reconstructed" true
    (report.Analyzer.r_timelines <> []);
  Alcotest.(check int) "no orphan spans after resend" 0
    report.Analyzer.r_orphans;
  let resends =
    List.fold_left
      (fun acc tl -> acc + tl.Analyzer.tl_resends)
      0 report.Analyzer.r_timelines
  in
  Alcotest.(check bool) "the cycle exercised the resend path" true
    (resends > 0);
  Alcotest.(check int) "timelines account for every TC resend"
    (counter c "tc.resends") resends;
  Alcotest.(check bool) "per-hop latencies were aggregated" true
    (report.Analyzer.r_hops <> [])

let test_crash_cycle_under_corruption () =
  (* A TC crash and a DC crash in the same cycle while the wire keeps
     corrupting frames: the restart barriers and recovery redo
     themselves run over the corrupting transport. *)
  let plan =
    [
      Fault.crash_with_prob "transport.frame.corrupt" 0.04;
      Fault.crash_at "tc.commit.before_force" 3;
      Fault.crash_at "dc.flush.after_page_write" 2;
    ]
  in
  List.iter
    (fun seed ->
      let c = cycle ~label:"crash cycle + corruption" ~plan ~seed () in
      check_clean c;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: planned crashes fired" seed)
        true (c.c_crashes >= 2))
    [ 3; 6; 10 ]

let test_partitioned_cycles () =
  (* The partitioned twin at test scale: one TC over three DCs, fixed
     seeds, kills mid-SMO and mid-checkpoint-grant.  Whichever partition
     the fault escapes from dies and recovers alone; the deployment
     audit (per-partition structure/hygiene, merged oracle, routed
     idempotence) must come back clean. *)
  let plans =
    [
      ("dc.smo.split.mid@1", [ Fault.crash_at "dc.smo.split.mid" 1 ]);
      ("dc.checkpoint.mid@1", [ Fault.crash_at "dc.checkpoint.mid" 1 ]);
      ("tc.commit.before_force@2",
       [ Fault.crash_at "tc.commit.before_force" 2 ]);
      ("dc.flush.before_page_write@1",
       [ Fault.crash_at "dc.flush.before_page_write" 1 ]);
    ]
  in
  List.iter
    (fun (label, plan) ->
      List.iter
        (fun seed ->
          let c =
            Chaos.run_cycle ~shape:(Partitioned 3) ~label ~plan ~seed
              ~txns:12 ()
          in
          check_clean c;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d: the planned rule fired" label seed)
            true (c.c_fired <> []))
        [ 3; 10 ])
    plans

let test_redo_window_watermark_race () =
  (* Regression: a watermark pushed while the TC awaits the redo-fence
     barrier (an ack from a sibling partition pumps the transports mid
     [Tc.on_dc_restart]) used to claim every acknowledged LSN.  The
     rebuilt partition, whose pages came back with empty abstract LSNs,
     compacted to the claim and absorbed its whole redo stream as
     duplicates — losing committed records.  Both seeds reproduced the
     loss before the low-water cap was installed ahead of the barrier. *)
  List.iter
    (fun (label, plan, seed) ->
      let c =
        Chaos.run_cycle ~shape:(Partitioned 3) ~label ~plan ~seed ~txns:24 ()
      in
      check_clean c;
      Alcotest.(check bool)
        (Printf.sprintf "%s seed=%d: the planned rule fired" label seed)
        true (c.c_fired <> []))
    [
      ( "dc.flush.before_page_write@1",
        [ Fault.crash_at "dc.flush.before_page_write" 1 ],
        23658 );
      ("wal.dc.force.mid@1", [ Fault.crash_at "wal.dc.force.mid" 1 ], 24068);
    ]

let test_partitioned_reproducible () =
  let run () =
    Chaos.run_cycle ~shape:(Partitioned 3) ~label:"repro-part" ~seed:9
      ~txns:12
      ~plan:[ Fault.crash_at "dc.flush.after_page_write" 2 ]
      ()
  in
  let a = run () and b = run () in
  check_clean a;
  Alcotest.(check (list string)) "same fired points" a.c_fired b.c_fired;
  Alcotest.(check int) "same crash count" a.c_crashes b.c_crashes;
  Alcotest.(check int) "same committed count" a.c_committed b.c_committed;
  Alcotest.(check (list (pair string int))) "same counter snapshot"
    a.c_counters b.c_counters

let test_plan_sweep_covers_required_points () =
  (* The standard sweep must reach the ISSUE's coverage floor: at least
     8 distinct points including a torn write and a mid-SMO crash. *)
  let points =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, plan) -> List.map (fun r -> r.Fault.point) plan)
         (Chaos.plans Chaos.Kernel))
  in
  Alcotest.(check bool) "at least 8 distinct points" true
    (List.length points >= 8);
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " in sweep") true (List.mem p points))
    [ "disk.page_write.torn"; "dc.smo.split.mid"; "wal.tc.force.mid";
      "tc.recover.mid" ]

let suite =
  [
    Alcotest.test_case "small fixed-seed soak is violation-free" `Quick
      test_small_soak;
    Alcotest.test_case "cycles are reproducible from the seed" `Quick
      test_reproducible;
    Alcotest.test_case "lossy workload completes via resend" `Quick
      test_lossy_resend_completes;
    Alcotest.test_case "corrupting wire stays exactly-once" `Quick
      test_corrupting_wire;
    Alcotest.test_case "trace dump reconstructs per-op timelines" `Quick
      test_trace_reconstructs;
    Alcotest.test_case "crash cycle under corruption" `Quick
      test_crash_cycle_under_corruption;
    Alcotest.test_case "plan sweep covers the required points" `Quick
      test_plan_sweep_covers_required_points;
    Alcotest.test_case "partitioned crash cycles are violation-free" `Quick
      test_partitioned_cycles;
    Alcotest.test_case "partitioned cycles are reproducible" `Quick
      test_partitioned_reproducible;
    Alcotest.test_case "redo-window watermark race stays fixed" `Quick
      test_redo_window_watermark_race;
  ]
