(* The differential workload bank as tier-1 acceptance: every bank spec
   runs as a [Bank] chaos cycle against its sequential oracle (scripted
   DC/TC crash cycles included) and must report zero violations, the
   cycle's audit (per-table oracle parity over the merged fragments,
   index parity for the index-maintaining specs, the fork laws for the
   branched one) included.  A determinism check pins the whole cycle to
   its seed. *)

module Workload = Untx_workload.Workload
module Chaos = Untx_audit.Chaos

let strings = Alcotest.(list string)

let bank_cycle ?(seed = 0xB0B) (spec : Workload.spec) =
  Chaos.run_cycle ~shape:(Bank spec) ~label:("bank:" ^ spec.w_name) ~plan:[]
    ~seed ~txns:spec.w_txns ()

let counter (c : Chaos.cycle) name =
  Option.value ~default:0 (List.assoc_opt name c.c_counters)

let run_spec_test (spec : Workload.spec) () =
  let c = bank_cycle spec in
  let name = spec.w_name in
  Alcotest.check strings (name ^ ": violations") [] c.c_violations;
  Alcotest.(check bool)
    (name ^ ": at least one crash-recovery cycle")
    true (c.c_crashes >= 1);
  Alcotest.(check bool) (name ^ ": committed transactions") true
    (c.c_committed > 0);
  Alcotest.(check bool)
    (name ^ ": differential checks ran")
    true
    (counter c "workload.checks" > 0);
  (* the cycle's counter snapshot covers the run's own traffic *)
  Alcotest.(check bool)
    (name ^ ": transport deliveries counted")
    true
    (counter c "transport.delivered" > 0)

let test_bank_shape () =
  let bank = Workload.bank () in
  Alcotest.(check bool) "at least five distinct workloads" true
    (List.length bank >= 5);
  let names = List.map (fun s -> s.Workload.w_name) bank in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Workload.w_name ^ " schedules a crash")
        true
        (s.Workload.w_crashes <> []))
    bank;
  Alcotest.(check bool) "both Section 3.1 lock protocols appear" true
    (List.exists (fun s -> s.Workload.w_protocol = Untx_tc.Tc.Key_locks) bank
    && List.exists
         (fun s ->
           match s.Workload.w_protocol with
           | Untx_tc.Tc.Range_locks _ -> true
           | _ -> false)
         bank);
  Alcotest.(check bool) "index-maintaining specs appear" true
    (List.exists (fun s -> s.Workload.w_indexed) bank)

let test_determinism () =
  let spec = Workload.find "indexed_zipf" in
  let c1 = bank_cycle ~seed:99 spec in
  let c2 = bank_cycle ~seed:99 spec in
  Alcotest.(check string) "shape" c1.c_shape c2.c_shape;
  Alcotest.(check string) "label" c1.c_label c2.c_label;
  Alcotest.(check int) "seed" c1.c_seed c2.c_seed;
  Alcotest.(check int) "txns" c1.c_txns c2.c_txns;
  Alcotest.check strings "fired" c1.c_fired c2.c_fired;
  Alcotest.(check int) "crashes" c1.c_crashes c2.c_crashes;
  Alcotest.(check int) "committed" c1.c_committed c2.c_committed;
  Alcotest.(check int) "redelivered" c1.c_redelivered c2.c_redelivered;
  Alcotest.check strings "violations" c1.c_violations c2.c_violations;
  Alcotest.(check (list (pair string int)))
    "counters" c1.c_counters c2.c_counters;
  Alcotest.(check string) "trace" c1.c_trace c2.c_trace

let suite =
  List.map
    (fun (spec : Workload.spec) ->
      Alcotest.test_case ("bank: " ^ spec.w_name) `Quick (run_spec_test spec))
    (Workload.bank ())
  @ [
      Alcotest.test_case "bank shape" `Quick test_bank_shape;
      Alcotest.test_case "seeded determinism" `Quick test_determinism;
    ]
