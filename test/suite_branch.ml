(* Copy-on-write branches: fork-at-LSN semantics, lazy materialization,
   combined-LSN point-in-time reads, crash recovery scoped to the
   branch, fork-point pinning against parent truncation, and the typed
   deletion rules — the unit half of the branch tests. *)

open Helpers
module Deploy = Untx_cloud.Deploy
module Branch = Untx_branch.Branch
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Layer = Untx_layer.Layer
module Repl = Untx_repl.Repl
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument

let layered_deploy ?counters ~parts () =
  let d = Deploy.create ?counters ~layers:true () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let dcs = List.init parts (Printf.sprintf "dc%d") in
  List.iter (fun n -> ignore (Deploy.add_dc d ~name:n Dc.default_config)) dcs;
  Deploy.add_partitioned_table d ~replicas:0 ~name:"t" ~versioned:false ~dcs ();
  (d, tc)

let commit_one tc = upsert (Engine.of_tc tc) ~table:"t"

let fill tc ?(prefix = "k") ?(value = "v") n =
  List.iter
    (fun i -> commit_one tc ~key:(Printf.sprintf "%s%03d" prefix i) ~value)
    (List.init n Fun.id)

let stamp d tc =
  Deploy.quiesce d;
  Tc.force_log tc;
  Tc.stable_lsn tc

(* One committed write through the branch's CoW dispatch path. *)
let br_commit br = upsert (Branch.engine br) ~table:"t"

let br_delete br ~key =
  let module E = (val Branch.engine br) in
  let txn = E.begin_txn () in
  ok (E.delete txn ~table:"t" ~key);
  ok (E.commit txn)

let br_read br ~key =
  let module E = (val Branch.engine br) in
  let txn = E.begin_txn () in
  let v = ok (E.read txn ~table:"t" ~key) in
  ok (E.commit txn);
  v

let test_fork_and_divergence () =
  let counters = Instrument.create () in
  let d, tc = layered_deploy ~counters ~parts:2 () in
  fill tc ~value:"base" 20;
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b1" in
  (* the fork copied nothing: materialization is strictly lazy *)
  Alcotest.(check int) "no records copied at fork" 0
    (Branch.materialized_count br);
  Alcotest.(check int) "fork counted" 1 (Instrument.get counters "branch.creates");
  (* first touch faults the base state in from the parent's layers *)
  Alcotest.(check (option string)) "branch sees pre-fork state" (Some "base")
    (br_read br ~key:"k000");
  Alcotest.(check bool) "materialization happened" true
    (Instrument.get counters "branch.materializations" > 0);
  (* divergence: branch and parent write the same and different keys *)
  br_commit br ~key:"k000" ~value:"branch";
  commit_one tc ~key:"k001" ~value:"parent";
  Alcotest.(check (option string)) "branch write lands" (Some "branch")
    (br_read br ~key:"k000");
  Alcotest.(check (option string)) "post-fork parent write is invisible"
    (Some "base") (br_read br ~key:"k001");
  Alcotest.(check (option string)) "parent never sees branch writes"
    (Some "base")
    (Tc.read_committed tc ~table:"t" ~key:"k000");
  Alcotest.(check (option string)) "parent write lands on the parent"
    (Some "parent")
    (Tc.read_committed tc ~table:"t" ~key:"k001");
  (* a key born on the branch exists nowhere on the parent *)
  let module E = (val Branch.engine br) in
  let txn = E.begin_txn () in
  ok (E.insert txn ~table:"t" ~key:"only-branch" ~value:"x");
  ok (E.commit txn);
  Alcotest.(check (option string)) "branch-born key stays on the branch" None
    (Tc.read_committed tc ~table:"t" ~key:"only-branch")

let test_read_as_of_combined_lsn () =
  let d, tc = layered_deploy ~parts:1 () in
  commit_one tc ~key:"city" ~value:"rome";
  let at_rome = stamp d tc in
  commit_one tc ~key:"city" ~value:"oslo";
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b1" in
  br_commit br ~key:"city" ~value:"bern";
  Branch.quiesce br;
  let durable = Branch.durable br in
  Alcotest.(check bool) "durable above the fork" true Lsn.(fork < durable);
  let rd at = Branch.read_as_of br ~table:"t" ~key:"city" ~at in
  Alcotest.(check (option string)) "at zero" None (rd Lsn.zero);
  Alcotest.(check (option string)) "below fork: parent history" (Some "rome")
    (rd at_rome);
  Alcotest.(check (option string)) "at fork: parent state" (Some "oslo")
    (rd fork);
  Alcotest.(check (option string)) "above fork: branch tier" (Some "bern")
    (rd durable);
  Alcotest.check_raises "beyond branch durable refused, typed"
    (Layer.Beyond_ingested { wanted = Lsn.next durable; ingested = durable })
    (fun () -> ignore (rd (Lsn.next durable)))

let test_unwritten_falls_through_gone_does_not () =
  let d, tc = layered_deploy ~parts:1 () in
  commit_one tc ~key:"a" ~value:"base";
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b1" in
  (* write an unrelated key so the branch tier has history above fork *)
  br_commit br ~key:"z" ~value:"zz";
  Branch.quiesce br;
  let durable = Branch.durable br in
  (* [a] is `Unwritten in the branch tier: the parent-at-fork answers *)
  Alcotest.(check (option string)) "`Unwritten falls through" (Some "base")
    (Branch.read_as_of br ~table:"t" ~key:"a" ~at:durable);
  (* delete [a] on the branch: now `Gone — the parent must NOT answer *)
  br_delete br ~key:"a";
  Branch.quiesce br;
  let durable = Branch.durable br in
  Alcotest.(check (option string)) "`Gone does not resurrect" None
    (Branch.read_as_of br ~table:"t" ~key:"a" ~at:durable);
  Alcotest.(check bool) "lookup_at reports `Gone" true
    (Branch.lookup_at br ~table:"t" ~key:"a" ~at:durable = `Gone);
  (* and the parent still has it *)
  Alcotest.(check (option string)) "parent untouched" (Some "base")
    (Tc.read_committed tc ~table:"t" ~key:"a")

let test_scan_materializes_table () =
  let counters = Instrument.create () in
  let d, tc = layered_deploy ~counters ~parts:2 () in
  fill tc ~value:"base" 8;
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b1" in
  br_commit br ~key:"k003" ~value:"branch";
  br_delete br ~key:"k005";
  let module E = (val Branch.engine br) in
  let txn = E.begin_txn () in
  let rows = ok (E.scan txn ~table:"t" ~from_key:"" ~limit:100) in
  ok (E.commit txn);
  let expected =
    List.init 8 (fun i -> Printf.sprintf "k%03d" i)
    |> List.filter (fun k -> k <> "k005")
    |> List.map (fun k -> (k, if k = "k003" then "branch" else "base"))
  in
  Alcotest.(check (list (pair string string))) "scan merges fork + branch"
    expected
    (List.sort compare rows);
  (* rows_at at the branch head agrees with the scan *)
  Branch.quiesce br;
  Alcotest.(check (list (pair string string))) "rows_at agrees" expected
    (Branch.rows_at br ~table:"t" ~at:(Branch.durable br))

let test_branch_dc_crash_recovery () =
  let d, tc = layered_deploy ~parts:1 () in
  fill tc ~value:"base" 10;
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b1" in
  br_commit br ~key:"k002" ~value:"branch";
  br_commit br ~key:"fresh" ~value:"new";
  (* the branch DC dies and recovers; the parent is never touched *)
  Deploy.crash_branch_dc d "b1";
  Alcotest.(check (option string)) "branch write survives" (Some "branch")
    (br_read br ~key:"k002");
  Alcotest.(check (option string)) "branch-born key survives" (Some "new")
    (br_read br ~key:"fresh");
  Alcotest.(check (option string)) "materialized base survives" (Some "base")
    (br_read br ~key:"k007");
  Alcotest.(check (option string)) "parent still answers" (Some "base")
    (Tc.read_committed tc ~table:"t" ~key:"k002");
  (match Dc.check (Branch.dc br) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("branch DC ill-formed: " ^ e));
  (match Dc.check (Deploy.dc d "dc0") with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("parent DC ill-formed: " ^ e))

let test_pin_protects_fork_from_truncation () =
  let d, tc = layered_deploy ~parts:1 () in
  fill tc ~value:"base" 10;
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b1" in
  let store =
    Option.get (Repl.Manager.layer_store (Deploy.manager d ~tc:"tc1"))
  in
  Alcotest.(check int) "fork pinned" 1 (Layer.pin_count store);
  fill tc ~prefix:"late" ~value:"l" 10;
  Deploy.quiesce d;
  Repl.Manager.compact_layers (Deploy.manager d ~tc:"tc1");
  let head = Tc.stable_lsn tc in
  (* truncation aimed past the fork is clamped at the live branch's pin *)
  ignore (Deploy.truncate_history d ~below:(Lsn.next head));
  Alcotest.(check int) "cut clamped at the fork point" (Lsn.to_int fork)
    (Lsn.to_int (Layer.history_from store));
  Alcotest.(check (option string)) "branch still resolves its fork state"
    (Some "base") (br_read br ~key:"k004");
  Alcotest.(check (option string)) "read_as_of at fork still answers"
    (Some "base")
    (Branch.read_as_of br ~table:"t" ~key:"k004" ~at:fork);
  (* deleting the branch releases the pin; truncation then passes *)
  Deploy.delete_branch d "b1";
  Alcotest.(check int) "pin released" 0 (Layer.pin_count store);
  ignore (Deploy.truncate_history d ~below:(Lsn.next head));
  Alcotest.(check bool) "cut passes the old fork" true
    Lsn.(fork < Layer.history_from store);
  Alcotest.check_raises "history below the cut now refused, typed"
    (Layer.History_truncated
       { wanted = fork; history_from = Layer.history_from store })
    (fun () -> ignore (Deploy.read_as_of d ~table:"t" ~key:"k004" ~at:fork))

let test_delete_rules_and_nesting () =
  let d, tc = layered_deploy ~parts:1 () in
  fill tc ~value:"base" 6;
  let fork = stamp d tc in
  let b1 = Deploy.create_branch d ~from_lsn:fork ~name:"b1" in
  br_commit b1 ~key:"k000" ~value:"b1v";
  Branch.quiesce b1;
  (* fork the branch: the grandchild shares b1's combined history *)
  let d1 = Branch.durable b1 in
  let b2 = Deploy.create_branch d ~from:"b1" ~from_lsn:d1 ~name:"b2" in
  Alcotest.(check (list string)) "children tracked" [ "b2" ]
    (Deploy.branch_children d "b1");
  Alcotest.(check (option string)) "grandchild sees the branch write"
    (Some "b1v") (br_read b2 ~key:"k000");
  Alcotest.(check (option string)) "grandchild sees the root base"
    (Some "base") (br_read b2 ~key:"k003");
  br_commit b2 ~key:"k000" ~value:"b2v";
  Alcotest.(check (option string)) "grandchild diverges" (Some "b2v")
    (br_read b2 ~key:"k000");
  Alcotest.(check (option string)) "middle branch unaffected" (Some "b1v")
    (br_read b1 ~key:"k000");
  (* deleting a parent with live children is the typed refusal *)
  Alcotest.check_raises "delete refused while children live"
    (Deploy.Branch_has_children { parent = "b1"; children = [ "b2" ] })
    (fun () -> Deploy.delete_branch d "b1");
  Deploy.delete_branch d "b2";
  Deploy.delete_branch d "b1";
  Alcotest.(check (list string)) "all gone" [] (Deploy.branch_names d);
  Alcotest.check_raises "operations on a deleted branch refuse"
    (Invalid_argument "Branch: b1 is deleted") (fun () ->
      ignore (br_read b1 ~key:"k000"))

let test_fork_out_of_range () =
  let d, tc = layered_deploy ~parts:1 () in
  fill tc ~value:"base" 3;
  let head = stamp d tc in
  Alcotest.check_raises "fork beyond the watermark refused, typed"
    (Layer.Beyond_ingested { wanted = Lsn.next head; ingested = head })
    (fun () ->
      ignore (Deploy.create_branch d ~from_lsn:(Lsn.next head) ~name:"bx"));
  Alcotest.(check (list string)) "nothing half-created" []
    (Deploy.branch_names d)

let suite =
  [
    Alcotest.test_case "fork and divergence" `Quick test_fork_and_divergence;
    Alcotest.test_case "read_as_of in the combined LSN space" `Quick
      test_read_as_of_combined_lsn;
    Alcotest.test_case "`Unwritten falls through, `Gone does not" `Quick
      test_unwritten_falls_through_gone_does_not;
    Alcotest.test_case "scan materializes the table" `Quick
      test_scan_materializes_table;
    Alcotest.test_case "branch DC crash recovery" `Quick
      test_branch_dc_crash_recovery;
    Alcotest.test_case "fork pin blocks parent truncation" `Quick
      test_pin_protects_fork_from_truncation;
    Alcotest.test_case "deletion rules and nesting" `Quick
      test_delete_rules_and_nesting;
    Alcotest.test_case "fork out of range" `Quick test_fork_out_of_range;
  ]
