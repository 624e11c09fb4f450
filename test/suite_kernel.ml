(* End-to-end tests of the assembled unbundled kernel: transactions,
   rollback, and the partial-failure scenarios of Section 5.3. *)

open Helpers
module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Dc = Untx_dc.Dc
module Tc = Untx_tc.Tc

let table = "kv"

let test_crud () =
  let k = make_kernel () in
  put k ~table "a" "1";
  put k ~table "b" "2";
  Alcotest.(check (option string)) "read a" (Some "1") (get k ~table "a");
  Alcotest.(check (option string)) "read b" (Some "2") (get k ~table "b");
  Alcotest.(check (option string)) "read missing" None (get k ~table "zz");
  committed k
    [ (fun txn -> Tc.update (Kernel.tc k) txn ~table ~key:"a" ~value:"1'") ];
  Alcotest.(check (option string)) "updated" (Some "1'") (get k ~table "a");
  committed k [ (fun txn -> Tc.delete (Kernel.tc k) txn ~table ~key:"b") ];
  Alcotest.(check (option string)) "deleted" None (get k ~table "b");
  check_wellformed k

let test_txn_isolation_own_reads () =
  let k = make_kernel () in
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"x" ~value:"v0");
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"x" ~value:"v1");
  Alcotest.(check (option string))
    "own write visible" (Some "v1")
    (ok (Tc.read (Kernel.tc k) txn ~table ~key:"x"));
  ok (Tc.commit (Kernel.tc k) txn);
  Alcotest.(check (option string)) "after commit" (Some "v1") (get k ~table "x")

let test_abort_rolls_back () =
  let k = make_kernel () in
  put k ~table "a" "old";
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"a" ~value:"new");
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"b" ~value:"temp");
  ok (Tc.delete (Kernel.tc k) txn ~table ~key:"a" |> fun _ -> `Ok ());
  Tc.abort (Kernel.tc k) txn ~reason:"user";
  Alcotest.(check (option string)) "a restored" (Some "old") (get k ~table "a");
  Alcotest.(check (option string)) "b gone" None (get k ~table "b");
  check_wellformed k

let test_abort_unversioned () =
  let k = make_kernel ~versioned:false () in
  put k ~table "a" "old";
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"a" ~value:"new");
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"b" ~value:"temp");
  Tc.abort (Kernel.tc k) txn ~reason:"user";
  Alcotest.(check (option string)) "a restored" (Some "old") (get k ~table "a");
  Alcotest.(check (option string)) "b gone" None (get k ~table "b")

let test_duplicate_insert_fails () =
  let k = make_kernel ~versioned:false () in
  put k ~table "a" "1";
  let txn = Tc.begin_txn (Kernel.tc k) in
  let msg = expect_fail (Tc.insert (Kernel.tc k) txn ~table ~key:"a" ~value:"2") in
  Alcotest.(check string) "dup msg" "duplicate key" msg;
  Tc.abort (Kernel.tc k) txn ~reason:"test";
  Alcotest.(check (option string)) "unchanged" (Some "1") (get k ~table "a")

let test_scan () =
  let k = make_kernel () in
  List.iter (fun i -> put k ~table (Printf.sprintf "k%02d" i) (string_of_int i))
    [ 5; 3; 9; 1; 7 ];
  let rows = snapshot k ~table in
  Alcotest.(check (list (pair string string)))
    "sorted scan"
    [ ("k01", "1"); ("k03", "3"); ("k05", "5"); ("k07", "7"); ("k09", "9") ]
    rows;
  let txn = Tc.begin_txn (Kernel.tc k) in
  let some = ok (Tc.scan (Kernel.tc k) txn ~table ~from_key:"k04" ~limit:2) in
  ok (Tc.commit (Kernel.tc k) txn);
  Alcotest.(check (list (pair string string)))
    "bounded scan" [ ("k05", "5"); ("k07", "7") ] some

let populate k n =
  let rec go i =
    if i < n then begin
      let txn = Tc.begin_txn (Kernel.tc k) in
      let hi = min n (i + 50) in
      for j = i to hi - 1 do
        ok
          (Tc.insert (Kernel.tc k) txn ~table
             ~key:(Printf.sprintf "k%05d" j)
             ~value:(Printf.sprintf "v%05d" j))
      done;
      ok (Tc.commit (Kernel.tc k) txn);
      go hi
    end
  in
  go 0

let expected n =
  List.init n (fun j -> (Printf.sprintf "k%05d" j, Printf.sprintf "v%05d" j))

let test_many_records_splits () =
  let k = make_kernel ~page_capacity:256 () in
  populate k 500;
  Alcotest.(check bool) "splits happened" true (Dc.splits (Kernel.dc k) > 0);
  Alcotest.(check (list (pair string string)))
    "all rows" (expected 500) (snapshot k ~table);
  check_wellformed k

let test_deletes_consolidate () =
  let k = make_kernel ~page_capacity:256 ~versioned:false () in
  populate k 400;
  (* Delete most records to trigger page consolidation. *)
  let rec del i =
    if i < 400 then begin
      let txn = Tc.begin_txn (Kernel.tc k) in
      let hi = min 400 (i + 50) in
      for j = i to hi - 1 do
        if j mod 10 <> 0 then
          ok (Tc.delete (Kernel.tc k) txn ~table ~key:(Printf.sprintf "k%05d" j))
      done;
      ok (Tc.commit (Kernel.tc k) txn);
      del hi
    end
  in
  del 0;
  Alcotest.(check bool)
    "consolidations happened" true
    (Dc.consolidations (Kernel.dc k) > 0);
  let rows = snapshot k ~table in
  Alcotest.(check int) "survivors" 40 (List.length rows);
  check_wellformed k

(* --- partial failures ------------------------------------------------ *)

let test_dc_crash_recovery () =
  let k = make_kernel () in
  populate k 300;
  Kernel.crash_dc k;
  check_wellformed k;
  Alcotest.(check (list (pair string string)))
    "all rows after DC crash" (expected 300) (snapshot k ~table);
  (* the kernel still works *)
  put k ~table "post" "crash";
  Alcotest.(check (option string)) "new write" (Some "crash")
    (get k ~table "post")

let populate_more k = put k ~table "zz-extra" "extra"

let test_dc_crash_after_checkpoint () =
  let k = make_kernel () in
  populate k 300;
  Kernel.quiesce k;
  Alcotest.(check bool) "checkpoint granted" true (Tc.checkpoint (Kernel.tc k));
  populate_more k;
  Kernel.crash_dc k;
  check_wellformed k;
  Alcotest.(check (option string))
    "pre-checkpoint row" (Some "v00123")
    (get k ~table "k00123");
  Alcotest.(check (option string))
    "post-checkpoint row" (Some "extra") (get k ~table "zz-extra")


let test_tc_crash_losers_rolled_back () =
  let k = make_kernel () in
  put k ~table "a" "committed";
  (* A transaction that never commits, then the TC crashes. *)
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"a" ~value:"uncommitted");
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"loser" ~value:"x");
  Kernel.quiesce k;
  Kernel.crash_tc k;
  Alcotest.(check (option string))
    "loser update rolled back" (Some "committed") (get k ~table "a");
  Alcotest.(check (option string)) "loser insert gone" None
    (get k ~table "loser");
  check_wellformed k

let test_tc_crash_committed_survive () =
  let k = make_kernel () in
  populate k 120;
  Kernel.crash_tc k;
  Alcotest.(check (list (pair string string)))
    "committed rows survive TC crash" (expected 120) (snapshot k ~table)

let test_tc_crash_draconian () =
  let k = make_kernel ~tc_reset_mode:Dc.Complete () in
  populate k 120;
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"k00005" ~value:"dirty");
  Kernel.quiesce k;
  Kernel.crash_tc k;
  Alcotest.(check (option string))
    "draconian reset keeps committed" (Some "v00005")
    (get k ~table "k00005");
  check_wellformed k

let test_crash_both () =
  let k = make_kernel () in
  populate k 150;
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"k00007" ~value:"dirty");
  Kernel.quiesce k;
  Kernel.crash_both k;
  Alcotest.(check (option string))
    "loser gone after double crash" (Some "v00007")
    (get k ~table "k00007");
  Alcotest.(check (list (pair string string)))
    "all committed rows" (expected 150) (snapshot k ~table)

let test_chaotic_transport () =
  (* Exactly-once under loss, duplication, reordering (E10's property). *)
  let k = make_kernel ~policy:Transport.chaotic ~seed:99 () in
  populate k 200;
  committed k
    [ (fun txn -> Tc.update (Kernel.tc k) txn ~table ~key:"k00050" ~value:"once") ];
  Kernel.quiesce k;
  Alcotest.(check (option string)) "update applied once" (Some "once")
    (get k ~table "k00050");
  let rows = snapshot k ~table in
  Alcotest.(check int) "no phantom duplicates" 200 (List.length rows);
  Alcotest.(check bool) "transport actually dropped/duplicated" true
    (Transport.dropped (Kernel.transport k) > 0
    || Transport.duplicated (Kernel.transport k) > 0);
  check_wellformed k

let suite =
  [
    Alcotest.test_case "crud" `Quick test_crud;
    Alcotest.test_case "own reads" `Quick test_txn_isolation_own_reads;
    Alcotest.test_case "abort rolls back (versioned)" `Quick
      test_abort_rolls_back;
    Alcotest.test_case "abort rolls back (unversioned)" `Quick
      test_abort_unversioned;
    Alcotest.test_case "duplicate insert fails" `Quick
      test_duplicate_insert_fails;
    Alcotest.test_case "scan" `Quick test_scan;
    Alcotest.test_case "splits under load" `Quick test_many_records_splits;
    Alcotest.test_case "deletes consolidate" `Quick test_deletes_consolidate;
    Alcotest.test_case "DC crash recovery" `Quick test_dc_crash_recovery;
    Alcotest.test_case "DC crash after checkpoint" `Quick
      test_dc_crash_after_checkpoint;
    Alcotest.test_case "TC crash rolls back losers" `Quick
      test_tc_crash_losers_rolled_back;
    Alcotest.test_case "TC crash keeps committed" `Quick
      test_tc_crash_committed_survive;
    Alcotest.test_case "TC crash draconian reset" `Quick
      test_tc_crash_draconian;
    Alcotest.test_case "both crash" `Quick test_crash_both;
    Alcotest.test_case "chaotic transport exactly-once" `Quick
      test_chaotic_transport;
  ]
