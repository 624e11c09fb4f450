(* Optimistic concurrency control — the alternative CC method Section
   4.1.1 explicitly permits the TC to choose.  Reads take no locks;
   commit validates observations and applies buffered writes. *)

open Helpers
module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc
module Lsn = Untx_util.Lsn

let table = "kv"

let mk () = make_kernel ~cc_protocol:Tc.Optimistic ()

let test_basic_commit () =
  let k = mk () in
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"a" ~value:"1");
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"b" ~value:"2");
  ok (Tc.commit (Kernel.tc k) txn);
  Alcotest.(check (option string)) "applied" (Some "1") (get k ~table "a");
  Alcotest.(check (option string)) "applied" (Some "2") (get k ~table "b")

let test_read_your_writes () =
  let k = mk () in
  put k ~table "a" "old";
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"a" ~value:"new");
  Alcotest.(check (option string))
    "buffered write visible to own reads" (Some "new")
    (ok (Tc.read (Kernel.tc k) txn ~table ~key:"a"));
  ok (Tc.delete (Kernel.tc k) txn ~table ~key:"a");
  Alcotest.(check (option string))
    "buffered delete visible" None
    (ok (Tc.read (Kernel.tc k) txn ~table ~key:"a"));
  Tc.abort (Kernel.tc k) txn ~reason:"test";
  Alcotest.(check (option string)) "abort discards buffer" (Some "old")
    (get k ~table "a")

let test_validation_failure_on_write () =
  let k = mk () in
  put k ~table "x" "0";
  let t1 = Tc.begin_txn (Kernel.tc k) in
  let v = ok (Tc.read (Kernel.tc k) t1 ~table ~key:"x") in
  Alcotest.(check (option string)) "t1 sees 0" (Some "0") v;
  (* a later transaction changes x and commits first *)
  let t2 = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) t2 ~table ~key:"x" ~value:"99");
  ok (Tc.commit (Kernel.tc k) t2);
  (* t1's write based on the stale read must not commit *)
  ok (Tc.insert (Kernel.tc k) t1 ~table ~key:"derived" ~value:"from-0");
  (match Tc.commit (Kernel.tc k) t1 with
  | `Fail msg ->
    Alcotest.(check string) "validation" "optimistic validation failed" msg
  | _ -> Alcotest.fail "stale read must fail validation");
  Alcotest.(check (option string)) "t2's value stands" (Some "99")
    (get k ~table "x");
  Alcotest.(check (option string)) "t1's write discarded" None
    (get k ~table "derived")

let test_no_conflict_both_commit () =
  let k = mk () in
  put k ~table "x" "0";
  put k ~table "y" "0";
  let t1 = Tc.begin_txn (Kernel.tc k) in
  ignore (ok (Tc.read (Kernel.tc k) t1 ~table ~key:"x"));
  ok (Tc.update (Kernel.tc k) t1 ~table ~key:"x" ~value:"t1");
  let t2 = Tc.begin_txn (Kernel.tc k) in
  ignore (ok (Tc.read (Kernel.tc k) t2 ~table ~key:"y"));
  ok (Tc.update (Kernel.tc k) t2 ~table ~key:"y" ~value:"t2");
  ok (Tc.commit (Kernel.tc k) t2);
  ok (Tc.commit (Kernel.tc k) t1);
  Alcotest.(check (option string)) "x" (Some "t1") (get k ~table "x");
  Alcotest.(check (option string)) "y" (Some "t2") (get k ~table "y")

let test_phantom_detected () =
  let k = mk () in
  for i = 0 to 9 do
    put k ~table (Printf.sprintf "p%02d" i) "v"
  done;
  let t1 = Tc.begin_txn (Kernel.tc k) in
  let rows = ok (Tc.scan (Kernel.tc k) t1 ~table ~from_key:"p" ~limit:100) in
  Alcotest.(check int) "sees 10" 10 (List.length rows);
  (* another transaction inserts into the scanned range *)
  let t2 = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.insert (Kernel.tc k) t2 ~table ~key:"p05x" ~value:"phantom");
  ok (Tc.commit (Kernel.tc k) t2);
  ok (Tc.insert (Kernel.tc k) t1 ~table ~key:"summary" ~value:"count=10");
  (match Tc.commit (Kernel.tc k) t1 with
  | `Fail _ -> ()
  | _ -> Alcotest.fail "phantom must fail validation");
  Alcotest.(check (option string)) "summary discarded" None
    (get k ~table "summary")

let test_occ_survives_crashes () =
  let k = mk () in
  for i = 0 to 29 do
    let txn = Tc.begin_txn (Kernel.tc k) in
    ok (Tc.insert (Kernel.tc k) txn ~table ~key:(Printf.sprintf "c%03d" i) ~value:"v");
    ok (Tc.commit (Kernel.tc k) txn)
  done;
  Kernel.quiesce k;
  Kernel.crash_both k;
  let txn = Tc.begin_txn (Kernel.tc k) in
  let rows = ok (Tc.scan (Kernel.tc k) txn ~table ~from_key:"" ~limit:1000) in
  ok (Tc.commit (Kernel.tc k) txn);
  Alcotest.(check int) "all OCC commits durable" 30 (List.length rows);
  check_wellformed k

let test_read_only_txn_validates () =
  let k = mk () in
  put k ~table "r" "1";
  let t1 = Tc.begin_txn (Kernel.tc k) in
  ignore (ok (Tc.read (Kernel.tc k) t1 ~table ~key:"r"));
  (* no interference: read-only commit succeeds with nothing applied *)
  ok (Tc.commit (Kernel.tc k) t1);
  Alcotest.(check (option string)) "unchanged" (Some "1") (get k ~table "r")

(* Auto-checkpoint counts an optimistic commit once, though the commit
   validates, applies its buffered writes and then recurses into the
   ordinary commit path: counted twice, the first commit would
   checkpoint. *)
let test_occ_auto_checkpoint_counts_once () =
  let cfg = kernel_config ~cc_protocol:Tc.Optimistic () in
  let cfg = { cfg with tc = { cfg.tc with checkpoint_every = 2 } } in
  let k = Kernel.create cfg in
  Kernel.create_table k ~name:table ~versioned:true;
  let tc = Kernel.tc k in
  let read_and_write key =
    let txn = Tc.begin_txn tc in
    Alcotest.(check (option string))
      "absent" None (ok (Tc.read tc txn ~table ~key));
    ok (Tc.insert tc txn ~table ~key ~value:"v");
    ok (Tc.commit tc txn)
  in
  let start = Tc.rssp tc in
  read_and_write "a";
  Alcotest.(check bool) "first commit leaves the rssp" true
    (Lsn.equal (Tc.rssp tc) start);
  read_and_write "b";
  Alcotest.(check bool) "second commit advances it" true
    Lsn.(Tc.rssp tc > start)

let suite =
  [
    Alcotest.test_case "basic commit" `Quick test_basic_commit;
    Alcotest.test_case "read your writes" `Quick test_read_your_writes;
    Alcotest.test_case "stale read fails validation" `Quick
      test_validation_failure_on_write;
    Alcotest.test_case "disjoint txns both commit" `Quick
      test_no_conflict_both_commit;
    Alcotest.test_case "phantom detected" `Quick test_phantom_detected;
    Alcotest.test_case "OCC commits survive crashes" `Quick
      test_occ_survives_crashes;
    Alcotest.test_case "read-only txn" `Quick test_read_only_txn_validates;
    Alcotest.test_case "auto checkpoint counts a commit once" `Quick
      test_occ_auto_checkpoint_counts_once;
  ]
