(* Paper-fidelity extensions: table locks, group commit, proactive RSSP
   suggestion. *)

open Helpers
module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn

let table = "kv"

let seed_rows k n =
  let txn = Tc.begin_txn (Kernel.tc k) in
  for j = 0 to n - 1 do
    ok
      (Tc.insert (Kernel.tc k) txn ~table
         ~key:(Printf.sprintf "k%04d" j)
         ~value:(Printf.sprintf "v%04d" j))
  done;
  ok (Tc.commit (Kernel.tc k) txn)

let scan_all k =
  let txn = Tc.begin_txn (Kernel.tc k) in
  let rows = ok (Tc.scan (Kernel.tc k) txn ~table ~from_key:"" ~limit:max_int) in
  ok (Tc.commit (Kernel.tc k) txn);
  rows

let test_table_locks_agree () =
  let k = make_kernel ~cc_protocol:Tc.Table_locks () in
  seed_rows k 120;
  Alcotest.(check int) "scan complete" 120 (List.length (scan_all k));
  committed k
    [ (fun txn -> Tc.update (Kernel.tc k) txn ~table ~key:"k0003" ~value:"x") ];
  Alcotest.(check (option string)) "update under table lock" (Some "x")
    (get k ~table "k0003")

let test_table_locks_block_everything () =
  let k = make_kernel ~cc_protocol:Tc.Table_locks () in
  seed_rows k 10;
  let t1 = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) t1 ~table ~key:"k0001" ~value:"a");
  (* any other access to the table blocks: the coarsest protocol *)
  let t2 = Tc.begin_txn (Kernel.tc k) in
  (match Tc.read (Kernel.tc k) t2 ~table ~key:"k0009" with
  | `Blocked -> ()
  | _ -> Alcotest.fail "table lock should block unrelated reads");
  ok (Tc.commit (Kernel.tc k) t1);
  Alcotest.(check (option string))
    "t2 proceeds after release" (Some "v0009")
    (ok (Tc.read (Kernel.tc k) t2 ~table ~key:"k0009"));
  ok (Tc.commit (Kernel.tc k) t2)

let test_group_commit_durability () =
  (* With group size 4, only commits covered by a group force survive a
     TC crash — an explicit trade, and exactly-once still holds. *)
  let k = Kernel.create (kernel_config ()) in
  Tc.set_group_commit (Kernel.tc k) 4;
  Kernel.create_table k ~name:table ~versioned:true;
  for i = 0 to 9 do
    put k ~table (Printf.sprintf "g%02d" i) "v"
  done;
  (* 10 commits, group 4: forces after #4 and #8; 9,10 not yet durable *)
  Kernel.quiesce k;
  Kernel.crash_tc k;
  let n = List.length (scan_all k) in
  Alcotest.(check int) "only group-forced commits survive" 8 n;
  check_wellformed k;
  (* far fewer forces than commits *)
  Alcotest.(check bool) "forces saved" true
    (Tc.log_forces (Kernel.tc k) < 10)

let test_proactive_rssp () =
  let k = make_kernel () in
  seed_rows k 200;
  Kernel.quiesce k;
  let dc = Kernel.dc k in
  let tc_id = Tc_id.of_int 1 in
  let before_flush = Dc.suggested_rssp dc ~tc:tc_id in
  Dc.flush_all dc;
  let after_flush = Dc.suggested_rssp dc ~tc:tc_id in
  Alcotest.(check bool)
    (Printf.sprintf "suggestion advances with flushing (%s -> %s)"
       (Lsn.to_string before_flush) (Lsn.to_string after_flush))
    true
    Lsn.(after_flush >= before_flush);
  (* a checkpoint at the suggestion succeeds immediately *)
  Alcotest.(check bool) "checkpoint at suggestion granted" true
    (Tc.checkpoint (Kernel.tc k));
  Alcotest.(check bool) "rssp actually advanced" true
    Lsn.(Tc.rssp (Kernel.tc k) > Lsn.of_int 1)

let test_group_commit_one_is_default () =
  let k = make_kernel () in
  seed_rows k 10;
  put k ~table "zz" "v";
  Kernel.crash_tc k;
  Alcotest.(check (option string))
    "every commit durable at group size 1" (Some "v") (get k ~table "zz")

let suite =
  [
    Alcotest.test_case "table locks agree" `Quick test_table_locks_agree;
    Alcotest.test_case "table locks block everything" `Quick
      test_table_locks_block_everything;
    Alcotest.test_case "group commit durability trade" `Quick
      test_group_commit_durability;
    Alcotest.test_case "group commit default is per-commit" `Quick
      test_group_commit_one_is_default;
    Alcotest.test_case "proactive RSSP suggestion" `Quick test_proactive_rssp;
  ]

(* --- read-only sharing (Section 6.2.1) -------------------------------- *)

let test_sealed_table () =
  let k = make_kernel () in
  seed_rows k 30;
  Kernel.quiesce k;
  Dc.seal_table (Kernel.dc k) ~name:table;
  (* reads still fine *)
  Alcotest.(check (option string)) "read sealed" (Some "v0003")
    (get k ~table "k0003");
  (* writes rejected *)
  let txn = Tc.begin_txn (Kernel.tc k) in
  (match Tc.insert (Kernel.tc k) txn ~table ~key:"new" ~value:"x" with
  | `Ok () -> (
    (* pipelined: failure surfaces at commit *)
    match Tc.commit (Kernel.tc k) txn with
    | `Fail _ -> ()
    | _ -> Alcotest.fail "write to sealed table must fail")
  | `Fail _ -> Tc.abort (Kernel.tc k) txn ~reason:"expected"
  | `Blocked -> Alcotest.fail "blocked");
  (* the seal survives a DC crash *)
  Kernel.crash_dc k;
  let txn = Tc.begin_txn (Kernel.tc k) in
  (match Tc.insert (Kernel.tc k) txn ~table ~key:"new2" ~value:"x" with
  | `Ok () -> (
    match Tc.commit (Kernel.tc k) txn with
    | `Fail _ -> ()
    | _ -> Alcotest.fail "seal must survive recovery")
  | `Fail _ -> Tc.abort (Kernel.tc k) txn ~reason:"expected"
  | `Blocked -> Alcotest.fail "blocked");
  Alcotest.(check int) "contents intact" 30 (List.length (scan_all k))

let suite =
  suite @ [ Alcotest.test_case "sealed read-only table" `Quick test_sealed_table ]

let test_auto_checkpoint () =
  let cfg = kernel_config () in
  let cfg = { cfg with tc = { cfg.tc with checkpoint_every = 10 } } in
  let k = Kernel.create cfg in
  Kernel.create_table k ~name:table ~versioned:true;
  for i = 0 to 49 do
    put k ~table (Printf.sprintf "a%03d" i) "v"
  done;
  let tc = Kernel.tc k in
  Alcotest.(check bool) "rssp advanced without manual checkpoint" true
    Lsn.(Tc.rssp tc > Lsn.of_int 1);
  (* bounded redo after a crash *)
  Kernel.crash_dc k;
  Alcotest.(check int) "all rows after crash" 50 (List.length (scan_all k))

let suite =
  suite
  @ [ Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint ]
