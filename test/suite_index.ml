(* Secondary indexes as logical multi-record operations: entry encoding
   laws, transactional maintenance through the normal TC dispatch path
   (sharded, replicated, multi-TC, crash-recovered), the contract
   boundaries (fail-fast vs commit-time refusal, Fail-means-abort), and
   the scan-vs-SMO crash regression under both Section 3.1 lock
   protocols. *)

module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Deploy = Untx_cloud.Deploy
module Index = Untx_index.Index
module Audit = Untx_audit.Audit
module Fault = Untx_fault.Fault

let ok = Helpers.ok
let expect_fail = Helpers.expect_fail

(* The same extract shapes the workload bank uses: category = value
   prefix up to ':'. *)
let extract_cat ~key:_ ~value =
  match String.index_opt value ':' with
  | Some i -> [ String.sub value 0 i ]
  | None -> []

let extract_len ~key:_ ~value = [ Printf.sprintf "L%d" (String.length value / 8) ]

let table = "items"

let make_deploy ?(parts = 2) ?(replicas = 0) ?(tcs = 1)
    ?(cc_protocol = Tc.Key_locks) ?(versioned = true) ?(page_capacity = 256)
    ?(tables = [ table ]) () =
  let idx = Index.create () in
  let d = Deploy.create ~seed:7 () in
  for i = 1 to tcs do
    ignore
      (Deploy.add_tc d
         ~name:(Printf.sprintf "tc%d" i)
         {
           (Tc.default_config (Tc_id.of_int i)) with
           cc_protocol;
           lwm_every = 4;
         })
  done;
  let dc_names = List.init parts (Printf.sprintf "dc%d") in
  List.iter
    (fun name ->
      ignore
        (Deploy.add_dc d ~name
           {
             Dc.page_capacity;
             cache_pages = 8;
             sync_policy = Dc.Full_ablsn;
             tc_reset_mode = Dc.Selective;
             debug_checks = true;
           }))
    dc_names;
  List.iter
    (fun t ->
      Deploy.add_indexed_table d ~replicas ~idx ~name:t ~versioned
        ~dcs:dc_names
        ~indexes:[ ("by_cat", extract_cat); ("by_len", extract_len) ]
        ())
    tables;
  (d, idx)

let committed tc ops =
  let txn = Tc.begin_txn tc in
  List.iter (fun op -> ok (op txn)) ops;
  ok (Tc.commit tc txn)

let ins idx tc ?(table = table) key value =
  committed tc [ (fun txn -> Index.insert idx tc txn ~table ~key ~value) ]

let upd idx tc ?(table = table) key value =
  committed tc [ (fun txn -> Index.update idx tc txn ~table ~key ~value) ]

let del idx tc ?(table = table) key =
  committed tc [ (fun txn -> Index.delete idx tc txn ~table ~key) ]

let lookup idx tc ?(table = table) index sec =
  let txn = Tc.begin_txn tc in
  let rows = ok (Index.lookup idx tc txn ~table ~index ~sec) in
  ok (Tc.commit tc txn);
  rows

let assert_clean d idx ?(table = table) () =
  match Audit.check_index d ~idx ~table with
  | [] -> ()
  | vs -> Alcotest.fail (String.concat "; " vs)

let pairs = Alcotest.(list (pair string string))
let strings = Alcotest.(list string)

(* --- encoding laws ---------------------------------------------------- *)

let test_entry_roundtrip () =
  List.iter
    (fun (sec, pk) ->
      let e = Index.entry_key ~sec ~pk in
      Alcotest.(check string) "sec" sec (Index.sec_of_entry e);
      Alcotest.(check string) "pk" pk (Index.pk_of_entry e))
    [
      ("a", "k1");
      ("", "k1");
      ("a", "");
      ("c\x00x", "k\x00\x01y");
      ("\x00", "\x00");
      ("c\x00\xff", "\xffk");
    ]

let test_entry_order_groups_secs () =
  (* entries sort first by secondary key, and [prefix sec] captures
     exactly sec's entries even when one sec is a prefix of another or
     embeds NULs *)
  let secs = [ "a"; "ab"; "a\x00"; "b"; "" ] in
  let pks = [ "p"; "q\x00r"; "" ] in
  let entries =
    List.concat_map
      (fun s -> List.map (fun p -> Index.entry_key ~sec:s ~pk:p) pks)
      secs
    |> List.sort String.compare
  in
  List.iter
    (fun sec ->
      let p = Index.prefix ~sec in
      let mine =
        List.filter
          (fun e ->
            String.length e >= String.length p
            && String.sub e 0 (String.length p) = p)
          entries
      in
      Alcotest.check strings
        ("prefix group " ^ String.escaped sec)
        (List.sort String.compare
           (List.map (fun pk -> Index.entry_key ~sec ~pk) pks))
        mine)
    secs

(* --- transactional maintenance --------------------------------------- *)

let test_basic_maintenance () =
  let d, idx = make_deploy () in
  let tc = Deploy.tc d "tc1" in
  ins idx tc "k1" "red:apple";
  ins idx tc "k2" "red:berry";
  ins idx tc "k3" "blue:sky";
  Alcotest.check pairs "red has both"
    [ ("k1", "red:apple"); ("k2", "red:berry") ]
    (lookup idx tc "by_cat" "red");
  upd idx tc "k1" "blue:apple";
  Alcotest.check pairs "k1 moved to blue"
    [ ("k1", "blue:apple"); ("k3", "blue:sky") ]
    (lookup idx tc "by_cat" "blue");
  Alcotest.check pairs "red lost k1" [ ("k2", "red:berry") ]
    (lookup idx tc "by_cat" "red");
  del idx tc "k2";
  Alcotest.check pairs "red now empty" [] (lookup idx tc "by_cat" "red");
  Deploy.quiesce d;
  assert_clean d idx ()

let test_update_same_sec_keeps_entry () =
  let d, idx = make_deploy () in
  let tc = Deploy.tc d "tc1" in
  ins idx tc "k1" "red:one";
  upd idx tc "k1" "red:two";
  Alcotest.check pairs "entry survives in place" [ ("k1", "red:two") ]
    (lookup idx tc "by_cat" "red");
  Deploy.quiesce d;
  assert_clean d idx ()

let test_multi_record_atomicity_on_abort () =
  let d, idx = make_deploy () in
  let tc = Deploy.tc d "tc1" in
  ins idx tc "k1" "red:kept";
  let txn = Tc.begin_txn tc in
  ok (Index.insert idx tc txn ~table ~key:"k2" ~value:"red:doomed");
  ok (Index.update idx tc txn ~table ~key:"k1" ~value:"blue:doomed");
  Tc.abort tc txn ~reason:"test: deliberate";
  Alcotest.check pairs "abort rolled back primary and entries"
    [ ("k1", "red:kept") ]
    (lookup idx tc "by_cat" "red");
  Alcotest.check pairs "no blue leak" [] (lookup idx tc "by_cat" "blue");
  Deploy.quiesce d;
  assert_clean d idx ()

let test_contract_boundaries () =
  (* unversioned: refusals are fail-fast at the op *)
  let d, idx = make_deploy ~versioned:false () in
  let tc = Deploy.tc d "tc1" in
  ins idx tc "k1" "red:v";
  let txn = Tc.begin_txn tc in
  ignore
    (expect_fail (Index.insert idx tc txn ~table ~key:"k1" ~value:"red:dup"));
  Tc.abort tc txn ~reason:"test: contract";
  (* versioned: a duplicate insert pipelines as `Ok and the commit
     refuses *)
  let d2, idx2 = make_deploy ~versioned:true () in
  let tc2 = Deploy.tc d2 "tc1" in
  ins idx2 tc2 "k1" "red:v";
  let txn2 = Tc.begin_txn tc2 in
  ok (Index.insert idx2 tc2 txn2 ~table ~key:"k1" ~value:"red:dup");
  ignore (expect_fail (Tc.commit tc2 txn2));
  (* Index.update of a missing key fails fast even on versioned tables
     (the wrapper reads the old row first) *)
  let txn3 = Tc.begin_txn tc2 in
  ignore
    (expect_fail (Index.update idx2 tc2 txn3 ~table ~key:"nope" ~value:"x:y"));
  Tc.abort tc2 txn3 ~reason:"test: contract";
  (* aborted refusals left no maintenance behind *)
  Deploy.quiesce d;
  Deploy.quiesce d2;
  assert_clean d idx ();
  assert_clean d2 idx2 ()

(* --- sharded, replicated, multi-TC ------------------------------------ *)

let test_sharded_entries_colocate () =
  let d, idx = make_deploy ~parts:3 () in
  let tc = Deploy.tc d "tc1" in
  let oracle = ref [] in
  for i = 0 to 29 do
    let key = Printf.sprintf "k%03d" i in
    let cat = if i mod 5 = 0 then "c\x00odd" else Printf.sprintf "c%d" (i mod 3) in
    let value = Printf.sprintf "%s:v%03d" cat i in
    ins idx tc key value;
    oracle := (key, value) :: !oracle
  done;
  let rows = List.sort compare !oracle in
  List.iter
    (fun cat ->
      let expected =
        List.filter (fun (_, v) -> extract_cat ~key:"" ~value:v = [ cat ]) rows
      in
      Alcotest.check pairs
        ("lookup " ^ String.escaped cat)
        expected
        (lookup idx tc "by_cat" cat);
      (* secondary-hash placement: every entry for one secondary key
         lives on one partition, so the lookup's prefix scan never
         crosses DCs *)
      let itab = Index.index_table ~table ~name:"by_cat" in
      match
        List.map
          (fun (pk, _) ->
            Deploy.partition_dc d ~table:itab
              ~key:(Index.entry_key ~sec:cat ~pk))
          expected
      with
      | [] -> ()
      | owner :: others ->
        List.iter (Alcotest.(check string) "entries colocated" owner) others)
    [ "c0"; "c1"; "c2"; "c\x00odd" ];
  Deploy.quiesce d;
  assert_clean d idx ();
  let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected:rows in
  Alcotest.check strings "audit clean" [] report.Audit.violations

let test_replicated_entries_ship () =
  let d, idx = make_deploy ~replicas:1 () in
  let tc = Deploy.tc d "tc1" in
  for i = 0 to 19 do
    ins idx tc
      (Printf.sprintf "k%03d" i)
      (Printf.sprintf "c%d:v%03d" (i mod 2) i)
  done;
  del idx tc "k003";
  upd idx tc "k004" "c9:moved";
  Deploy.quiesce d;
  let expected =
    List.filter_map
      (fun i ->
        let key = Printf.sprintf "k%03d" i in
        if i = 3 then None
        else if i = 4 then Some (key, "c9:moved")
        else Some (key, Printf.sprintf "c%d:v%03d" (i mod 2) i))
      (List.init 20 Fun.id)
  in
  (* run_deploy's replica pass holds every attached standby's entry
     tables to the primary's logical state *)
  let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected in
  Alcotest.check strings "audit (incl. replica parity) clean" []
    report.Audit.violations;
  assert_clean d idx ()

let test_multi_tc_indexed_tables () =
  let d, idx =
    make_deploy ~tcs:2 ~tables:[ "left"; "right" ] ~parts:2 ()
  in
  let tc1 = Deploy.tc d "tc1" and tc2 = Deploy.tc d "tc2" in
  (* Section 6 disjoint-updaters rule: each TC maintains its own
     indexed table; both route through the shared DCs *)
  ins idx tc1 ~table:"left" "k1" "red:a";
  ins idx tc2 ~table:"right" "k1" "red:b";
  upd idx tc1 ~table:"left" "k1" "blue:a2";
  ins idx tc2 ~table:"right" "k2" "red:c";
  Alcotest.check pairs "left sees its own maintenance"
    [ ("k1", "blue:a2") ]
    (lookup idx tc1 ~table:"left" "by_cat" "blue");
  Alcotest.check pairs "right unaffected by left's updates"
    [ ("k1", "red:b"); ("k2", "red:c") ]
    (lookup idx tc2 ~table:"right" "by_cat" "red");
  (* one TC's crash must not disturb the other TC's indexed table *)
  Deploy.crash_tc d "tc1";
  Alcotest.check pairs "right sails through tc1's crash"
    [ ("k1", "red:b"); ("k2", "red:c") ]
    (lookup idx tc2 ~table:"right" "by_cat" "red");
  Alcotest.check pairs "left recovered with entries intact"
    [ ("k1", "blue:a2") ]
    (lookup idx tc1 ~table:"left" "by_cat" "blue");
  Deploy.quiesce d;
  assert_clean d idx ~table:"left" ();
  assert_clean d idx ~table:"right" ();
  Alcotest.check strings "watermarks clean" [] (Audit.check_watermarks d)

let test_crash_recovery_preserves_parity () =
  List.iter
    (fun versioned ->
      let d, idx = make_deploy ~versioned () in
      let tc = Deploy.tc d "tc1" in
      for i = 0 to 11 do
        ins idx tc
          (Printf.sprintf "k%03d" i)
          (Printf.sprintf "c%d:v%03d" (i mod 3) i)
      done;
      Deploy.crash_dc d "dc0";
      upd idx tc "k001" "c9:after-dc-crash";
      del idx tc "k002";
      Deploy.crash_tc d "tc1";
      ins idx tc "k100" "c9:after-tc-crash";
      Deploy.quiesce d;
      let expected =
        List.filter_map
          (fun i ->
            let key = Printf.sprintf "k%03d" i in
            if i = 1 then Some (key, "c9:after-dc-crash")
            else if i = 2 then None
            else Some (key, Printf.sprintf "c%d:v%03d" (i mod 3) i))
          (List.init 12 Fun.id)
        @ [ ("k100", "c9:after-tc-crash") ]
      in
      Alcotest.check pairs
        (Printf.sprintf "c9 lookup after both crashes (versioned=%b)" versioned)
        [ ("k001", "c9:after-dc-crash"); ("k100", "c9:after-tc-crash") ]
        (lookup idx tc "by_cat" "c9");
      let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected in
      Alcotest.check strings "audit clean" [] report.Audit.violations;
      assert_clean d idx ())
    [ true; false ]

(* --- the scan-vs-SMO regression --------------------------------------- *)

(* A crash mid-split of an entry-table page ("dc.smo.split.mid") while
   an index-maintaining transaction is in flight: after recovery, the
   index lookup's prefix scan must see exactly the committed rows —
   never a half-applied split (rows doubled, lost, or out of order).
   Swept over the first few split instants so the kill lands on primary
   and entry-table SMOs alike, under each Section 3.1 lock protocol. *)
let smo_regression cc_protocol () =
  List.iter
    (fun nth ->
      Fault.disarm ();
      let d, idx = make_deploy ~cc_protocol ~page_capacity:128 () in
      let tc = Deploy.tc d "tc1" in
      let oracle = ref [] in
      let crashed = ref false in
      Fault.arm ~seed:11 [ Fault.crash_at "dc.smo.split.mid" nth ];
      for i = 0 to 39 do
        let key = Printf.sprintf "k%03d" i in
        let value = Printf.sprintf "c%d:payload-%04d" (i mod 3) (i * 37) in
        let txn = Tc.begin_txn tc in
        try
          ok (Index.insert idx tc txn ~table ~key ~value);
          match Tc.commit tc txn with
          | `Ok () -> oracle := (key, value) :: !oracle
          | `Blocked | `Fail _ -> ()
        with Fault.Injected_crash p ->
          crashed := true;
          Deploy.crash_for_point d ~point:p ~tc:"tc1" ~dc:"dc0";
          if Tc.is_active txn then
            Tc.abort tc txn ~reason:"test: rollback after SMO crash";
          (* a crash during commit is ambiguous — probe the row's fate *)
          let probe = Tc.begin_txn tc in
          (match Tc.read tc probe ~table ~key with
          | `Ok (Some v) -> oracle := (key, v) :: !oracle
          | `Ok None | `Blocked | `Fail _ -> ());
          ignore (Tc.commit tc probe)
      done;
      Fault.disarm ();
      Alcotest.(check bool)
        (Printf.sprintf "SMO crash fired (nth=%d)" nth)
        true !crashed;
      Deploy.quiesce d;
      let rows = List.sort compare !oracle in
      List.iter
        (fun cat ->
          let expected =
            List.filter
              (fun (_, v) -> extract_cat ~key:"" ~value:v = [ cat ])
              rows
          in
          Alcotest.check pairs
            (Printf.sprintf "post-recovery lookup %s (nth=%d)" cat nth)
            expected
            (lookup idx tc "by_cat" cat))
        [ "c0"; "c1"; "c2" ];
      let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected:rows in
      Alcotest.check strings "audit clean" [] report.Audit.violations;
      assert_clean d idx ())
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "entry key round-trips" `Quick test_entry_roundtrip;
    Alcotest.test_case "entry order groups secondary keys" `Quick
      test_entry_order_groups_secs;
    Alcotest.test_case "basic maintenance" `Quick test_basic_maintenance;
    Alcotest.test_case "same-sec update keeps entry" `Quick
      test_update_same_sec_keeps_entry;
    Alcotest.test_case "abort rolls back primary and entries" `Quick
      test_multi_record_atomicity_on_abort;
    Alcotest.test_case "contract boundaries" `Quick test_contract_boundaries;
    Alcotest.test_case "sharded entries colocate" `Quick
      test_sharded_entries_colocate;
    Alcotest.test_case "replicated entries ship" `Quick
      test_replicated_entries_ship;
    Alcotest.test_case "multi-TC indexed tables" `Quick
      test_multi_tc_indexed_tables;
    Alcotest.test_case "crash recovery preserves parity" `Quick
      test_crash_recovery_preserves_parity;
    Alcotest.test_case "scan vs SMO crash (key locks)" `Quick
      (smo_regression Tc.Key_locks);
    Alcotest.test_case "scan vs SMO crash (range locks)" `Quick
      (smo_regression (Tc.Range_locks 4));
  ]
