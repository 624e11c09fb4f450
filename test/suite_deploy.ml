(* Deployment plumbing: linking order, duplicate names, message
   accounting, quiesce, partitioned routing through Deploy. *)

module Deploy = Untx_cloud.Deploy
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Audit = Untx_audit.Audit

let ok = function
  | `Ok v -> v
  | `Blocked -> Alcotest.fail "blocked"
  | `Fail m -> Alcotest.fail m

let test_add_order_irrelevant () =
  (* TC added before its DCs: links are created when DCs arrive *)
  let d = Deploy.create () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  ignore (Deploy.add_dc d ~name:"dc1" Dc.default_config);
  Deploy.create_table d ~dc:"dc1" ~name:"t" ~versioned:true;
  Tc.map_table tc ~table:"t" ~dc:"dc1" ~versioned:true;
  let txn = Tc.begin_txn tc in
  ok (Tc.insert tc txn ~table:"t" ~key:"k" ~value:"v");
  ok (Tc.commit tc txn);
  Alcotest.(check (option string)) "works" (Some "v")
    (Tc.read_committed tc ~table:"t" ~key:"k")

let test_duplicate_names_rejected () =
  let d = Deploy.create () in
  ignore (Deploy.add_dc d ~name:"dc1" Dc.default_config);
  (match Deploy.add_dc d ~name:"dc1" Dc.default_config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate DC accepted");
  ignore (Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)));
  match Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 2)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate TC accepted"

let test_partitioned_routing () =
  let d = Deploy.create () in
  ignore (Deploy.add_dc d ~name:"dc-a" Dc.default_config);
  ignore (Deploy.add_dc d ~name:"dc-b" Dc.default_config);
  Deploy.create_table d ~dc:"dc-a" ~name:"t" ~versioned:true;
  Deploy.create_table d ~dc:"dc-b" ~name:"t" ~versioned:true;
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  Tc.map_table_partitioned tc ~table:"t" ~versioned:true
    ~partition:(fun key -> if key < "m" then "dc-a" else "dc-b");
  let txn = Tc.begin_txn tc in
  ok (Tc.insert tc txn ~table:"t" ~key:"apple" ~value:"1");
  ok (Tc.insert tc txn ~table:"t" ~key:"zebra" ~value:"2");
  ok (Tc.commit tc txn);
  (* each record landed on its own DC *)
  let on dc key =
    List.mem_assoc key
      (List.map (fun (k, r) -> (k, r)) (Dc.dump_table (Deploy.dc d dc) "t"))
  in
  Alcotest.(check bool) "apple on dc-a" true (on "dc-a" "apple");
  Alcotest.(check bool) "apple not on dc-b" false (on "dc-b" "apple");
  Alcotest.(check bool) "zebra on dc-b" true (on "dc-b" "zebra");
  (* cross-partition transaction was atomic under one TC log *)
  Alcotest.(check (option string)) "read apple" (Some "1")
    (Tc.read_committed tc ~table:"t" ~key:"apple");
  Alcotest.(check (option string)) "read zebra" (Some "2")
    (Tc.read_committed tc ~table:"t" ~key:"zebra")

let test_message_accounting () =
  let d = Deploy.create () in
  ignore (Deploy.add_dc d ~name:"dc1" Dc.default_config);
  Deploy.create_table d ~dc:"dc1" ~name:"t" ~versioned:true;
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  Tc.map_table tc ~table:"t" ~dc:"dc1" ~versioned:true;
  let before = Deploy.messages_total d in
  let txn = Tc.begin_txn tc in
  ok (Tc.insert tc txn ~table:"t" ~key:"k" ~value:"v");
  ok (Tc.commit tc txn);
  Deploy.quiesce d;
  Alcotest.(check bool) "messages counted" true
    (Deploy.messages_total d > before)

let test_names_listing () =
  let d = Deploy.create () in
  ignore (Deploy.add_dc d ~name:"dc-z" Dc.default_config);
  ignore (Deploy.add_dc d ~name:"dc-a" Dc.default_config);
  ignore (Deploy.add_tc d ~name:"tc-b" (Tc.default_config (Tc_id.of_int 1)));
  Alcotest.(check (list string)) "dcs sorted" [ "dc-a"; "dc-z" ]
    (Deploy.dc_names d);
  Alcotest.(check (list string)) "tcs" [ "tc-b" ] (Deploy.tc_names d)

(* --- the sharded deployment: one TC over N hash partitions --------- *)

let part_deploy ?counters ?layers ?(dc = Dc.default_config) ~parts () =
  let d = Deploy.create ?counters ?layers () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let dcs = List.init parts (Printf.sprintf "dc%d") in
  List.iter (fun n -> ignore (Deploy.add_dc d ~name:n dc)) dcs;
  Deploy.add_partitioned_table d ~name:"t" ~versioned:false ~dcs ();
  (d, tc)

let commit_one tc ~key ~value =
  let txn = Tc.begin_txn tc in
  (match Tc.update tc txn ~table:"t" ~key ~value with
  | `Ok () -> ()
  | `Blocked -> Alcotest.fail "blocked"
  | `Fail _ -> ok (Tc.insert tc txn ~table:"t" ~key ~value));
  ok (Tc.commit tc txn)

let test_hash_map_placement () =
  (* Every committed record must sit on exactly the DC the static hash
     map owns it to, and a 3-way split of 60 keys must leave no
     partition empty. *)
  let d, tc = part_deploy ~parts:3 () in
  let keys = List.init 60 (Printf.sprintf "k%02d") in
  List.iter (fun key -> commit_one tc ~key ~value:("v-" ^ key)) keys;
  Deploy.quiesce d;
  let parts = Deploy.partitions d ~table:"t" in
  Alcotest.(check (list string)) "partitions in id order"
    [ "dc0"; "dc1"; "dc2" ] parts;
  let holds dc key = List.mem_assoc key (Dc.dump_table (Deploy.dc d dc) "t") in
  List.iter
    (fun key ->
      let owner = Deploy.partition_dc d ~table:"t" ~key in
      List.iter
        (fun dc ->
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s (owner %s)" key dc owner)
            (dc = owner) (holds dc key))
        parts)
    keys;
  List.iter
    (fun dc ->
      Alcotest.(check bool) (dc ^ " non-empty") true
        (Dc.dump_table (Deploy.dc d dc) "t" <> []))
    parts

let test_misrouted_frame_rejected () =
  (* A frame stamped for a different partition must be rejected, never
     silently applied: the TC's map and the deployment disagree. *)
  let counters = Instrument.create () in
  let d, _ = part_deploy ~counters ~parts:2 () in
  let dc = Deploy.dc d "dc0" in
  let req =
    {
      Wire.tc = Tc_id.of_int 1;
      lsn = Lsn.of_int 1;
      part = Dc.part dc + 1;
      op = Op.Insert { table = "t"; key = "stray"; value = "x" };
    }
  in
  let reply = Dc.perform dc req in
  (match reply.Wire.result with
  | Wire.Failed msg ->
    Alcotest.(check bool) "failure names misrouting" true
      (String.length msg >= 9 && String.sub msg 0 9 = "misrouted")
  | _ -> Alcotest.fail "misrouted frame was applied");
  Alcotest.(check int) "counter bumped" 1 (Instrument.get counters "dc.misrouted");
  Alcotest.(check bool) "no state change" false
    (List.mem_assoc "stray" (Dc.dump_table dc "t"))

let test_single_partition_crash_siblings_serve () =
  (* Hard-kill one of three partitions mid-workload: it must recover
     alone via the TC's redo, siblings keep committing throughout, and
     the deployment auditor finds every committed record afterwards. *)
  let d, tc = part_deploy ~parts:3 () in
  let oracle = Hashtbl.create 64 in
  let put key value =
    commit_one tc ~key ~value;
    Hashtbl.replace oracle key value
  in
  List.iter (fun i -> put (Printf.sprintf "a%02d" i) "before") (List.init 30 Fun.id);
  Deploy.crash_dc d "dc1";
  List.iter
    (fun i ->
      put (Printf.sprintf "a%02d" i) "after";
      put (Printf.sprintf "b%02d" i) "after")
    (List.init 30 Fun.id);
  Deploy.quiesce d;
  Hashtbl.iter
    (fun key value ->
      Alcotest.(check (option string)) (key ^ " readable") (Some value)
        (Tc.read_committed tc ~table:"t" ~key))
    oracle;
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let report = Audit.run_deploy d ~tc:"tc1" ~table:"t" ~expected in
  Alcotest.(check (list string)) "audit clean" [] report.Audit.violations

let test_checkpoint_fans_out () =
  (* A checkpoint must be granted by every partition before the TC may
     truncate: after unanimous grant the redo-scan start point has
     advanced past the pre-checkpoint log. *)
  let d, tc = part_deploy ~parts:3 () in
  List.iter
    (fun i -> commit_one tc ~key:(Printf.sprintf "c%02d" i) ~value:"v")
    (List.init 40 Fun.id);
  Deploy.quiesce d;
  let rssp0 = Tc.rssp tc in
  List.iter (fun n -> Dc.flush_all (Deploy.dc d n)) (Deploy.dc_names d);
  let rec grant tries =
    if Tc.checkpoint tc then true
    else if tries = 0 then false
    else begin
      Deploy.quiesce d;
      List.iter (fun n -> Dc.flush_all (Deploy.dc d n)) (Deploy.dc_names d);
      grant (tries - 1)
    end
  in
  Alcotest.(check bool) "every partition granted" true (grant 4);
  Alcotest.(check bool) "redo-scan start point advanced" true
    (Lsn.compare (Tc.rssp tc) rssp0 > 0);
  (* committed state is untouched by the truncation *)
  Alcotest.(check (option string)) "still readable" (Some "v")
    (Tc.read_committed tc ~table:"t" ~key:"c00")

(* --- fault attribution and the omitted ~tc ------------------------ *)

module Fault = Untx_fault.Fault
module Repl = Untx_repl.Repl
module Branch = Untx_branch.Branch

let small_pages =
  { Dc.default_config with page_capacity = 160; cache_pages = 6 }

(* Run [f] under a plan that crashes at the [nth] hit of the mid-split
   point; returns the point that fired. *)
let split_fault ~nth f =
  Fault.arm [ Fault.crash_at "dc.smo.split.mid" nth ];
  match f () with
  | () ->
    Fault.disarm ();
    Alcotest.fail "the split fault never fired"
  | exception Fault.Injected_crash p ->
    Fault.disarm ();
    p

(* The primary splits while it is filled; a replica added afterwards
   replays those splits only when it catches up, so the fault fires
   inside the standby's apply.  [crash_for_point] must crash the
   standby (its volatile applied cursor is gone) and leave the primary
   alone (no TC redo reaches it). *)
let test_standby_fault_crashes_the_standby () =
  let d, tc = part_deploy ~dc:small_pages ~parts:1 () in
  let keys = List.init 60 (Printf.sprintf "k%02d") in
  List.iter (fun key -> commit_one tc ~key ~value:("v-" ^ key)) keys;
  Deploy.quiesce d;
  let sb = Deploy.add_replica d ~dc:"dc0" in
  let applied () =
    Lsn.to_int (Repl.Standby.applied (Deploy.standby d sb) ~tc:(Tc.id tc))
  in
  let before = Deploy.messages_total d in
  let point = split_fault ~nth:15 (fun () -> Deploy.settle_replicas d) in
  Alcotest.(check bool) "the standby applied a batch first" true
    (applied () > 0);
  Deploy.crash_for_point d ~point ~tc:"tc1" ~dc:"dc0";
  Alcotest.(check int) "the standby crashed" 0 (applied ());
  Deploy.quiesce d;
  Alcotest.(check int) "no redo reached the primary" before
    (Deploy.messages_total d);
  let expected = List.map (fun key -> (key, "v-" ^ key)) keys in
  let report = Audit.run_deploy d ~tc:"tc1" ~table:"t" ~expected in
  Alcotest.(check (list string)) "audit clean, standby at parity" []
    report.Audit.violations

(* A fault escaping a branch's DC crashes that DC, not a primary. *)
let test_branch_fault_crashes_the_branch_dc () =
  let counters = Instrument.create () in
  let d, tc = part_deploy ~counters ~layers:true ~dc:small_pages ~parts:1 () in
  List.iter
    (fun i -> commit_one tc ~key:(Printf.sprintf "k%02d" i) ~value:"base")
    (List.init 4 Fun.id);
  Deploy.quiesce d;
  Tc.force_log tc;
  let br = Deploy.create_branch d ~from_lsn:(Tc.stable_lsn tc) ~name:"b" in
  let before = Deploy.messages_total d in
  let point =
    split_fault ~nth:1 (fun () ->
        List.iter
          (fun i ->
            let module E = (val Branch.engine br) in
            let txn = E.begin_txn () in
            ok
              (E.insert txn ~table:"t" ~key:(Printf.sprintf "b%02d" i)
                 ~value:"branch");
            ok (E.commit txn))
          (List.init 60 Fun.id))
  in
  Deploy.crash_for_point d ~point ~tc:"tc1" ~dc:"dc0";
  Alcotest.(check int) "the branch DC crashed" 1
    (Instrument.get counters "branch.dc_crashes");
  Deploy.quiesce d;
  Alcotest.(check int) "no redo reached the primary" before
    (Deploy.messages_total d);
  Alcotest.(check (list string)) "branch audit clean" []
    (Audit.check_branch d ~name:"b" ~table:"t")

let test_omitted_tc_refused_with_several () =
  let d = Deploy.create ~layers:true () in
  ignore (Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)));
  ignore (Deploy.add_tc d ~name:"tc2" (Tc.default_config (Tc_id.of_int 2)));
  ignore (Deploy.add_dc d ~name:"dc0" Dc.default_config);
  Alcotest.check_raises "create_branch"
    (Invalid_argument "Deploy.create_branch: several TCs; pass ~tc") (fun () ->
      ignore (Deploy.create_branch d ~from_lsn:Lsn.zero ~name:"b"));
  Alcotest.check_raises "truncate_history"
    (Invalid_argument "Deploy.truncate_history: several TCs; pass ~tc")
    (fun () -> ignore (Deploy.truncate_history d ~below:Lsn.zero));
  ignore (Deploy.create_branch d ~tc:"tc2" ~from_lsn:Lsn.zero ~name:"b");
  Alcotest.(check (list string)) "a named TC resolves" [ "b" ]
    (Deploy.branch_names d)

let suite =
  [
    Alcotest.test_case "link order irrelevant" `Quick test_add_order_irrelevant;
    Alcotest.test_case "duplicate names rejected" `Quick
      test_duplicate_names_rejected;
    Alcotest.test_case "partitioned routing" `Quick test_partitioned_routing;
    Alcotest.test_case "message accounting" `Quick test_message_accounting;
    Alcotest.test_case "name listing" `Quick test_names_listing;
    Alcotest.test_case "hash map places every record" `Quick
      test_hash_map_placement;
    Alcotest.test_case "misrouted frame rejected" `Quick
      test_misrouted_frame_rejected;
    Alcotest.test_case "single-partition crash, siblings serve" `Quick
      test_single_partition_crash_siblings_serve;
    Alcotest.test_case "checkpoint fans out to every partition" `Quick
      test_checkpoint_fans_out;
    Alcotest.test_case "a standby's fault crashes the standby" `Quick
      test_standby_fault_crashes_the_standby;
    Alcotest.test_case "a branch's fault crashes the branch DC" `Quick
      test_branch_fault_crashes_the_branch_dc;
    Alcotest.test_case "an omitted ~tc is refused with several TCs" `Quick
      test_omitted_tc_refused_with_several;
  ]
