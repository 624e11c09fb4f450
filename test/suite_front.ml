(* The M-TC × N-DC session front end, and the single-TC assumptions
   this PR removed: round-robin dispatch, pipelined FIFO sessions,
   typed-overload admission control, cross-session group-commit
   batching, wire-level TC misattribution guards, the two-TCs-racing-a-
   checkpoint regression, Section 6.2.2 read-committed sharing, the
   multi-TC read_as_of probe, and the TC-kill-under-load chaos cycle. *)

module Deploy = Untx_cloud.Deploy
module Front = Untx_front.Front
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Repl = Untx_repl.Repl
module Cache = Untx_storage.Cache
module Disk = Untx_storage.Disk
module Audit = Untx_audit.Audit
module Chaos = Untx_audit.Chaos

let ok = Helpers.ok

(* Two TCs over [parts] shared DCs; each TC gets its own table spread
   over every DC (the Section 6 disjoint-updaters rule). *)
let mtc_deploy ?counters ?(parts = 2) () =
  let d = Deploy.create ?counters () in
  let tc1 = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let tc2 = Deploy.add_tc d ~name:"tc2" (Tc.default_config (Tc_id.of_int 2)) in
  let dcs = List.init parts (Printf.sprintf "dc%d") in
  List.iter (fun n -> ignore (Deploy.add_dc d ~name:n Dc.default_config)) dcs;
  Deploy.add_partitioned_table d ~name:"t1" ~versioned:false ~dcs ();
  Deploy.add_partitioned_table d ~name:"t2" ~versioned:false ~dcs ();
  (d, tc1, tc2)

let commit_one tc = Helpers.upsert (Untx_kernel.Engine.of_tc tc)

let fill tc ~table ?(prefix = "k") ?(value = "v") n =
  List.iter
    (fun i ->
      commit_one tc ~table ~key:(Printf.sprintf "%s%03d" prefix i) ~value)
    (List.init n Fun.id)

let ticket = function
  | `Ticket k -> k
  | `Overloaded r -> Alcotest.fail ("unexpected shed: " ^ r)

let done_result front k =
  match Front.poll front k with
  | `Done r -> r
  | `Pending -> Alcotest.fail "ticket still pending after drain"

(* --- dispatch ---------------------------------------------------------- *)

let test_dispatch_round_robin () =
  let d, _, _ = mtc_deploy () in
  let front = Front.create d in
  let tcs =
    List.init 5 (fun _ -> Front.session_tc (Front.open_session front))
  in
  Alcotest.(check (list string)) "round-robin over name-sorted TCs"
    [ "tc1"; "tc2"; "tc1"; "tc2"; "tc1" ]
    tcs;
  Alcotest.(check int) "sessions counted" 5 (Front.sessions front)

(* --- pipelined FIFO sessions ------------------------------------------ *)

let test_pipelined_fifo () =
  let counters = Instrument.create () in
  let d, _, _ = mtc_deploy ~counters () in
  let front = Front.create ~counters d in
  let s = Front.open_session front in
  let table = if Front.session_tc s = "tc1" then "t1" else "t2" in
  (* three pipelined transactions, the later ones reading what the
     earlier ones wrote — FIFO order is what makes the reads coherent *)
  let k1 =
    ticket (Front.submit front s [ Front.Insert { table; key = "a"; value = "1" } ])
  in
  let k2 =
    ticket
      (Front.submit front s
         [
           Front.Read { table; key = "a" };
           Front.Update { table; key = "a"; value = "2" };
         ])
  in
  let k3 = ticket (Front.submit front s [ Front.Read { table; key = "a" } ]) in
  Alcotest.(check int) "three queued" 3 (Front.pending front);
  Front.drain front;
  Alcotest.(check int) "none queued" 0 (Front.pending front);
  (match done_result front k1 with
  | Front.Committed [] -> ()
  | _ -> Alcotest.fail "txn 1 should commit with no reads");
  (match done_result front k2 with
  | Front.Committed [ Some "1" ] -> ()
  | _ -> Alcotest.fail "txn 2 must read txn 1's write");
  (match done_result front k3 with
  | Front.Committed [ Some "2" ] -> ()
  | _ -> Alcotest.fail "txn 3 must read txn 2's write");
  Alcotest.(check int) "all admissions counted" 3
    (Instrument.get counters "front.admitted");
  Alcotest.(check bool) "a consumed ticket cannot be re-polled" true
    (try
       ignore (Front.poll front k1);
       false
     with Invalid_argument _ -> true)

(* --- admission control ------------------------------------------------- *)

let test_backpressure_sheds_typed () =
  let counters = Instrument.create () in
  let d, _, _ = mtc_deploy ~counters () in
  let front =
    Front.create ~counters
      ~cfg:{ Front.max_sessions = 2; session_queue = 2; total_queue = 3 ;
             batch = 1 }
      d
  in
  let s1 = Front.open_session front in
  let s2 = Front.open_session front in
  Alcotest.(check bool) "third session refused, typed" true
    (try
       ignore (Front.open_session front);
       false
     with Front.Overloaded _ -> true);
  let tx table i =
    [ Front.Insert { table; key = Printf.sprintf "k%d" i; value = "v" } ]
  in
  ignore (ticket (Front.submit front s1 (tx "t1" 0)));
  ignore (ticket (Front.submit front s1 (tx "t1" 1)));
  (match Front.submit front s1 (tx "t1" 2) with
  | `Overloaded _ -> ()
  | `Ticket _ -> Alcotest.fail "session queue bound ignored");
  ignore (ticket (Front.submit front s2 (tx "t2" 0)));
  (* total_queue = 3 is now full; the OTHER session's queue has room,
     but the global bound must still refuse *)
  (match Front.submit front s2 (tx "t2" 1) with
  | `Overloaded _ -> ()
  | `Ticket _ -> Alcotest.fail "total queue bound ignored");
  Alcotest.(check int) "admissions" 3 (Instrument.get counters "front.admitted");
  Alcotest.(check int) "sheds (session + open + total)" 3
    (Instrument.get counters "front.shed");
  (* shed is refusal, not a stall: pumping frees space and the same
     submission then goes through *)
  ignore (Front.pump ~budget:2 front);
  ignore (ticket (Front.submit front s1 (tx "t1" 2)));
  Front.drain front;
  Alcotest.(check int) "queue drained" 0 (Front.pending front)

(* --- group-commit batching across sessions ---------------------------- *)

let test_group_commit_batches () =
  let counters = Instrument.create () in
  let d, tc1, _ = mtc_deploy ~counters () in
  let front =
    Front.create ~counters
      ~cfg:{ Front.max_sessions = 4; session_queue = 8; total_queue = 32;
             batch = 4 }
      d
  in
  Alcotest.(check int) "batch size installed on the TCs" 4
    (Tc.group_commit tc1);
  (* two sessions share tc1 (sids 0 and 2): their commits land in the
     same TC's batch *)
  let s0 = Front.open_session front in
  let _s1 = Front.open_session front in
  let s2 = Front.open_session front in
  Alcotest.(check string) "s0 and s2 share tc1" (Front.session_tc s0)
    (Front.session_tc s2);
  let submit s i =
    ignore
      (ticket
         (Front.submit front s
            [ Front.Insert
                { table = "t1"; key = Printf.sprintf "b%d" i; value = "v" } ]))
  in
  List.iter (fun i -> submit (if i mod 2 = 0 then s0 else s2) i)
    (List.init 8 Fun.id);
  let forces_before = Tc.log_forces tc1 in
  ignore (Front.pump front);
  (* 8 commits at batch 4: two forces, six commits rode open batches *)
  Alcotest.(check int) "two group forces" 2 (Tc.log_forces tc1 - forces_before);
  Alcotest.(check int) "six batched commits" 6
    (Instrument.get counters "front.batched");
  (* the tail of the last batch is only durable after flush *)
  let stable_before = Tc.stable_lsn tc1 in
  Front.flush front;
  Alcotest.(check bool) "flush is a no-op on a closed batch" true
    (Lsn.to_int (Tc.stable_lsn tc1) >= Lsn.to_int stable_before);
  Alcotest.(check int) "everything stable after flush"
    (Lsn.to_int (Tc.last_lsn tc1))
    (Lsn.to_int (Tc.stable_lsn tc1))

(* --- wire-level misattribution guards --------------------------------- *)

let test_misattributed_frames_rejected () =
  let counters = Instrument.create () in
  let dc = Dc.create ~counters Dc.default_config in
  Dc.create_table dc ~name:"t" ~versioned:false;
  let wrong = Tc_id.of_int 2 and expect = Tc_id.of_int 1 in
  let req =
    Wire.encode_request
      (Wire.Request
         {
           Wire.tc = wrong;
           lsn = Lsn.of_int 1;
           part = 0;
           op = Op.Insert { table = "t"; key = "k"; value = "v" };
         })
  in
  (match Dc.handle_request_frame ~expect dc req with
  | Some reply -> (
    let r =
      match Wire.decode_reply reply with
      | Wire.Reply r -> r
      | Wire.Redo_batch_reply _ -> Alcotest.fail "a single request's reply"
    in
    Alcotest.(check int) "refusal echoes the frame's own tc"
      (Tc_id.to_int wrong)
      (Tc_id.to_int r.Wire.tc);
    match r.Wire.result with
    | Wire.Failed m ->
      Alcotest.(check bool) "loud refusal names the misattribution" true
        (String.length m >= 13 && String.sub m 0 13 = "misattributed")
    | _ -> Alcotest.fail "misattributed request must fail")
  | None -> Alcotest.fail "misattributed request must be answered loudly");
  Alcotest.(check bool) "the operation was NOT applied" true
    (Dc.dump_table dc "t" = []);
  (* control frames from the wrong TC are dropped (the sender's resend
     budget turns silence into a loud timeout) *)
  let ctl =
    Wire.encode_control
      {
        Wire.c_epoch = 1;
        c_seq = 1;
        c_ctl =
          Wire.Watermarks { tc = wrong; eosl = Lsn.zero; lwm = Lsn.of_int 5 };
      }
  in
  (match Dc.handle_control_frame ~expect dc ctl with
  | None -> ()
  | Some _ -> Alcotest.fail "misattributed control frame must be dropped");
  Alcotest.(check int) "both rejections counted" 2
    (Instrument.get counters "dc.misattributed");
  Alcotest.(check int) "wrong TC's watermark slot untouched" 0
    (Lsn.to_int (Dc.lwm_of dc wrong))

(* --- satellite 1: two TCs racing a checkpoint on a shared DC ---------- *)

let test_checkpoint_race_two_tcs () =
  let counters = Instrument.create () in
  let d, tc1, tc2 = mtc_deploy ~counters ~parts:1 () in
  fill tc1 ~table:"t1" 12;
  fill tc2 ~table:"t2" 12;
  Deploy.quiesce d;
  (* tc2 enters the race with real exposure: unforced batched commits
     (volatile log tail) and an open transaction with dispatched,
     uncommitted writes *)
  Tc.set_group_commit tc2 8;
  fill tc2 ~table:"t2" ~prefix:"late" 3;
  let open_txn = Tc.begin_txn tc2 in
  ok (Tc.update tc2 open_txn ~table:"t2" ~key:"late000" ~value:"open");
  Tc.quiesce tc2;
  let rssp2_before = Lsn.to_int (Tc.rssp tc2) in
  (* tc1's checkpoint is granted while tc2 is exposed *)
  Dc.flush_all (Deploy.dc d "dc0");
  let rec grant tries =
    if Tc.checkpoint tc1 then ()
    else if tries > 0 then begin
      Tc.quiesce tc1;
      Dc.flush_all (Deploy.dc d "dc0");
      grant (tries - 1)
    end
    else Alcotest.fail "tc1's checkpoint never granted"
  in
  grant 4;
  (* THE regression: tc1's granted checkpoint must not have advanced
     tc2's redo-scan start point — tc2's undispatched and in-flight
     watermarks are its own *)
  Alcotest.(check int) "tc2's redo-scan start point untouched" rssp2_before
    (Lsn.to_int (Tc.rssp tc2));
  ok (Tc.commit tc2 open_txn);
  Tc.force_log tc2;
  Deploy.quiesce d;
  (* the DC dies: redo runs from EVERY TC's own scan start point.  If
     tc1's truncation had covered tc2's suffix, tc2's rows would vanish
     here. *)
  Deploy.crash_dc d "dc0";
  List.iter
    (fun i ->
      let key = Printf.sprintf "k%03d" i in
      Alcotest.(check (option string))
        ("t1/" ^ key ^ " survives") (Some "v")
        (Tc.read_committed tc1 ~table:"t1" ~key);
      Alcotest.(check (option string))
        ("t2/" ^ key ^ " survives") (Some "v")
        (Tc.read_committed tc2 ~table:"t2" ~key))
    (List.init 12 Fun.id);
  Alcotest.(check (option string)) "tc2's racing update survives"
    (Some "open")
    (Tc.read_committed tc2 ~table:"t2" ~key:"late000");
  (* the watermark invariants hold at quiesced points: force both TCs
     so the restarted DC has heard fresh EOSL claims *)
  Tc.force_log tc1;
  Tc.force_log tc2;
  Deploy.quiesce d;
  Alcotest.(check (list string)) "no cross-TC watermark violations" []
    (Audit.check_watermarks d);
  (* and a deployment-wide round completes for both TCs *)
  Dc.flush_all (Deploy.dc d "dc0");
  Alcotest.(check bool) "checkpoint_all granted for every TC" true
    (Deploy.checkpoint_all d)

(* --- satellite 4: Section 6.2.2 read-committed sharing ----------------- *)

let test_read_committed_across_tcs () =
  let d = Deploy.create () in
  ignore (Deploy.add_dc d ~name:"dc1" Dc.default_config);
  Deploy.create_table d ~dc:"dc1" ~name:"shared" ~versioned:true;
  let owner = Deploy.add_tc d ~name:"w" (Tc.default_config (Tc_id.of_int 1)) in
  let reader = Deploy.add_tc d ~name:"r" (Tc.default_config (Tc_id.of_int 2)) in
  Tc.map_table owner ~table:"shared" ~dc:"dc1" ~versioned:true;
  Tc.map_table reader ~table:"shared" ~dc:"dc1" ~versioned:true;
  let txn0 = Tc.begin_txn owner in
  ok (Tc.insert owner txn0 ~table:"shared" ~key:"x" ~value:"committed-1");
  ok (Tc.commit owner txn0);
  (* the owner TC holds write locks: open transaction, update applied
     at the DC as an uncommitted after-version *)
  let txn = Tc.begin_txn owner in
  ok (Tc.update owner txn ~table:"shared" ~key:"x" ~value:"uncommitted-2");
  Tc.quiesce owner;
  Alcotest.(check bool) "owner still holds the write lock" true
    (Tc.is_active txn);
  (* the second TC reads the very key the owner has locked — lock-free:
     read-committed sees the before-version, dirty sees the in-flight
     value, and neither ever returns `Blocked (the calls return plain
     options; blocking is impossible by construction) *)
  Alcotest.(check (option string)) "read-committed sees the before-version"
    (Some "committed-1")
    (Tc.read_committed reader ~table:"shared" ~key:"x");
  Alcotest.(check (option string)) "dirty read sees the in-flight value"
    (Some "uncommitted-2")
    (Tc.read_dirty reader ~table:"shared" ~key:"x");
  Alcotest.(check bool) "reading did not disturb the owner's lock" true
    (Tc.is_active txn);
  ok (Tc.commit owner txn);
  Tc.quiesce owner;
  Alcotest.(check (option string)) "after commit both modes converge"
    (Some "uncommitted-2")
    (Tc.read_committed reader ~table:"shared" ~key:"x")

(* --- multi-TC read_as_of (disjoint-writer history probe) -------------- *)

let test_read_as_of_multi_tc () =
  let d = Deploy.create ~layers:true () in
  let tc1 = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let tc2 = Deploy.add_tc d ~name:"tc2" (Tc.default_config (Tc_id.of_int 2)) in
  ignore (Deploy.add_dc d ~name:"dc0" Dc.default_config);
  Deploy.add_partitioned_table d ~name:"t1" ~versioned:false ~dcs:[ "dc0" ] ();
  Deploy.add_partitioned_table d ~name:"t2" ~versioned:false ~dcs:[ "dc0" ] ();
  let stamp tc =
    Deploy.quiesce d;
    Tc.force_log tc;
    Tc.stable_lsn tc
  in
  commit_one tc1 ~table:"t1" ~key:"a" ~value:"old1";
  let at1 = stamp tc1 in
  commit_one tc2 ~table:"t2" ~key:"b" ~value:"old2";
  let at2 = stamp tc2 in
  commit_one tc1 ~table:"t1" ~key:"a" ~value:"new1";
  commit_one tc2 ~table:"t2" ~key:"b" ~value:"new2";
  Deploy.quiesce d;
  (* both TCs' histories hang off the SAME DC; the probe must find each
     key's history in its own writer's store — at per-TC LSNs *)
  Alcotest.(check (option string)) "tc1's key at tc1's LSN" (Some "old1")
    (Deploy.read_as_of d ~table:"t1" ~key:"a" ~at:at1);
  Alcotest.(check (option string)) "tc2's key at tc2's LSN" (Some "old2")
    (Deploy.read_as_of d ~table:"t2" ~key:"b" ~at:at2);
  Alcotest.(check (option string)) "a key the other TC never wrote" None
    (Deploy.read_as_of d ~table:"t2" ~key:"a" ~at:at2)

(* An unpartitioned table on one DC of a two-TC deployment: the read
   probes the layer stores, so it needs no TC to route by. *)
let test_read_as_of_plain_table () =
  let d = Deploy.create ~layers:true () in
  let tc1 = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  ignore (Deploy.add_tc d ~name:"tc2" (Tc.default_config (Tc_id.of_int 2)));
  ignore (Deploy.add_dc d ~name:"dc0" Dc.default_config);
  ignore (Deploy.add_dc d ~name:"dc1" Dc.default_config);
  Deploy.create_table d ~dc:"dc1" ~name:"plain" ~versioned:false;
  Tc.map_table tc1 ~table:"plain" ~dc:"dc1" ~versioned:false;
  commit_one tc1 ~table:"plain" ~key:"a" ~value:"old";
  Deploy.quiesce d;
  Tc.force_log tc1;
  let at = Tc.stable_lsn tc1 in
  commit_one tc1 ~table:"plain" ~key:"a" ~value:"new";
  Deploy.quiesce d;
  Alcotest.(check (option string)) "the value at the stamp" (Some "old")
    (Deploy.read_as_of d ~table:"plain" ~key:"a" ~at)

(* --- TC-kill-under-load chaos acceptance ------------------------------- *)

let test_tc_kill_under_load () =
  List.iter
    (fun (label, plan) ->
      List.iter
        (fun seed ->
          let c =
            Chaos.run_cycle ~shape:(Front 2) ~label ~plan ~seed ~txns:24 ()
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed %d: no violations" label seed)
            [] c.Chaos.c_violations;
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: exactly one kill" label seed)
            1 c.Chaos.c_crashes;
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: front admitted work" label seed)
            true
            (List.assoc_opt "front.admitted" c.Chaos.c_counters
             <> Some 0
            && List.assoc_opt "front.admitted" c.Chaos.c_counters <> None))
        [ 3; 8 ])
    (Chaos.plans (Front 2))

(* --- counter cells ------------------------------------------------------ *)

(* The counters bumped per page, per frame or per operation, each a cell
   its component resolves once at create. *)
let cell_counters =
  [
    "cache.flushes";
    "cache.flush_stalls";
    "cache.evict_scan_steps";
    "cache.evict_skips";
    "cache.evictions";
    "cache.misses";
    "disk.page_reads";
    "disk.page_writes";
    "wal.forces";
    "dc.meta_bytes_flushed";
    "dc.smo_splits";
    "dc.out_of_order_arrivals";
    "dc.classical_test_would_lie";
    "repl.standby_ops";
    "repl.standby_batches";
    "repl.ships";
    "repl.ship_bytes";
    "repl.acks";
    "front.admitted";
    "front.batched";
    "layer.ingest_ops";
    "tc.lock_waits";
  ]

(* front_ingest in small: two TCs behind a front, two DCs with a standby
   each under [Quorum 1], layers, 8-page caches. *)
let ingest_deploy counters =
  let d =
    Deploy.create ~counters ~durability:(Repl.Quorum 1) ~layers:true ~seed:5 ()
  in
  List.iter
    (fun (name, id) ->
      ignore (Deploy.add_tc d ~name (Tc.default_config (Tc_id.of_int id))))
    [ ("tc1", 1); ("tc2", 2) ];
  let dcs = [ "dc0"; "dc1" ] in
  List.iter
    (fun name ->
      ignore
        (Deploy.add_dc d ~name
           { Dc.default_config with page_capacity = 256; cache_pages = 8 }))
    dcs;
  List.iter
    (fun name ->
      Deploy.add_partitioned_table d ~replicas:1 ~name ~versioned:false ~dcs ())
    [ "t1"; "t2" ];
  (d, Front.create ~counters ~cfg:{ Front.default_config with batch = 4 } d)

(* Each cell lands in the registry its deployment was built with: the
   counts equal the components' own tallies, and neither an idle
   deployment's registry nor the process-wide one sees any of them. *)
let test_counter_cells () =
  let global_before = List.map (Instrument.get Instrument.global) cell_counters in
  let counters = Instrument.create () and idle = Instrument.create () in
  let d, front = ingest_deploy counters in
  ignore (ingest_deploy idle);
  let idle_before = Instrument.snapshot idle in
  let sessions = Array.init 4 (fun _ -> Front.open_session front) in
  let txns = 600 in
  for i = 0 to txns - 1 do
    let s = sessions.(i mod 4) in
    let table = if Front.session_tc s = "tc1" then "t1" else "t2" in
    ignore
      (ticket
         (Front.submit front s
            [
              Front.Insert
                {
                  table;
                  key = Printf.sprintf "k%05d" i;
                  value = String.make 24 'v';
                };
            ]));
    if i mod 16 = 15 then Front.drain front
  done;
  Front.drain front;
  Deploy.settle_replicas d;
  let dcs =
    List.concat_map
      (fun name ->
        Deploy.dc d name
        :: List.map
             (fun sb -> Repl.Standby.dc (Deploy.standby d sb))
             (Deploy.replicas d ~dc:name))
      (Deploy.dc_names d)
  in
  let tcs = List.map (Deploy.tc d) (Deploy.tc_names d) in
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let got = Instrument.get counters in
  List.iter
    (fun (name, tally) -> Alcotest.(check int) name tally (got name))
    [
      ("cache.evictions", sum (fun dc -> Cache.evictions (Dc.cache dc)) dcs);
      ( "cache.flush_stalls",
        sum (fun dc -> Cache.flush_stalls (Dc.cache dc)) dcs );
      ("disk.page_reads", sum (fun dc -> Disk.reads (Dc.disk dc)) dcs);
      ("disk.page_writes", sum (fun dc -> Disk.writes (Dc.disk dc)) dcs);
      ("wal.forces", sum Tc.log_forces tcs + sum Dc.dc_log_forces dcs);
      ("dc.smo_splits", sum Dc.splits dcs);
      ("front.admitted", txns);
    ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counted") true (got name > 0))
    [
      "cache.evictions"; "cache.flushes"; "cache.evict_scan_steps";
      "cache.misses"; "disk.page_reads"; "disk.page_writes"; "wal.forces";
      "dc.smo_splits"; "dc.meta_bytes_flushed"; "repl.standby_ops";
      "repl.standby_batches";
      "repl.ships"; "repl.ship_bytes"; "repl.acks"; "front.batched";
      "layer.ingest_ops";
    ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ ": a cell from create") true
        (List.mem_assoc name idle_before))
    cell_counters;
  Alcotest.(check (list (pair string int))) "the idle registry saw none of it"
    idle_before (Instrument.snapshot idle);
  Alcotest.(check (list int)) "the process-wide registry saw none of it"
    global_before
    (List.map (Instrument.get Instrument.global) cell_counters)

let suite =
  [
    Alcotest.test_case "dispatch is round-robin" `Quick
      test_dispatch_round_robin;
    Alcotest.test_case "pipelined sessions are FIFO" `Quick test_pipelined_fifo;
    Alcotest.test_case "backpressure sheds with a typed refusal" `Quick
      test_backpressure_sheds_typed;
    Alcotest.test_case "group commit batches across sessions" `Quick
      test_group_commit_batches;
    Alcotest.test_case "misattributed frames are rejected loudly" `Quick
      test_misattributed_frames_rejected;
    Alcotest.test_case "two TCs racing a checkpoint" `Quick
      test_checkpoint_race_two_tcs;
    Alcotest.test_case "read-committed sharing across TCs (6.2.2)" `Quick
      test_read_committed_across_tcs;
    Alcotest.test_case "read_as_of probes per-TC histories" `Quick
      test_read_as_of_multi_tc;
    Alcotest.test_case "read_as_of needs no TC for a one-DC table" `Quick
      test_read_as_of_plain_table;
    Alcotest.test_case "TC kill under load stays clean" `Slow
      test_tc_kill_under_load;
    Alcotest.test_case "counter cells resolve into their registry" `Quick
      test_counter_cells;
  ]
