(* The layered log store: L0 ingest, compaction into L1, page@LSN
   reconstruction, crash recovery, and the deployment-level refactors it
   unlocks — truncation past detached laggards, layer-sourced failover
   redo, standby bootstrap from materialized state, point-in-time
   reads. *)

module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Layer = Untx_layer.Layer
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Op = Untx_msg.Op
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Fault = Untx_fault.Fault
module Audit = Untx_audit.Audit

let lsn i = Lsn.of_int i

let ok = Helpers.ok

(* ---- direct store tests ---------------------------------------------- *)

let mk_store ?counters ?l0_seal_ops ?compact_runs () =
  Layer.create ?counters ?l0_seal_ops ?compact_runs ~writer:(Tc_id.of_int 1)
    ~versioned:(fun _ -> false) ()

(* A synthetic stable log: ops numbered from 1, fed through [absorb]'s
   contract (every op in (ingested, upto] in LSN order). *)
let feed ops emit = List.iteri (fun i op -> emit (lsn (i + 1)) op) ops

let ins k v = Op.Insert { table = "t"; key = k; value = v }

let upd k v = Op.Update { table = "t"; key = k; value = v }

let del k = Op.Delete { table = "t"; key = k }

let test_ingest_and_reconstruct () =
  let s = mk_store () in
  let ops = [ ins "a" "a1"; ins "b" "b1"; upd "a" "a2"; del "b" ] in
  Layer.absorb s ~upto:(lsn 4) (feed ops);
  Alcotest.(check int) "ingested" 4 (Lsn.to_int (Layer.ingested_lsn s));
  Alcotest.(check int) "nothing durable yet" 0
    (Lsn.to_int (Layer.durable_lsn s));
  let rd key at = Layer.reconstruct s ~table:"t" ~key ~at:(lsn at) in
  Alcotest.(check (option string)) "a before birth" None (rd "a" 0);
  Alcotest.(check (option string)) "a at insert" (Some "a1") (rd "a" 1);
  Alcotest.(check (option string)) "a before its update" (Some "a1") (rd "a" 2);
  Alcotest.(check (option string)) "a after update" (Some "a2") (rd "a" 3);
  Alcotest.(check (option string)) "b alive" (Some "b1") (rd "b" 3);
  Alcotest.(check (option string)) "b deleted" None (rd "b" 4);
  Alcotest.(check bool) "beyond ingest refused, typed" true
    (try
       ignore (rd "a" 5);
       false
     with Layer.Beyond_ingested { wanted; ingested } ->
       Lsn.to_int wanted = 5 && Lsn.to_int ingested = 4)

let test_compaction_merges_runs () =
  let s = mk_store ~l0_seal_ops:2 ~compact_runs:100 () in
  let ops =
    [ ins "a" "a1"; ins "b" "b1"; upd "a" "a2"; upd "b" "b2"; upd "a" "a3" ]
  in
  Layer.absorb s ~upto:(lsn 5) (feed ops);
  Alcotest.(check int) "sealed at 2 ops each" 3 (Layer.l0_runs s);
  Layer.compact s;
  (* the active (unsealed) run stays in L0; the sealed ones merged *)
  Alcotest.(check int) "one L1 layer" 1 (Layer.l1_layers s);
  Alcotest.(check int) "active run survives" 1 (Layer.l0_runs s);
  Alcotest.(check int) "four entries compacted" 4 (Layer.l1_entries s);
  Alcotest.(check int) "durable covers the sealed prefix" 4
    (Lsn.to_int (Layer.durable_lsn s));
  (* reconstruction spans L0 and L1 transparently *)
  let rd key at = Layer.reconstruct s ~table:"t" ~key ~at:(lsn at) in
  Alcotest.(check (option string)) "from L1" (Some "a2") (rd "a" 3);
  Alcotest.(check (option string)) "from active L0" (Some "a3") (rd "a" 5);
  Layer.compact ~all:true s;
  Alcotest.(check int) "all runs drained" 0 (Layer.l0_runs s);
  Alcotest.(check int) "durable at ingest" 5 (Lsn.to_int (Layer.durable_lsn s));
  Alcotest.(check (option string)) "still answers history" (Some "a1")
    (rd "a" 1)

let test_crash_rebuild_from_l1 () =
  let s = mk_store () in
  let ops = [ ins "a" "a1"; ins "b" "b1"; upd "a" "a2" ] in
  Layer.absorb s ~upto:(lsn 3) (feed ops);
  Layer.compact ~all:true s;
  (* an un-compacted tail on top *)
  let tail = ops @ [ del "b"; upd "a" "a3" ] in
  Layer.absorb s ~upto:(lsn 5) (feed tail);
  Layer.crash s;
  Alcotest.(check int) "ingest falls back to durable" 3
    (Lsn.to_int (Layer.ingested_lsn s));
  Alcotest.(check (option string)) "L1 state survives" (Some "a2")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 3));
  (* the owner re-absorbs the suffix from the (retained) log *)
  Layer.absorb s ~upto:(lsn 5) (feed tail);
  Alcotest.(check (option string)) "tail recovered" (Some "a3")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 5));
  Alcotest.(check (option string)) "delete recovered" None
    (Layer.reconstruct s ~table:"t" ~key:"b" ~at:(lsn 5))

let test_iter_ops_and_current () =
  let s = mk_store () in
  let ops = [ ins "a" "a1"; ins "b" "b1"; upd "a" "a2"; del "b" ] in
  Layer.absorb s ~upto:(lsn 4) (feed ops);
  Layer.compact ~all:true s;
  let seen = ref [] in
  Layer.iter_ops s ~from:(lsn 2) ~upto:(lsn 4) (fun l _ ->
      seen := Lsn.to_int l :: !seen);
  Alcotest.(check (list int)) "ops replayed in order" [ 2; 3; 4 ]
    (List.rev !seen);
  let current = ref [] in
  Layer.iter_current s (fun ~table:_ ~key record ->
      current :=
        (key, Untx_dc.Stored_record.current record) :: !current);
  (* the unversioned delete removed [b] physically, mirroring the DC *)
  Alcotest.(check (list (pair string (option string))))
    "current state"
    [ ("a", Some "a2") ]
    (List.sort compare !current)

let test_compact_mid_crash_is_atomic () =
  let counters = Instrument.create () in
  let s = mk_store ~counters () in
  Layer.absorb s ~upto:(lsn 2) (feed [ ins "a" "a1"; upd "a" "a2" ]);
  Fault.arm [ Fault.crash_at Layer.p_compact_mid 1 ];
  Alcotest.check_raises "compaction dies mid-merge"
    (Fault.Injected_crash "layer.compact.mid") (fun () ->
      Layer.compact ~all:true s);
  Fault.disarm ();
  Alcotest.(check int) "no layer installed" 0 (Layer.l1_layers s);
  Alcotest.(check int) "durable did not move" 0
    (Lsn.to_int (Layer.durable_lsn s));
  Alcotest.(check int) "sealed runs survive for the retry" 1 (Layer.l0_runs s);
  Layer.compact s;
  Alcotest.(check int) "retry lands the layer" 1 (Layer.l1_layers s);
  Alcotest.(check (option string)) "nothing lost" (Some "a2")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 2))

let test_ingest_drop_pins_cursor () =
  let counters = Instrument.create () in
  let s = mk_store ~counters () in
  let ops = [ ins "a" "a1"; ins "b" "b1"; upd "a" "a2" ] in
  Fault.arm [ Fault.io_error_at Layer.p_ingest_drop 2 ];
  Layer.absorb s ~upto:(lsn 3) (feed ops);
  Fault.disarm ();
  Alcotest.(check int) "cursor pinned before the dropped record" 1
    (Lsn.to_int (Layer.ingested_lsn s));
  Alcotest.(check int) "drop counted" 1
    (Instrument.get counters "layer.ingest_dropped");
  Alcotest.(check (option string)) "intact prefix answers" (Some "a1")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 1));
  (* the next absorb re-reads the suffix and completes *)
  Layer.absorb s ~upto:(lsn 3) (feed ops);
  Alcotest.(check int) "suffix recovered" 3 (Lsn.to_int (Layer.ingested_lsn s));
  Alcotest.(check (option string)) "nothing silently lost" (Some "b1")
    (Layer.reconstruct s ~table:"t" ~key:"b" ~at:(lsn 3))

(* ---- deployment-level tests ------------------------------------------ *)

let layered_deploy ?counters ~parts ~replicas () =
  let d = Deploy.create ?counters ~layers:true () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let dcs = List.init parts (Printf.sprintf "dc%d") in
  List.iter (fun n -> ignore (Deploy.add_dc d ~name:n Dc.default_config)) dcs;
  Deploy.add_partitioned_table d ~replicas ~name:"t" ~versioned:false ~dcs ();
  (d, tc)

let commit_one tc = Helpers.upsert (Untx_kernel.Engine.of_tc tc) ~table:"t"

let fill tc ?(prefix = "k") ?(value = "v") n =
  List.iter
    (fun i -> commit_one tc ~key:(Printf.sprintf "%s%03d" prefix i) ~value)
    (List.init n Fun.id)

let grant_checkpoint d tc ~dc:dcn =
  Dc.flush_all (Deploy.dc d dcn);
  let rec grant tries =
    if Tc.checkpoint tc then ()
    else if tries > 0 then begin
      Deploy.quiesce d;
      Dc.flush_all (Deploy.dc d dcn);
      grant (tries - 1)
    end
    else Alcotest.fail "checkpoint never granted"
  in
  grant 4

let test_read_as_of () =
  let counters = Instrument.create () in
  let d, tc = layered_deploy ~counters ~parts:2 ~replicas:0 () in
  let stamp () =
    Deploy.quiesce d;
    Tc.force_log tc;
    Tc.stable_lsn tc
  in
  commit_one tc ~key:"city" ~value:"rome";
  let at_rome = stamp () in
  commit_one tc ~key:"city" ~value:"oslo";
  let at_oslo = stamp () in
  let txn = Tc.begin_txn tc in
  ok (Tc.delete tc txn ~table:"t" ~key:"city");
  ok (Tc.commit tc txn);
  let at_gone = stamp () in
  let rd at = Deploy.read_as_of d ~table:"t" ~key:"city" ~at in
  Alcotest.(check (option string)) "before birth" None (rd Lsn.zero);
  Alcotest.(check (option string)) "first value" (Some "rome") (rd at_rome);
  Alcotest.(check (option string)) "overwritten" (Some "oslo") (rd at_oslo);
  Alcotest.(check (option string)) "deleted" None (rd at_gone);
  Alcotest.(check (option string)) "live read agrees with the present"
    (Tc.read_committed tc ~table:"t" ~key:"city")
    (rd at_gone);
  Alcotest.(check int) "history reads counted" 5
    (Instrument.get counters "deploy.history_reads")

let test_truncation_passes_detached_laggard () =
  let counters = Instrument.create () in
  let d, tc = layered_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  let frozen = Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc) in
  Repl.Manager.detach m ~name:sbn;
  fill tc ~prefix:"late" 40;
  Deploy.quiesce d;
  (* once compaction makes the history durable in layers, the laggard no
     longer pins the log: truncation sails past its frozen cursor *)
  Repl.Manager.compact_layers m;
  grant_checkpoint d tc ~dc:"dc0";
  Alcotest.(check bool) "truncation passed the laggard" true
    Lsn.(Tc.log_retained_from tc > Lsn.next frozen);
  (* and the dormant lease never burns: the laggard stays promotable *)
  Alcotest.(check int) "no lease expiry" 0
    (Instrument.get counters "repl.lease_expirations");
  Alcotest.(check bool) "laggard still eligible via layers" true
    (Repl.Manager.promotion_eligible m ~name:sbn)

let test_failover_redoes_from_layers () =
  let counters = Instrument.create () in
  let d, tc = layered_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  let frozen = Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc) in
  Repl.Manager.detach m ~name:sbn;
  fill tc ~prefix:"gap" 40;
  Deploy.quiesce d;
  Repl.Manager.compact_layers m;
  grant_checkpoint d tc ~dc:"dc0";
  (* the log no longer retains the laggard's gap — only layers do *)
  Alcotest.(check bool) "gap is below the retained head" true
    Lsn.(Lsn.next frozen < Tc.log_retained_from tc);
  Deploy.fail_over d ~dc:"dc0";
  Alcotest.(check bool) "catch-up skipped (log cannot re-ship)" true
    (Instrument.get counters "repl.catchup_skipped" > 0);
  Alcotest.(check bool) "redo sourced below the log head from layers" true
    (Instrument.get counters "tc.redo_from_layers" > 0);
  List.iter
    (fun i ->
      let key = Printf.sprintf "gap%03d" i in
      Alcotest.(check (option string)) (key ^ " survives") (Some "v")
        (Tc.read_committed tc ~table:"t" ~key))
    (List.init 40 Fun.id)

let test_fresh_standby_bootstraps_from_layers () =
  let counters = Instrument.create () in
  let d, tc = layered_deploy ~counters ~parts:1 ~replicas:0 () in
  fill tc 30;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  Repl.Manager.compact_layers m;
  grant_checkpoint d tc ~dc:"dc0";
  Alcotest.(check bool) "history left the log" true
    Lsn.(Tc.log_retained_from tc > Lsn.next Lsn.zero);
  (* a full-redo standby is impossible now; the layer bootstrap installs
     materialized state and adopts the ingest watermark instead *)
  let sbn = Deploy.add_replica d ~dc:"dc0" in
  Alcotest.(check bool) "bootstrap installed records" true
    (Instrument.get counters "repl.bootstrap_installs" >= 30);
  Alcotest.(check (list string)) "attached from birth" [ sbn ]
    (Deploy.attached_replicas d ~dc:"dc0");
  fill tc ~prefix:"post" 10;
  Deploy.quiesce d;
  Deploy.settle_replicas d;
  let sb = Repl.Standby.dc (Deploy.standby d sbn) in
  let primary = Deploy.dc d "dc0" in
  let visible dc =
    List.filter_map
      (fun (k, r) ->
        Untx_dc.Stored_record.current r |> Option.map (fun v -> (k, v)))
      (Dc.dump_table dc "t")
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string))) "standby matches primary"
    (visible primary) (visible sb)

let test_rebuild_replica_recovers () =
  let counters = Instrument.create () in
  let d, tc = layered_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 30;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  Repl.Manager.compact_layers m;
  grant_checkpoint d tc ~dc:"dc0";
  (* the crash forgets its cursors and truncation passed the rejoin
     point, so shipping cannot resume — without layers this was a
     rebuild-required dead end; with them it parks detached,
     recoverable *)
  Deploy.crash_standby d sbn;
  Alcotest.(check bool) "reattach deferred" true
    (Instrument.get counters "repl.reattach_deferred" > 0);
  Alcotest.(check bool) "parked detached" true
    (match Repl.Manager.state_of m ~name:sbn with
    | Repl.Manager.Detached _ -> true
    | Repl.Manager.Attached | Repl.Manager.Rebuild_required -> false);
  let installed = Deploy.rebuild_replica d sbn in
  Alcotest.(check bool) "materialized state installed" true (installed >= 30);
  Alcotest.(check (list string)) "attached again" [ sbn ]
    (Deploy.attached_replicas d ~dc:"dc0");
  fill tc ~prefix:"post" 10;
  Deploy.quiesce d;
  let expected =
    List.init 30 (fun i -> (Printf.sprintf "k%03d" i, "v"))
    @ List.init 10 (fun i -> (Printf.sprintf "post%03d" i, "v"))
    |> List.sort compare
  in
  let report = Audit.run_deploy d ~tc:"tc1" ~table:"t" ~expected in
  Alcotest.(check (list string)) "audit clean" [] report.Audit.violations

(* The oracle check at checkpointed LSNs: snapshot the stable LSN after
   each round of overwrites, then demand that layered reconstruction at
   every snapshot reproduces that round's values — across interleaved
   compactions and log truncation. *)
let test_reconstruction_matches_checkpoints () =
  let d, tc = layered_deploy ~parts:2 ~replicas:1 () in
  let m = Deploy.manager d ~tc:"tc1" in
  let checkpoints = ref [] in
  List.iter
    (fun round ->
      fill tc ~value:(Printf.sprintf "r%d" round) 20;
      Deploy.quiesce d;
      Tc.force_log tc;
      checkpoints := (Tc.stable_lsn tc, Printf.sprintf "r%d" round)
      :: !checkpoints;
      if round mod 2 = 1 then begin
        Repl.Manager.compact_layers m;
        grant_checkpoint d tc ~dc:"dc0"
      end)
    (List.init 4 Fun.id);
  List.iter
    (fun (at, value) ->
      List.iter
        (fun i ->
          let key = Printf.sprintf "k%03d" i in
          Alcotest.(check (option string))
            (Printf.sprintf "%s@%d" key (Lsn.to_int at))
            (Some value)
            (Deploy.read_as_of d ~table:"t" ~key ~at))
        (List.init 20 Fun.id))
    !checkpoints;
  let expected = List.init 20 (fun i -> (Printf.sprintf "k%03d" i, "r3")) in
  let report = Audit.run_deploy d ~tc:"tc1" ~table:"t" ~expected in
  Alcotest.(check (list string)) "audit clean (incl. layer parity)" []
    report.Audit.violations

(* The read_as_of/reconstruct boundary semantics, pinned as regression
   tests at the store level: [at = 0] answers (nothing visible, and
   [`Unwritten], not [`Gone]), [at = durable] answers, one past the
   ingest watermark is the typed refusal naming both sides — never a
   silent [None]. *)
let test_layer_boundaries () =
  let s = mk_store () in
  Layer.absorb s ~upto:(lsn 3) (feed [ ins "a" "a1"; upd "a" "a2"; ins "b" "b1" ]);
  Layer.compact ~all:true s;
  Alcotest.(check (option string)) "reconstruct at zero" None
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:Lsn.zero);
  Alcotest.(check bool) "lookup at zero is `Unwritten" true
    (Layer.lookup s ~table:"t" ~key:"a" ~at:Lsn.zero = `Unwritten);
  Alcotest.(check int) "durable at ingest" 3 (Lsn.to_int (Layer.durable_lsn s));
  Alcotest.(check (option string)) "reconstruct at durable" (Some "a2")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(Layer.durable_lsn s));
  let beyond = Lsn.next (Layer.ingested_lsn s) in
  let refusal =
    Layer.Beyond_ingested { wanted = beyond; ingested = Layer.ingested_lsn s }
  in
  Alcotest.check_raises "reconstruct refuses, typed" refusal (fun () ->
      ignore (Layer.reconstruct s ~table:"t" ~key:"a" ~at:beyond));
  Alcotest.check_raises "lookup refuses, typed" refusal (fun () ->
      ignore (Layer.lookup s ~table:"t" ~key:"a" ~at:beyond));
  Alcotest.check_raises "iter_at refuses, typed" refusal (fun () ->
      Layer.iter_at s ~at:beyond (fun ~table:_ ~key:_ _ -> ()));
  Alcotest.check_raises "pin refuses, typed" refusal (fun () ->
      Layer.pin s ~at:beyond)

(* History truncation: a pin clamps the cut; unpinned, wholly-below
   layers fold into a rebased snapshot that keeps answering at and
   above the cut (including explicitly-absent keys) and refuses below
   it with the typed error. *)
let test_truncate_history_rebases () =
  let s = mk_store () in
  Layer.absorb s ~upto:(lsn 2) (feed [ ins "a" "a1"; upd "a" "a2" ]);
  Layer.compact ~all:true s;
  let tail = [ ins "a" "a1"; upd "a" "a2"; ins "b" "b1"; del "a" ] in
  Layer.absorb s ~upto:(lsn 4) (feed tail);
  Layer.compact ~all:true s;
  Alcotest.(check int) "two layers" 2 (Layer.l1_layers s);
  Layer.pin s ~at:(lsn 1);
  Alcotest.(check int) "pin clamps the cut: nothing reclaimed" 0
    (Layer.truncate_history s ~below:(lsn 3));
  Alcotest.(check int) "cut held at the pin" 1
    (Lsn.to_int (Layer.history_from s));
  Alcotest.(check (option string)) "pinned history answers" (Some "a1")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 1));
  Layer.unpin s ~at:(lsn 1);
  Alcotest.(check int) "unpinned: duplicate entry reclaimed" 1
    (Layer.truncate_history s ~below:(lsn 3));
  Alcotest.(check int) "history_from at the cut" 3
    (Lsn.to_int (Layer.history_from s));
  Alcotest.(check (option string)) "snapshot preserves pre-cut state"
    (Some "a2")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 3));
  Alcotest.(check (option string)) "post-cut history intact" None
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 4));
  Alcotest.check_raises "below the cut refused, typed"
    (Layer.History_truncated { wanted = lsn 2; history_from = lsn 3 })
    (fun () -> ignore (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 2)));
  (* the rebased snapshot is durable L1: a crash keeps it *)
  Layer.crash s;
  Alcotest.(check (option string)) "rebase survives crash" (Some "a2")
    (Layer.reconstruct s ~table:"t" ~key:"a" ~at:(lsn 3))

(* The same boundary contract one level up, through the deployment's
   routed read path: [at = 0] and [at = durable] answer, one past every
   store's watermark raises the deployment's typed error. *)
let test_deploy_read_as_of_boundaries () =
  let d, tc = layered_deploy ~parts:1 ~replicas:0 () in
  commit_one tc ~key:"a" ~value:"v1";
  Deploy.quiesce d;
  Tc.force_log tc;
  let durable = Tc.stable_lsn tc in
  Alcotest.(check (option string)) "at zero" None
    (Deploy.read_as_of d ~table:"t" ~key:"a" ~at:Lsn.zero);
  Alcotest.(check (option string)) "at durable" (Some "v1")
    (Deploy.read_as_of d ~table:"t" ~key:"a" ~at:durable);
  Alcotest.check_raises "beyond durable refused, typed"
    (Layer.Beyond_ingested { wanted = Lsn.next durable; ingested = durable })
    (fun () ->
      ignore (Deploy.read_as_of d ~table:"t" ~key:"a" ~at:(Lsn.next durable)))

let suite =
  [
    Alcotest.test_case "ingest and reconstruct" `Quick
      test_ingest_and_reconstruct;
    Alcotest.test_case "compaction merges runs" `Quick
      test_compaction_merges_runs;
    Alcotest.test_case "crash rebuilds from L1" `Quick
      test_crash_rebuild_from_l1;
    Alcotest.test_case "iter_ops and iter_current" `Quick
      test_iter_ops_and_current;
    Alcotest.test_case "mid-compaction crash is atomic" `Quick
      test_compact_mid_crash_is_atomic;
    Alcotest.test_case "ingest drop pins the cursor" `Quick
      test_ingest_drop_pins_cursor;
    Alcotest.test_case "read_as_of" `Quick test_read_as_of;
    Alcotest.test_case "truncation passes a detached laggard" `Quick
      test_truncation_passes_detached_laggard;
    Alcotest.test_case "failover redoes from layers" `Quick
      test_failover_redoes_from_layers;
    Alcotest.test_case "fresh standby bootstraps from layers" `Quick
      test_fresh_standby_bootstraps_from_layers;
    Alcotest.test_case "rebuild_replica recovers a dead end" `Quick
      test_rebuild_replica_recovers;
    Alcotest.test_case "reconstruction matches checkpoints" `Quick
      test_reconstruction_matches_checkpoints;
    Alcotest.test_case "boundary semantics (store level)" `Quick
      test_layer_boundaries;
    Alcotest.test_case "truncate_history rebases under pins" `Quick
      test_truncate_history_rebases;
    Alcotest.test_case "boundary semantics (deploy level)" `Quick
      test_deploy_read_as_of_boundaries;
  ]
