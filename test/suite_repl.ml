(* Warm-standby replication: shipping parity, durability gating,
   failover/promotion, rejoin catch-up, and the truncation floor. *)

module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Audit = Untx_audit.Audit

let ok = Helpers.ok

let repl_deploy ?counters ?durability ~parts ~replicas () =
  let d = Deploy.create ?counters ?durability () in
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

let check_parity d ~dc:dcn =
  let primary = Deploy.dc d dcn in
  List.iter
    (fun sbn ->
      let sb = Repl.Standby.dc (Deploy.standby d sbn) in
      List.iter
        (fun tbl ->
          Alcotest.(check bool)
            (Printf.sprintf "%s matches %s on %s" sbn dcn tbl)
            true
            (Dc.dump_table sb tbl = Dc.dump_table primary tbl))
        (Dc.table_names primary))
    (Deploy.replicas d ~dc:dcn)

let test_shipping_parity () =
  let d, tc = repl_deploy ~parts:2 ~replicas:2 () in
  Alcotest.(check (list string)) "dc0 standbys" [ "dc0~r0"; "dc0~r1" ]
    (Deploy.replicas d ~dc:"dc0");
  fill tc 40;
  Deploy.quiesce d;
  List.iter (fun dcn -> check_parity d ~dc:dcn) [ "dc0"; "dc1" ]

let test_quorum_gates_commit () =
  (* Under Quorum 1 every group-commit force waits for a standby ack, so
     after any commit returns, each primary's confirmed applied floor
     already covers the whole stable log — no settle needed. *)
  let d, tc =
    repl_deploy ~durability:(Repl.Quorum 1) ~parts:2 ~replicas:1 ()
  in
  fill tc 20;
  let m = Deploy.manager d ~tc:"tc1" in
  List.iter
    (fun dcn ->
      List.iter
        (fun sbn ->
          Alcotest.(check int)
            (sbn ^ " lag zero at commit ack")
            0
            (Repl.Manager.lag m ~name:sbn))
        (Deploy.replicas d ~dc:dcn))
    [ "dc0"; "dc1" ]

let test_quorum_without_replicas_is_noop () =
  (* Quorum durability on a table with no standbys must not wedge the
     commit path: the quorum clamps to the replicas that exist. *)
  let d, tc = repl_deploy ~durability:(Repl.Quorum 2) ~parts:2 ~replicas:0 () in
  fill tc 10;
  Deploy.quiesce d;
  Alcotest.(check (option string)) "committed" (Some "v")
    (Tc.read_committed tc ~table:"t" ~key:"k000")

let test_failover_promotes_and_serves () =
  let counters = Instrument.create () in
  Metrics.set_timed counters true;
  let d, tc = repl_deploy ~counters ~parts:2 ~replicas:2 () in
  let oracle = Hashtbl.create 64 in
  let put key value =
    commit_one tc ~key ~value;
    Hashtbl.replace oracle key value
  in
  List.iter (fun i -> put (Printf.sprintf "a%03d" i) "before") (List.init 30 Fun.id);
  Deploy.fail_over d ~dc:"dc0";
  Alcotest.(check int) "one promotion" 1
    (Instrument.get counters "repl.promotions");
  Alcotest.(check int) "survivor keeps shadowing" 1
    (List.length (Deploy.replicas d ~dc:"dc0"));
  (* every pre-failover commit is readable off the promoted standby *)
  Hashtbl.iter
    (fun key value ->
      Alcotest.(check (option string)) (key ^ " survives failover")
        (Some value)
        (Tc.read_committed tc ~table:"t" ~key))
    oracle;
  (* and the deployment keeps committing afterwards *)
  List.iter (fun i -> put (Printf.sprintf "b%03d" i) "after") (List.init 30 Fun.id);
  Deploy.quiesce d;
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let report = Audit.run_deploy d ~tc:"tc1" ~table:"t" ~expected in
  Alcotest.(check (list string)) "audit clean" [] report.Audit.violations;
  Alcotest.(check bool) "promotion timed" true
    (List.mem "repl.promote_ns" (Metrics.hist_names counters))

let test_failover_picks_most_caught_up () =
  let d, tc = repl_deploy ~parts:1 ~replicas:2 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  (* freeze r0 at a prefix, let r1 follow the rest of the stream *)
  Repl.Manager.detach m ~name:"dc0~r0";
  fill tc ~prefix:"late" 20;
  Deploy.quiesce d;
  let laggard = Deploy.standby d "dc0~r0" in
  let leader = Deploy.standby d "dc0~r1" in
  Alcotest.(check bool) "r1 is ahead" true
    Lsn.(
      Repl.Standby.applied laggard ~tc:(Tc.id tc)
      < Repl.Standby.applied leader ~tc:(Tc.id tc));
  Deploy.fail_over d ~dc:"dc0";
  (* the caught-up standby was promoted; the laggard keeps shadowing *)
  Alcotest.(check (list string)) "laggard left behind" [ "dc0~r0" ]
    (Deploy.replicas d ~dc:"dc0");
  Alcotest.(check (option string)) "late commits survived" (Some "v")
    (Tc.read_committed tc ~table:"t" ~key:"late000")

let test_detach_reattach_catches_up () =
  let d, tc = repl_deploy ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  let applied_before =
    Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc)
  in
  Repl.Manager.detach m ~name:sbn;
  fill tc ~prefix:"gap" 25;
  Deploy.quiesce d;
  (* detached: the standby froze at its prefix *)
  Alcotest.(check bool) "frozen while detached" true
    (Lsn.equal applied_before
       (Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc)));
  Repl.Manager.reattach m ~name:sbn;
  Deploy.settle_replicas d;
  check_parity d ~dc:"dc0"

let test_crash_standby_rejoins () =
  let d, tc = repl_deploy ~parts:2 ~replicas:1 () in
  fill tc 20;
  Deploy.quiesce d;
  Deploy.crash_standby d "dc0~r0";
  fill tc ~prefix:"post" 20;
  Deploy.quiesce d;
  List.iter (fun dcn -> check_parity d ~dc:dcn) [ "dc0"; "dc1" ]

let test_truncation_respects_lagging_replica () =
  let d, tc = repl_deploy ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  let frozen = Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc) in
  Repl.Manager.detach m ~name:sbn;
  fill tc ~prefix:"trunc" 40;
  Deploy.quiesce d;
  Dc.flush_all (Deploy.dc d "dc0");
  let rec grant tries =
    if Tc.checkpoint tc then ()
    else if tries > 0 then begin
      Deploy.quiesce d;
      Dc.flush_all (Deploy.dc d "dc0");
      grant (tries - 1)
    end
  in
  grant 4;
  (* the checkpoint advanced the redo-scan start point well past the
     detached replica's cursor — but log *truncation* is capped by the
     replica floor, which the catch-up below depends on *)
  Alcotest.(check bool) "checkpoint advanced past the replica" true
    Lsn.(Tc.rssp tc > Lsn.next frozen);
  (* reattaching finds every record it missed still in the log *)
  Repl.Manager.reattach m ~name:sbn;
  Deploy.settle_replicas d;
  check_parity d ~dc:"dc0"

(* Drive a *granted* checkpoint: the lwm only covers flushed state, so
   flush the primary and retry until every DC grants. *)
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

(* The repro_gap scenario as a unit test: a detached laggard whose
   cursor fell below the redo-scan start point is promoted, and the
   default catch-up re-ships the retained suffix before installation —
   every acked commit survives. *)
let test_failover_catches_laggard_up () =
  let counters = Instrument.create () in
  let d, tc = repl_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  let frozen = Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc) in
  Repl.Manager.detach m ~name:sbn;
  fill tc ~prefix:"gap" 40;
  Deploy.quiesce d;
  grant_checkpoint d tc ~dc:"dc0";
  Alcotest.(check bool) "rssp passed the laggard" true
    Lsn.(Tc.rssp tc > Lsn.next frozen);
  Alcotest.(check bool) "laggard still eligible (lease holds the log)" true
    (Repl.Manager.promotion_eligible m ~name:sbn);
  Deploy.fail_over d ~dc:"dc0";
  Alcotest.(check bool) "catch-up re-shipped the gap" true
    (Instrument.get counters "repl.catchup_ops" > 0);
  List.iter
    (fun i ->
      let key = Printf.sprintf "gap%03d" i in
      Alcotest.(check (option string)) (key ^ " survives") (Some "v")
        (Tc.read_committed tc ~table:"t" ~key))
    (List.init 40 Fun.id)

(* Same scenario with catch-up disabled: promotion installs the frozen
   laggard and leans entirely on the TC's redo, which must legally
   start below the redo-scan start point (the retained suffix covers
   it).  This pins the tc.ml redo-start fix in isolation. *)
let test_failover_below_rssp_without_catchup () =
  let counters = Instrument.create () in
  let d, tc = repl_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  let frozen = Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc) in
  Repl.Manager.detach m ~name:sbn;
  fill tc ~prefix:"gap" 40;
  Deploy.quiesce d;
  grant_checkpoint d tc ~dc:"dc0";
  Alcotest.(check bool) "promotion cursor sits below the rssp" true
    Lsn.(Lsn.next frozen < Tc.rssp tc);
  Deploy.fail_over ~catch_up:false d ~dc:"dc0";
  Alcotest.(check int) "nothing was re-shipped" 0
    (Instrument.get counters "repl.catchup_ops");
  Alcotest.(check bool) "redo started below the rssp" true
    (Instrument.get counters "tc.redo_below_rssp" > 0);
  List.iter
    (fun i ->
      let key = Printf.sprintf "gap%03d" i in
      Alcotest.(check (option string)) (key ^ " survives") (Some "v")
        (Tc.read_committed tc ~table:"t" ~key))
    (List.init 40 Fun.id)

(* Retention-lease expiry: each granted checkpoint burns one lease
   unit; past the budget the replica is demoted to rebuild-required —
   it refuses reattach, fail_over refuses to promote it, and a cold
   restart still serves every acked commit (honest unavailability, not
   loss). *)
let test_lease_expiry_demotes_and_refuses () =
  let counters = Instrument.create () in
  let d, tc = repl_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  Repl.Manager.detach m ~name:sbn;
  (* lease_checkpoints = 4: four granted checkpoints hold the floor,
     the fifth consult expires the lease *)
  List.iter
    (fun round ->
      fill tc ~prefix:(Printf.sprintf "r%d." round) 8;
      Deploy.quiesce d;
      grant_checkpoint d tc ~dc:"dc0")
    (List.init 5 Fun.id);
  Alcotest.(check int) "one lease expired" 1
    (Instrument.get counters "repl.lease_expirations");
  Alcotest.(check bool) "demoted to rebuild-required" true
    (Repl.Manager.state_of m ~name:sbn = Repl.Manager.Rebuild_required);
  Alcotest.(check bool) "reattach refused" true
    (try
       Repl.Manager.reattach m ~name:sbn;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "promotion refused" true
    (try
       Deploy.fail_over d ~dc:"dc0";
       false
     with Deploy.Promotion_refused _ -> true);
  Alcotest.(check int) "refusal counted" 1
    (Instrument.get counters "repl.promote_refusals");
  (* the operator fallback: cold-restart the primary — zero loss *)
  Deploy.crash_dc d "dc0";
  List.iter
    (fun round ->
      let key = Printf.sprintf "r%d.000" round in
      Alcotest.(check (option string)) (key ^ " survives cold restart")
        (Some "v")
        (Tc.read_committed tc ~table:"t" ~key))
    (List.init 5 Fun.id)

(* A standby that crashes after truncation passed its rejoin cursor
   (zero) cannot re-ship the missing prefix: it must come back
   rebuild-required, not attached-with-a-hole. *)
let test_crashed_standby_past_truncation_needs_rebuild () =
  let counters = Instrument.create () in
  let d, tc = repl_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 30;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  (* the replica is caught up, so its floor lets truncation advance *)
  grant_checkpoint d tc ~dc:"dc0";
  Alcotest.(check bool) "log head truncated" true
    Lsn.(Tc.log_retained_from tc > Lsn.next Lsn.zero);
  Deploy.crash_standby d sbn;
  Alcotest.(check bool) "rejoin demoted to rebuild-required" true
    (Repl.Manager.state_of m ~name:sbn = Repl.Manager.Rebuild_required);
  Alcotest.(check bool) "rebuild demotion counted" true
    (Instrument.get counters "repl.rebuild_required" > 0);
  Alcotest.(check (list string)) "not among attached replicas" []
    (Deploy.attached_replicas d ~dc:"dc0")

let test_lag_histogram_recorded () =
  let counters = Instrument.create () in
  let d, tc = repl_deploy ~counters ~parts:1 ~replicas:1 () in
  fill tc 10;
  Deploy.quiesce d;
  Alcotest.(check bool) "repl.lag_lsn histogram exists" true
    (List.mem "repl.lag_lsn" (Metrics.hist_names counters));
  Alcotest.(check bool) "ship bytes counted" true
    (Instrument.get counters "repl.ship_bytes" > 0);
  ignore d

let test_add_replica_later_catches_up () =
  (* A standby minted after the workload must bootstrap from the stable
     log alone — attach ships the whole stream from LSN zero. *)
  let d, tc = repl_deploy ~parts:1 ~replicas:0 () in
  fill tc 25;
  Deploy.quiesce d;
  let name = Deploy.add_replica d ~dc:"dc0" in
  Alcotest.(check (list string)) "registered" [ name ]
    (Deploy.replicas d ~dc:"dc0");
  Deploy.settle_replicas d;
  check_parity d ~dc:"dc0"

(* Retention-lease isolation across TCs: replica state is per
   (manager, standby), and each manager's lease burns only on its OWN
   TC's granted checkpoints.  Two TCs share the primary; the standby is
   detached in both managers; then one TC checkpoints past its lease
   budget.  Its manager must demote the replica — while the other TC's
   manager, which never checkpointed, must still hold the full lease.
   If consults from different TCs each decremented the same lease, the
   second manager would be at zero too. *)
let test_lease_isolated_per_tc () =
  let counters = Instrument.create () in
  let d = Deploy.create ~counters () in
  let tc1 = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let tc2 = Deploy.add_tc d ~name:"tc2" (Tc.default_config (Tc_id.of_int 2)) in
  ignore (Deploy.add_dc d ~name:"dc0" Dc.default_config);
  Deploy.add_partitioned_table d ~replicas:1 ~name:"t" ~versioned:false
    ~dcs:[ "dc0" ] ();
  (* disjoint updaters on the shared primary *)
  fill tc1 ~prefix:"a" 8;
  fill tc2 ~prefix:"b" 8;
  Deploy.quiesce d;
  Deploy.settle_replicas d;
  let m1 = Deploy.manager d ~tc:"tc1" in
  let m2 = Deploy.manager d ~tc:"tc2" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  Deploy.detach_replica d sbn;
  let lease_of m =
    match Repl.Manager.state_of m ~name:sbn with
    | Repl.Manager.Detached { lease } -> lease
    | _ -> -1
  in
  let full_lease = lease_of m2 in
  Alcotest.(check bool) "both managers detached with a full lease" true
    (full_lease > 0 && lease_of m1 = full_lease);
  (* burn tc1's lease: full_lease granted checkpoints hold the floor,
     one more consult expires it *)
  List.iter
    (fun round ->
      fill tc1 ~prefix:(Printf.sprintf "a%d." round) 8;
      Deploy.quiesce d;
      grant_checkpoint d tc1 ~dc:"dc0")
    (List.init (full_lease + 1) Fun.id);
  Alcotest.(check bool) "tc1's manager demoted its replica" true
    (Repl.Manager.state_of m1 ~name:sbn = Repl.Manager.Rebuild_required);
  Alcotest.(check int) "exactly one lease expired" 1
    (Instrument.get counters "repl.lease_expirations");
  Alcotest.(check int) "tc2's lease untouched by tc1's checkpoints"
    full_lease (lease_of m2);
  (* tc2's own granted checkpoint burns exactly one unit of its lease *)
  fill tc2 ~prefix:"b9." 8;
  Deploy.quiesce d;
  grant_checkpoint d tc2 ~dc:"dc0";
  Alcotest.(check int) "one unit burned by tc2's own checkpoint"
    (full_lease - 1) (lease_of m2)

let suite =
  [
    Alcotest.test_case "shipping reaches parity" `Quick test_shipping_parity;
    Alcotest.test_case "quorum gates commit" `Quick test_quorum_gates_commit;
    Alcotest.test_case "quorum without replicas is a no-op" `Quick
      test_quorum_without_replicas_is_noop;
    Alcotest.test_case "failover promotes and serves" `Quick
      test_failover_promotes_and_serves;
    Alcotest.test_case "failover picks most caught-up" `Quick
      test_failover_picks_most_caught_up;
    Alcotest.test_case "detach/reattach catches up" `Quick
      test_detach_reattach_catches_up;
    Alcotest.test_case "crashed standby rejoins" `Quick
      test_crash_standby_rejoins;
    Alcotest.test_case "truncation respects lagging replica" `Quick
      test_truncation_respects_lagging_replica;
    Alcotest.test_case "lag histogram recorded" `Quick
      test_lag_histogram_recorded;
    Alcotest.test_case "late replica bootstraps from log" `Quick
      test_add_replica_later_catches_up;
    Alcotest.test_case "failover catches laggard up" `Quick
      test_failover_catches_laggard_up;
    Alcotest.test_case "failover redoes below rssp without catch-up" `Quick
      test_failover_below_rssp_without_catchup;
    Alcotest.test_case "lease expiry demotes and refuses" `Quick
      test_lease_expiry_demotes_and_refuses;
    Alcotest.test_case "crashed standby past truncation needs rebuild" `Quick
      test_crashed_standby_past_truncation_needs_rebuild;
    Alcotest.test_case "retention leases are per TC" `Quick
      test_lease_isolated_per_tc;
  ]
