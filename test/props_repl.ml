(* Replication properties: log-prefix determinism of promotion, plus
   replicated chaos acceptance cycles (primary killed at shipped-batch
   boundaries mid-workload, audit must come back clean). *)

module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Chaos = Untx_audit.Chaos
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Fault = Untx_fault.Fault

let test prop = Helpers.qcheck_test prop

(* --- log-prefix determinism ------------------------------------------- *)

(* Promoting a standby frozen after ANY prefix of the shipped stream,
   then re-driving the gap from the TC's stable log, must land on
   exactly the state the primary had — byte-for-byte over every table
   dump.  The prefix length and the workload are both generator-chosen,
   so this sweeps arbitrary promotion points, not just batch edges. *)

type scenario = { ops : (int * string) list; cut : int }
(* ops: (key-index, value) writes, one committed txn each; cut: how many
   run before the standby is frozen at its then-current prefix. *)

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 4 28 in
    let* cut = int_range 0 n in
    let* vals = list_repeat n (int_bound 999) in
    let ops = List.mapi (fun i v -> (i mod 9, Printf.sprintf "v%d.%d" i v)) vals in
    return { ops; cut })

let scenario_arb =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "cut=%d ops=[%s]" s.cut
        (String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "k%d=%s" k v) s.ops)))
    scenario_gen

let commit_one tc = Helpers.upsert (Untx_kernel.Engine.of_tc tc) ~table:"t"

let dump_all dc =
  List.map (fun tbl -> (tbl, Dc.dump_table dc tbl)) (Dc.table_names dc)

let prop_promotion_prefix_deterministic =
  QCheck.Test.make ~count:40 ~name:"promotion from any prefix is deterministic"
    scenario_arb (fun s ->
      let d = Deploy.create () in
      let tc =
        Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1))
      in
      ignore (Deploy.add_dc d ~name:"dc0" Dc.default_config);
      Deploy.add_partitioned_table d ~replicas:1 ~name:"t" ~versioned:false
        ~dcs:[ "dc0" ] ();
      let m = Deploy.manager d ~tc:"tc1" in
      let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
      let run (k, v) = commit_one tc ~key:(Printf.sprintf "k%d" k) ~value:v in
      let before, after =
        List.filteri (fun i _ -> i < s.cut) s.ops,
        List.filteri (fun i _ -> i >= s.cut) s.ops
      in
      List.iter run before;
      Deploy.quiesce d;
      (* freeze the standby at whatever prefix shipping had reached *)
      Repl.Manager.detach m ~name:sbn;
      List.iter run after;
      Deploy.quiesce d;
      let primary_state = dump_all (Deploy.dc d "dc0") in
      (* primary "dies"; the frozen-prefix standby is the only candidate *)
      Deploy.fail_over d ~dc:"dc0";
      let promoted_state = dump_all (Deploy.dc d "dc0") in
      if promoted_state <> primary_state then
        QCheck.Test.fail_report
          "promoted state diverges from the dead primary's";
      (* the promoted DC keeps serving: one more commit round-trips *)
      commit_one tc ~key:"post" ~value:"alive";
      Tc.read_committed tc ~table:"t" ~key:"post" = Some "alive")

(* --- promotion durability under arbitrary interleavings ---------------- *)

(* Generator-chosen sequences of fill / detach / checkpoint / reattach /
   standby-crash against a sole standby, then a forced failover.  The
   contract under test is fail_over's dichotomy: either it promotes and
   every acked commit is readable afterwards, or it raises
   Promotion_refused — and then it must be the case that the candidate
   really was ineligible, and a cold restart of the primary still serves
   everything.  Silent loss and spurious refusal both fail the property. *)

type fo_step = Fill of int | Detach | Reattach | Crash_standby | Checkpoint

let fo_step_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Fill n) (int_range 1 8));
        (2, return Detach);
        (2, return Reattach);
        (1, return Crash_standby);
        (3, return Checkpoint);
      ])

let fo_print = function
  | Fill n -> Printf.sprintf "Fill %d" n
  | Detach -> "Detach"
  | Reattach -> "Reattach"
  | Crash_standby -> "Crash_standby"
  | Checkpoint -> "Checkpoint"

let fo_arb =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map fo_print steps))
    QCheck.Gen.(list_size (int_range 4 14) fo_step_gen)

let prop_failover_never_loses_acked =
  QCheck.Test.make ~count:40
    ~name:"failover never loses an acked commit, never promotes ineligible"
    fo_arb (fun steps ->
      let d = Deploy.create () in
      let tc =
        Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1))
      in
      ignore (Deploy.add_dc d ~name:"dc0" Dc.default_config);
      Deploy.add_partitioned_table d ~replicas:1 ~name:"t" ~versioned:false
        ~dcs:[ "dc0" ] ();
      let m = Deploy.manager d ~tc:"tc1" in
      let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
      let oracle = ref [] in
      let next = ref 0 in
      let fill n =
        for _ = 1 to n do
          let key = Printf.sprintf "p%04d" !next in
          incr next;
          commit_one tc ~key ~value:"v";
          oracle := key :: !oracle
        done
      in
      let checkpoint () =
        (* a checkpoint only counts when granted; flush until it is (or
           give up — an ungranted attempt must also be harmless) *)
        let rec grant tries =
          if (not (Tc.checkpoint tc)) && tries > 0 then begin
            Deploy.quiesce d;
            Dc.flush_all (Deploy.dc d "dc0");
            grant (tries - 1)
          end
        in
        grant 3
      in
      let apply = function
        | Fill n -> fill n
        | Detach -> (
          match Repl.Manager.state_of m ~name:sbn with
          | Repl.Manager.Attached -> Repl.Manager.detach m ~name:sbn
          | Repl.Manager.Detached _ | Repl.Manager.Rebuild_required -> ())
        | Reattach -> (
          match Repl.Manager.state_of m ~name:sbn with
          | Repl.Manager.Detached _ -> Repl.Manager.reattach m ~name:sbn
          | Repl.Manager.Attached -> ()
          | Repl.Manager.Rebuild_required ->
            (* terminal: reattach must refuse, not resurrect *)
            let refused =
              try
                Repl.Manager.reattach m ~name:sbn;
                false
              with Invalid_argument _ -> true
            in
            if not refused then
              QCheck.Test.fail_report "reattach resurrected rebuild-required")
        | Crash_standby -> Deploy.crash_standby d sbn
        | Checkpoint -> checkpoint ()
      in
      List.iter apply steps;
      Deploy.quiesce d;
      let eligible = Repl.Manager.promotion_eligible m ~name:sbn in
      (match Deploy.fail_over d ~dc:"dc0" with
      | () ->
        if not eligible then
          QCheck.Test.fail_report "promoted an ineligible candidate"
      | exception Deploy.Promotion_refused _ ->
        if eligible then
          QCheck.Test.fail_report "refused an eligible candidate";
        (* the operator fallback keeps the no-loss promise *)
        Deploy.crash_dc d "dc0");
      List.for_all
        (fun key -> Tc.read_committed tc ~table:"t" ~key = Some "v")
        !oracle)

(* --- replicated chaos acceptance -------------------------------------- *)

let run_clean ~label ~plan ~seed ~durability =
  let c =
    Chaos.run_cycle
      ~shape:
        (Replicated { parts = 2; replicas = 2; durability = Some durability })
      ~label ~plan ~seed ~txns:18 ()
  in
  Alcotest.(check (list string)) (label ^ " audit clean") []
    c.Chaos.c_violations;
  c

let test_promotion_cycle_clean () =
  let c =
    run_clean ~label:"kill primary at 3rd shipped batch"
      ~plan:[ Fault.crash_at Repl.p_ship_batch 3 ]
      ~seed:0x5EED ~durability:Repl.Primary_only
  in
  Alcotest.(check bool) "the kill actually fired" true
    (List.mem Repl.p_ship_batch c.Chaos.c_fired)

let test_promotion_cycle_quorum_clean () =
  (* The acceptance scenario from the issue: mid-workload primary kill
     under Quorum 1 — promotion must preserve every acked commit. *)
  let c =
    run_clean ~label:"quorum-1 primary kill mid-workload"
      ~plan:[ Fault.crash_at Repl.p_ship_batch 5 ]
      ~seed:0xB0B ~durability:(Repl.Quorum 1)
  in
  Alcotest.(check bool) "promotion happened" true
    (match List.assoc_opt "repl.promotions" c.Chaos.c_counters with
    | Some n -> n > 0
    | None -> false)

let test_double_promotion_clean () =
  ignore
    (run_clean ~label:"two promotions in one cycle"
       ~plan:[ Fault.crash_at Repl.p_ship_batch 2 ]
       ~seed:0xACE ~durability:(Repl.Quorum 1));
  ignore
    (run_clean ~label:"promotion then cold DC kill"
       ~plan:
         [
           Fault.crash_at Repl.p_ship_batch 3;
           Fault.crash_at "dc.flush.after_page_write" 2;
         ]
       ~seed:0xD1CE ~durability:Repl.Primary_only)

let suite =
  [
    test prop_promotion_prefix_deterministic;
    test prop_failover_never_loses_acked;
    Alcotest.test_case "chaos: promotion cycle clean" `Quick
      test_promotion_cycle_clean;
    Alcotest.test_case "chaos: quorum-1 mid-workload kill clean" `Quick
      test_promotion_cycle_quorum_clean;
    Alcotest.test_case "chaos: promotion combos clean" `Quick
      test_double_promotion_clean;
  ]
