(* The branch-fork equivalence property: fork the deployment at a
   generator-chosen stamped LSN, then drive parent and branch with
   independent generated traffic — interleaved with parent compaction,
   pinned history truncation, and branch-DC crashes — and check three
   laws against pure oracles: the parent never sees branch writes, the
   branch tracks its own oracle exactly, and the shared prefix at the
   fork point stays bit-identical on both sides. *)

module Deploy = Untx_cloud.Deploy
module Branch = Untx_branch.Branch
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id

let test prop = Helpers.qcheck_test prop

type pre = { p_key : int; p_act : int; p_stamp : bool }

type post = {
  q_side : int;  (** 0 = parent, 1 = branch *)
  q_key : int;
  q_act : int;  (** 0/1 = upsert, 2 = delete-if-present *)
  q_maint : int;
      (** 0 = nothing, 1 = compact parent, 2 = crash branch DC,
          3 = truncate parent history at stable (pin-clamped) *)
}

type scenario = { pres : pre list; posts : post list; fork_pick : int }

let scenario_gen =
  QCheck.Gen.(
    let* np = int_range 5 20 in
    let* pres =
      list_repeat np
        (let* p_key = int_bound 5 in
         let* p_act = int_bound 2 in
         let* p_stamp = frequency [ (3, return false); (1, return true) ] in
         return { p_key; p_act; p_stamp })
    in
    let* nq = int_range 5 25 in
    let* posts =
      list_repeat nq
        (let* q_side = int_bound 1 in
         let* q_key = int_bound 5 in
         let* q_act = int_bound 2 in
         let* q_maint =
           frequency
             [ (12, return 0); (2, return 1); (1, return 2); (1, return 3) ]
         in
         return { q_side; q_key; q_act; q_maint })
    in
    let* fork_pick = int_bound 1000 in
    return { pres; posts; fork_pick })

let pp_pre s =
  Printf.sprintf "k%d/%d%s" s.p_key s.p_act (if s.p_stamp then "*" else "")

let pp_post s =
  Printf.sprintf "%s:k%d/%d%s"
    (if s.q_side = 0 then "p" else "b")
    s.q_key s.q_act
    (match s.q_maint with
    | 1 -> "+compact"
    | 2 -> "+crash"
    | 3 -> "+truncate"
    | _ -> "")

let scenario_arb =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "fork-pick=%d pre=[%s] post=[%s]" s.fork_pick
        (String.concat ";" (List.map pp_pre s.pres))
        (String.concat ";" (List.map pp_post s.posts)))
    scenario_gen

let keys = List.init 6 (Printf.sprintf "k%d")

let prop_fork_parity =
  QCheck.Test.make ~count:25
    ~name:"fork at any stamped LSN: both sides track their oracles"
    scenario_arb (fun sc ->
      let d = Deploy.create ~layers:true () in
      let tc =
        Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1))
      in
      List.iter
        (fun n -> ignore (Deploy.add_dc d ~name:n Dc.default_config))
        [ "dc0"; "dc1" ];
      Deploy.add_partitioned_table d ~replicas:0 ~name:"t" ~versioned:false
        ~dcs:[ "dc0"; "dc1" ] ();
      let oracle = Hashtbl.create 16 in
      let commit_parent i step_key act =
        let key = Printf.sprintf "k%d" step_key in
        let txn = Tc.begin_txn tc in
        (match act with
        | 2 ->
          if Hashtbl.mem oracle key then begin
            Helpers.ok (Tc.delete tc txn ~table:"t" ~key);
            Hashtbl.remove oracle key
          end
        | _ ->
          let value = Printf.sprintf "p%d" i in
          (match Tc.update tc txn ~table:"t" ~key ~value with
          | `Ok () -> ()
          | `Blocked -> Alcotest.fail "blocked"
          | `Fail _ -> Helpers.ok (Tc.insert tc txn ~table:"t" ~key ~value));
          Hashtbl.replace oracle key value);
        Helpers.ok (Tc.commit tc txn)
      in
      let stamp () =
        Deploy.quiesce d;
        Tc.force_log tc;
        Tc.stable_lsn tc
      in
      (* pre-fork traffic, recording (lsn, oracle snapshot) at stamps *)
      let stamps = ref [] in
      let record () =
        stamps := (stamp (), Hashtbl.copy oracle) :: !stamps
      in
      List.iteri
        (fun i step ->
          commit_parent i step.p_key step.p_act;
          if step.p_stamp then record ())
        sc.pres;
      record ();
      let stamps = Array.of_list (List.rev !stamps) in
      let fork, fork_oracle = stamps.(sc.fork_pick mod Array.length stamps) in
      let br = Deploy.create_branch d ~from_lsn:fork ~name:"b" in
      let br_oracle = Hashtbl.copy fork_oracle in
      let commit_branch i step_key act =
        let key = Printf.sprintf "k%d" step_key in
        let module E = (val Branch.engine br) in
        let txn = E.begin_txn () in
        (match act with
        | 2 ->
          if Hashtbl.mem br_oracle key then begin
            Helpers.ok (E.delete txn ~table:"t" ~key);
            Hashtbl.remove br_oracle key
          end
        | _ ->
          let value = Printf.sprintf "b%d" i in
          (match E.update txn ~table:"t" ~key ~value with
          | `Ok () -> ()
          | `Blocked -> Alcotest.fail "branch blocked"
          | `Fail _ -> Helpers.ok (E.insert txn ~table:"t" ~key ~value));
          Hashtbl.replace br_oracle key value);
        Helpers.ok (E.commit txn)
      in
      (* post-fork traffic on both sides, with maintenance mixed in *)
      List.iteri
        (fun i step ->
          if step.q_side = 0 then commit_parent (1000 + i) step.q_key step.q_act
          else commit_branch i step.q_key step.q_act;
          match step.q_maint with
          | 1 ->
            Deploy.quiesce d;
            Untx_repl.Repl.Manager.compact_layers (Deploy.manager d ~tc:"tc1")
          | 2 -> Deploy.crash_branch_dc d "b"
          | 3 -> ignore (Deploy.truncate_history d ~below:(stamp ()))
          | _ -> ())
        sc.posts;
      Deploy.quiesce d;
      Branch.quiesce br;
      let show = function Some v -> v | None -> "None" in
      (* law 1: the parent tracks its oracle — branch writes never leak *)
      List.iter
        (fun key ->
          let expected = Hashtbl.find_opt oracle key in
          let got = Tc.read_committed tc ~table:"t" ~key in
          if got <> expected then
            QCheck.Test.fail_reportf "parent %s: got=%s oracle=%s" key
              (show got) (show expected))
        keys;
      (* law 2: the branch tracks its own oracle *)
      List.iter
        (fun key ->
          let expected = Hashtbl.find_opt br_oracle key in
          let module E = (val Branch.engine br) in
          let txn = E.begin_txn () in
          let got = Helpers.ok (E.read txn ~table:"t" ~key) in
          Helpers.ok (E.commit txn);
          if got <> expected then
            QCheck.Test.fail_reportf "branch %s: got=%s oracle=%s" key
              (show got) (show expected);
          let durable = Branch.durable br in
          let asof = Branch.read_as_of br ~table:"t" ~key ~at:durable in
          if asof <> expected then
            QCheck.Test.fail_reportf "branch as-of-durable %s: got=%s oracle=%s"
              key (show asof) (show expected))
        keys;
      (* law 3: the shared prefix at the fork point is identical on both
         sides — even after compaction and pin-clamped truncation *)
      List.iter
        (fun key ->
          let expected = Hashtbl.find_opt fork_oracle key in
          let via_branch = Branch.read_as_of br ~table:"t" ~key ~at:fork in
          if via_branch <> expected then
            QCheck.Test.fail_reportf "fork prefix via branch %s: got=%s want=%s"
              key (show via_branch) (show expected);
          let via_parent = Deploy.read_as_of d ~table:"t" ~key ~at:fork in
          if via_parent <> expected then
            QCheck.Test.fail_reportf "fork prefix via parent %s: got=%s want=%s"
              key (show via_parent) (show expected))
        keys;
      true)

let suite = [ test prop_fork_parity ]
