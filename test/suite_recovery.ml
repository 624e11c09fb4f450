(* Crash-point sweep: run a randomized transactional workload, crash a
   component (TC, DC, or both) at a random transaction boundary or in
   the middle of an open transaction, recover, and verify the database
   equals the committed-prefix oracle.  Every seed is deterministic.

   This is the executable form of the paper's recovery guarantees:
   committed work survives any partial or total failure, uncommitted
   work never does. *)

open Helpers
module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Dc = Untx_dc.Dc
module Rng = Untx_util.Rng

let table = "kv"

type crash = Crash_tc | Crash_dc | Crash_both

let apply_crash k = function
  | Crash_tc -> Kernel.crash_tc k
  | Crash_dc -> Kernel.crash_dc k
  | Crash_both -> Kernel.crash_both k

(* One scripted committed transaction: a few upserts/deletes on a small
   key space, mirrored into the oracle at commit. *)
let run_txn k oracle rng =
  let txn = Tc.begin_txn (Kernel.tc k) in
  let staged = Hashtbl.create 8 in
  let n_ops = 1 + Rng.int rng 4 in
  for _ = 1 to n_ops do
    let key = Printf.sprintf "k%02d" (Rng.int rng 40) in
    if Rng.chance rng 0.75 then begin
      let value = Printf.sprintf "v%d" (Rng.int rng 1_000_000) in
      let current =
        if Hashtbl.mem staged key then Hashtbl.find staged key
        else Option.join (Hashtbl.find_opt oracle key)
      in
      match current with
      | Some _ -> (
        match Tc.update (Kernel.tc k) txn ~table ~key ~value with
        | `Ok () -> Hashtbl.replace staged key (Some value)
        | `Fail _ | `Blocked -> ())
      | None -> (
        match Tc.insert (Kernel.tc k) txn ~table ~key ~value with
        | `Ok () -> Hashtbl.replace staged key (Some value)
        | `Fail _ | `Blocked -> ())
    end
    else begin
      match Tc.delete (Kernel.tc k) txn ~table ~key with
      | `Ok () -> Hashtbl.replace staged key None
      | `Fail _ | `Blocked -> ()
    end
  done;
  match Tc.commit (Kernel.tc k) txn with
  | `Ok () ->
    Hashtbl.iter (fun key v -> Hashtbl.replace oracle key v) staged;
    true
  | `Fail _ | `Blocked -> false

(* Leave a transaction open (uncommitted) right before the crash.  The
   handle is returned: a TC crash kills it implicitly, but after a
   DC-only crash the TC (and its locks) survive, so the sweep rolls it
   back explicitly — which itself exercises undo over a recovered DC. *)
let open_loser k rng =
  let txn = Tc.begin_txn (Kernel.tc k) in
  for _ = 1 to 1 + Rng.int rng 3 do
    let key = Printf.sprintf "k%02d" (Rng.int rng 40) in
    ignore (Tc.update (Kernel.tc k) txn ~table ~key ~value:"LOSER");
    ignore (Tc.insert (Kernel.tc k) txn ~table ~key:(key ^ "-loser") ~value:"LOSER")
  done;
  txn

let oracle_rows oracle =
  Hashtbl.fold
    (fun k v acc -> match v with Some v -> (k, v) :: acc | None -> acc)
    oracle []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sweep ~crash ~versioned ~chaotic ~seeds () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let policy = if chaotic then Transport.chaotic else Transport.reliable in
      let k = make_kernel ~policy ~seed ~versioned () in
      let oracle : (string, string option) Hashtbl.t = Hashtbl.create 64 in
      let txns_before_crash = 5 + Rng.int rng 20 in
      for _ = 1 to txns_before_crash do
        ignore (run_txn k oracle rng)
      done;
      (* sometimes checkpoint mid-history *)
      if Rng.chance rng 0.4 then begin
        Kernel.quiesce k;
        ignore (Tc.checkpoint (Kernel.tc k))
      end;
      for _ = 1 to Rng.int rng 10 do
        ignore (run_txn k oracle rng)
      done;
      let loser = if Rng.chance rng 0.7 then Some (open_loser k rng) else None in
      if Rng.chance rng 0.5 then Kernel.quiesce k;
      apply_crash k crash;
      (match (crash, loser) with
      | Crash_dc, Some txn -> Tc.abort (Kernel.tc k) txn ~reason:"post-crash rollback"
      | _ -> ());
      check_wellformed k;
      let got = snapshot k ~table in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "seed %d equals committed prefix" seed)
        (oracle_rows oracle) got;
      (* the kernel remains usable: one more committed transaction *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d still live" seed)
        true
        (run_txn k oracle rng);
      apply_crash k crash;
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "seed %d double crash" seed)
        (oracle_rows oracle) (snapshot k ~table))
    (List.init seeds (fun i -> 1000 + (i * 37)))

(* --- batched redo -------------------------------------------------- *)

module Deploy = Untx_cloud.Deploy
module Audit = Untx_audit.Audit
module Tc = Untx_tc.Tc
module Tc_id = Untx_util.Tc_id
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault

(* A TC crash over two range partitions: each transaction writes runs
   of keys on one DC, then on the other, so the redo stream switches
   link several times.  Redo must reach the DCs in LSN order across
   both of them, and the recovered deployment must pass the audit. *)
let test_partitioned_redo_in_lsn_order () =
  let d = Deploy.create () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  List.iter
    (fun n -> ignore (Deploy.add_dc d ~name:n Dc.default_config))
    [ "dc0"; "dc1" ];
  Deploy.add_partitioned_table d ~scheme:(Deploy.Range [ "m" ]) ~name:table
    ~versioned:true ~dcs:[ "dc0"; "dc1" ] ();
  let oracle = Hashtbl.create 64 in
  for i = 0 to 11 do
    let txn = Tc.begin_txn tc in
    List.iter
      (fun prefix ->
        for j = 0 to 2 do
          let key = Printf.sprintf "%s%02d-%d" prefix i j in
          let value = Printf.sprintf "v%d" i in
          ok (Tc.insert tc txn ~table ~key ~value);
          Hashtbl.replace oracle key value
        done)
      (if i mod 2 = 0 then [ "a"; "p" ] else [ "p"; "a" ]);
    ok (Tc.commit tc txn)
  done;
  Deploy.quiesce d;
  let sent = Tc.messages_sent tc in
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Trace.set_enabled false)
    (fun () -> Deploy.crash_tc d "tc1");
  let redone =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.e_comp = "dc" && (e.e_ev = "apply" || e.e_ev = "skip") then
          Some
            ( List.assoc "part" e.e_attrs,
              int_of_string (List.assoc "lsn" e.e_attrs) )
        else None)
      (Trace.events ())
  in
  Trace.clear ();
  let applied = List.map snd redone in
  Alcotest.(check (list string)) "both DCs redid operations" [ "0"; "1" ]
    (List.sort_uniq compare (List.map fst redone));
  Alcotest.(check (list int)) "redo reached the DCs in LSN order"
    (List.sort_uniq compare applied) applied;
  Alcotest.(check bool) "fewer frames than operations" true
    (Tc.messages_sent tc - sent < List.length applied);
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected in
  Alcotest.(check (list string)) "audit clean" [] report.Audit.violations

(* A DC killed between two operations of a redo batch keeps the batch's
   prefix and loses its reply; the next restart redoes the whole
   stream and leaves exactly the table the first crash interrupted. *)
let test_redo_batch_crash () =
  let k = make_kernel ~cache_pages:256 () in
  for i = 0 to 19 do
    committed k
      (List.init 4 (fun j txn ->
           let key = Printf.sprintf "k%02d" ((i * 4) + j) in
           Tc.insert (Kernel.tc k) txn ~table ~key ~value:(string_of_int i)));
    if i mod 3 = 0 then
      committed k
        [ (fun txn -> Tc.update (Kernel.tc k) txn ~table ~key:(Printf.sprintf "k%02d" i) ~value:"u") ]
  done;
  Kernel.quiesce k;
  let pre = Dc.dump_table (Kernel.dc k) table in
  Fault.arm [ Fault.crash_at "dc.redo.batch" 5 ];
  Fun.protect ~finally:Fault.disarm (fun () ->
      match Kernel.crash_dc k with
      | () -> Alcotest.fail "the planned crash did not fire"
      | exception Fault.Injected_crash p -> Kernel.crash_for_point k p);
  Alcotest.(check (list string)) "crashed mid-batch" [ "dc.redo.batch" ]
    (Fault.fired_points ());
  check_wellformed k;
  Alcotest.(check bool) "table equals its pre-crash dump" true
    (Dc.dump_table (Kernel.dc k) table = pre)

let suite =
  [
    Alcotest.test_case "sweep: TC crash, versioned" `Slow
      (sweep ~crash:Crash_tc ~versioned:true ~chaotic:false ~seeds:12);
    Alcotest.test_case "sweep: TC crash, unversioned" `Slow
      (sweep ~crash:Crash_tc ~versioned:false ~chaotic:false ~seeds:12);
    Alcotest.test_case "sweep: DC crash, versioned" `Slow
      (sweep ~crash:Crash_dc ~versioned:true ~chaotic:false ~seeds:12);
    Alcotest.test_case "sweep: DC crash, unversioned" `Slow
      (sweep ~crash:Crash_dc ~versioned:false ~chaotic:false ~seeds:12);
    Alcotest.test_case "sweep: both crash" `Slow
      (sweep ~crash:Crash_both ~versioned:true ~chaotic:false ~seeds:12);
    Alcotest.test_case "sweep: TC crash over chaotic transport" `Slow
      (sweep ~crash:Crash_tc ~versioned:true ~chaotic:true ~seeds:8);
    Alcotest.test_case "sweep: DC crash over chaotic transport" `Slow
      (sweep ~crash:Crash_dc ~versioned:true ~chaotic:true ~seeds:8);
    Alcotest.test_case "partitioned TC crash redoes in LSN order" `Quick
      test_partitioned_redo_in_lsn_order;
    Alcotest.test_case "a crash inside a redo batch" `Quick
      test_redo_batch_crash;
  ]
