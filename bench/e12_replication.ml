(* E12 — warm-standby replication: what failover buys and what the
   durability gate costs.

   Four measurements over 1-TC x 2-partition deployments where every
   partition has warm standbys fed by continuous redo shipping:

   1. Losing a primary, two ways.  Cold path: crash + rebuild from
      stable state + re-drive the whole stable log ([Deploy.crash_dc]).
      Warm path: promote the most-caught-up standby and re-drive only
      the gap between its applied LSN and end-of-stable-log
      ([Deploy.fail_over]).  The redo gap — not the wall clock — is the
      structural story: it stays bounded by one shipping batch while the
      cold path's redo grows with the log.

   2. Replication lag, as the shipping engine itself records it: the
      [repl.lag_lsn] histogram samples (end-of-stable-log − confirmed
      applied) at every ack.

   3. The price of [Quorum k] durability: per-commit latency when the
      group-commit force additionally waits for k standby acks per
      replicated primary, vs [Primary_only] where standbys trail
      asynchronously.

   4. The catch-up price of promoting a detached laggard: the standby
      freezes a fifth of the way in, a granted checkpoint advances the
      redo-scan start point past its cursor, and [Deploy.fail_over]
      must first re-ship the retained suffix before installing it.
      Measured beside a caught-up promotion and a cold restart of the
      same workload — the ordering cold >> catch-up > caught-up is the
      expected shape, with zero loss in every column. *)

module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Transport = Untx_kernel.Transport
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics

let table = "kv"

let make_deploy ?counters ?policy ?durability ~replicas () =
  let d = Deploy.create ?counters ?policy ?durability () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let dcs = [ "dc0"; "dc1" ] in
  List.iter (fun n -> ignore (Deploy.add_dc d ~name:n Dc.default_config)) dcs;
  Deploy.add_partitioned_table d ~replicas ~name:table ~versioned:false ~dcs ();
  (d, tc)

let commit_one tc = Bench_util.upsert (Untx_kernel.Engine.of_tc tc) ~table

let workload tc n =
  for i = 0 to n - 1 do
    commit_one tc
      ~key:(Printf.sprintf "k%03d" (i mod 200))
      ~value:(Printf.sprintf "v%d" i)
  done

(* --- 1: cold restart-redo vs failover ------------------------------- *)

let run_loss_comparison () =
  let rows, speedups =
    List.split
      (List.map
         (fun n ->
           (* identical workloads on two identical deployments; only the
              way dc0 "dies" differs *)
           let cold_c = Instrument.create () in
           let cold_d, cold_tc = make_deploy ~counters:cold_c ~replicas:2 () in
           workload cold_tc n;
           let sent0 = Instrument.get cold_c "tc.requests_sent" in
           let (), cold_s =
             Bench_util.time (fun () -> Deploy.crash_dc cold_d "dc0")
           in
           let cold_redo = Instrument.get cold_c "tc.requests_sent" - sent0 in

           let warm_c = Instrument.create () in
           Metrics.set_timed warm_c true;
           let warm_d, warm_tc = make_deploy ~counters:warm_c ~replicas:2 () in
           workload warm_tc n;
           let m = Deploy.manager warm_d ~tc:"tc1" in
           let gap =
             List.fold_left
               (fun acc name -> min acc (Repl.Manager.lag m ~name))
               max_int
               (Deploy.replicas warm_d ~dc:"dc0")
           in
           let sent0 = Instrument.get warm_c "tc.requests_sent" in
           let (), warm_s =
             Bench_util.time (fun () -> Deploy.fail_over warm_d ~dc:"dc0")
           in
           let warm_redo = Instrument.get warm_c "tc.requests_sent" - sent0 in
           (* both survivors must still serve *)
           workload cold_tc 5;
           workload warm_tc 5;
           let speedup = cold_s /. Float.max warm_s 1e-9 in
           ( [
               string_of_int n;
               Printf.sprintf "%.2f" (cold_s *. 1e3);
               string_of_int cold_redo;
               Printf.sprintf "%.2f" (warm_s *. 1e3);
               string_of_int warm_redo;
               string_of_int gap;
               Printf.sprintf "%.1fx" speedup;
             ],
             speedup ))
         [ 100; 300; 600 ])
  in
  Bench_util.print_table
    ~title:"E12: losing a primary — cold restart-redo vs standby promotion"
    ~header:
      [
        "txns";
        "cold ms";
        "cold redo ops";
        "failover ms";
        "failover redo ops";
        "lag at kill (lsns)";
        "speedup";
      ]
    rows;
  speedups

(* --- 2: replication lag ---------------------------------------------- *)

let lag_row ~label counters =
  match Metrics.hist_snapshot counters "repl.lag_lsn" with
  | None -> [ label; "0"; "-"; "-"; "-"; "-" ]
  | Some s ->
    [
      label;
      string_of_int s.Metrics.s_count;
      string_of_int (Metrics.percentile s 50.);
      string_of_int (Metrics.percentile s 95.);
      string_of_int (Metrics.percentile s 99.);
      string_of_int s.Metrics.s_max;
    ]

let run_lag () =
  (* a delaying, reordering wire (no losses): shipped batches and their
     acks sit in flight for a few ticks, so the lag the engine observes
     at each pump is the real catch-up distance, not always zero *)
  let delayed =
    { Transport.reliable with delay_min = 0; delay_max = 3; reorder = true }
  in
  let rows =
    List.map
      (fun (label, durability) ->
        let counters = Instrument.create () in
        let d, tc =
          make_deploy ~counters ~policy:delayed ~durability ~replicas:2 ()
        in
        workload tc 300;
        Deploy.quiesce d;
        lag_row ~label counters)
      [
        ("Primary_only", Repl.Primary_only);
        ("Quorum 1", Repl.Quorum 1);
        ("Quorum 2", Repl.Quorum 2);
      ]
  in
  Bench_util.print_table
    ~title:"E12: replication lag at ack time (repl.lag_lsn, in LSNs)"
    ~header:[ "durability"; "samples"; "p50"; "p95"; "p99"; "max" ]
    rows

(* --- 3: durability-gate cost ------------------------------------------ *)

let run_gate_cost () =
  let n = 400 in
  (* throwaway run so allocator/GC state does not bill the first row *)
  (let d, tc = make_deploy ~durability:(Repl.Quorum 1) ~replicas:2 () in
   workload tc 200;
   Deploy.quiesce d);
  let rows =
    List.map
      (fun (label, durability, replicas) ->
        (* best of three fresh deployments: at tens of milliseconds per
           run, a single GC major slice would dominate the comparison *)
        let runs =
          List.init 3 (fun _ ->
              let counters = Instrument.create () in
              let d, tc = make_deploy ~counters ~durability ~replicas () in
              (* warm the key space so the timed loop is all updates *)
              workload tc 200;
              let (), s = Bench_util.time (fun () -> workload tc n) in
              Deploy.quiesce d;
              (s, Instrument.get counters "repl.ships"))
        in
        let s =
          List.fold_left (fun acc (s, _) -> Float.min acc s) max_float runs
        and ships = snd (List.hd runs) in
        [
          label;
          string_of_int replicas;
          Printf.sprintf "%.1f" (s *. 1e3);
          Printf.sprintf "%.1f" (s *. 1e6 /. float_of_int n);
          string_of_int ships;
        ])
      [
        ("no replication", Repl.Primary_only, 0);
        ("Primary_only", Repl.Primary_only, 2);
        ("Quorum 1", Repl.Quorum 1, 2);
        ("Quorum 2", Repl.Quorum 2, 2);
      ]
  in
  Bench_util.print_table
    ~title:
      (Printf.sprintf "E12: durability-gate cost (%d update txns, 2 parts)" n)
    ~header:[ "durability"; "replicas"; "total ms"; "us/txn"; "batches shipped" ]
    rows

(* --- 4: promoting a laggard — the catch-up price ---------------------- *)

let run_catchup_promotion () =
  let rows =
    List.map
      (fun n ->
        (* cold restart of the same shape, replicas = 1 throughout so the
           three columns compare like for like *)
        let cold_d, cold_tc = make_deploy ~replicas:1 () in
        workload cold_tc n;
        let (), cold_s =
          Bench_util.time (fun () -> Deploy.crash_dc cold_d "dc0")
        in
        workload cold_tc 5;

        (* caught-up standby: shipping has confirmed end-of-stable-log,
           so promotion re-drives at most one batch *)
        let warm_d, warm_tc = make_deploy ~replicas:1 () in
        workload warm_tc n;
        let (), warm_s =
          Bench_util.time (fun () -> Deploy.fail_over warm_d ~dc:"dc0")
        in
        workload warm_tc 5;

        (* detached laggard: frozen a fifth of the way in, a granted
           checkpoint advances the redo-scan start point past its
           cursor, and promotion must first re-ship the retained
           suffix — the repro_gap shape, timed *)
        let lag_c = Instrument.create () in
        let lag_d, lag_tc = make_deploy ~counters:lag_c ~replicas:1 () in
        let m = Deploy.manager lag_d ~tc:"tc1" in
        workload lag_tc (n / 5);
        Deploy.quiesce lag_d;
        let sbn = List.hd (Deploy.replicas lag_d ~dc:"dc0") in
        Repl.Manager.detach m ~name:sbn;
        for i = n / 5 to n - 1 do
          commit_one lag_tc
            ~key:(Printf.sprintf "k%03d" (i mod 200))
            ~value:(Printf.sprintf "v%d" i)
        done;
        Deploy.quiesce lag_d;
        let rec grant tries =
          if (not (Tc.checkpoint lag_tc)) && tries > 0 then begin
            Deploy.quiesce lag_d;
            List.iter
              (fun dc -> Dc.flush_all (Deploy.dc lag_d dc))
              [ "dc0"; "dc1" ];
            grant (tries - 1)
          end
        in
        grant 4;
        let (), lag_s =
          Bench_util.time (fun () -> Deploy.fail_over lag_d ~dc:"dc0")
        in
        let catchup = Instrument.get lag_c "repl.catchup_ops" in
        (* durability spot-check: the last write before the kill survives
           the laggard promotion *)
        let key = Printf.sprintf "k%03d" ((n - 1) mod 200) in
        (match Tc.read_committed lag_tc ~table ~key with
        | Some v when String.equal v (Printf.sprintf "v%d" (n - 1)) -> ()
        | _ ->
          Printf.printf "E12 FAILED: %s lost across catch-up promotion\n" key;
          exit 1);
        if catchup = 0 then begin
          Printf.printf
            "E12 FAILED: laggard promotion at %d txns re-shipped nothing\n" n;
          exit 1
        end;
        workload lag_tc 5;
        [
          string_of_int n;
          Printf.sprintf "%.2f" (cold_s *. 1e3);
          Printf.sprintf "%.2f" (warm_s *. 1e3);
          Printf.sprintf "%.2f" (lag_s *. 1e3);
          string_of_int catchup;
        ])
      [ 100; 300; 600 ]
  in
  Bench_util.print_table
    ~title:"E12: promoting a detached laggard — the catch-up price"
    ~header:
      [ "txns"; "cold ms"; "caught-up ms"; "catch-up ms"; "catch-up ops" ]
    rows

let run () =
  let speedups = run_loss_comparison () in
  run_lag ();
  run_gate_cost ();
  run_catchup_promotion ();
  (* acceptance: promotion must beat cold restart-redo clearly on the
     largest workload, where redo volume dominates fixed costs *)
  let last = List.nth speedups (List.length speedups - 1) in
  if last < 2. then begin
    Printf.printf
      "E12 FAILED: failover only %.1fx faster than cold restart at 600 txns\n"
      last;
    exit 1
  end;
  Printf.printf "E12 ok: failover %.1fx faster than cold restart-redo\n" last
