(* front_ingest: the session front end over 2 TCs and 2 hash-partitioned
   DCs, one warm standby per partition, [Quorum 1] durability, layer
   stores on, 4-commit group batches.  8 client sessions each keep
   their pipeline full — submit, pump, poll — and every transaction is
   one unversioned insert of a fresh key.  The DC caches hold 64 pages,
   far below the data, so every batch evicts and flushes under the
   end-of-stable-log rule.

   [Deploy] owns its transports, so the traced run spans only the
   [Front] calls and reads the counter registry for the layers below. *)

module Deploy = Untx_cloud.Deploy
module Front = Untx_front.Front
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Repl = Untx_repl.Repl
module Mono = Untx_baseline.Mono
module Rng = Untx_util.Rng
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Audit = Untx_audit.Audit
module Samples = Probe.Samples
module Spans = Probe.Spans
module Speed = Probe.Speed

let tcs = [ "tc1"; "tc2" ]

let dcs = [ "dc1"; "dc2" ]

let sessions = 8

(* each TC's sessions insert into the TC's own table: disjoint updaters *)
let table_of_tc tc = "rows_" ^ tc

let preload_txns = 1000

let episode_txns = 3000

let windows = 10

(* Fresh keys: a seed-derived scatter prefix, then a counter, so keys
   never repeat and land all over the key space. *)
type keygen = { rng : Rng.t; mutable n : int }

let fresh_row g =
  g.n <- g.n + 1;
  let key = Printf.sprintf "u%08x-%08d" (Rng.int g.rng 0x3fffffff) g.n in
  (key, String.init 16 (fun _ -> Char.chr (Char.code 'a' + Rng.int g.rng 26)))

type world = {
  d : Deploy.t;
  front : Front.t;
  counters : Instrument.t;
  sess : Front.session array;
  shadow : (string, (string, string) Hashtbl.t) Hashtbl.t;  (* per table *)
  keys : keygen;
}

let setup ~seed =
  let counters = Instrument.create () in
  let d =
    Deploy.create ~counters ~policy:Transport.reliable
      ~durability:(Repl.Quorum 1) ~layers:true ~seed ()
  in
  List.iteri
    (fun i name ->
      ignore
        (Deploy.add_tc d ~name
           { (Tc.default_config (Tc_id.of_int (i + 1))) with lwm_every = 16 }))
    tcs;
  List.iter
    (fun name ->
      ignore
        (Deploy.add_dc d ~name
           { Dc.default_config with page_capacity = 256; cache_pages = 64 }))
    dcs;
  List.iter
    (fun tc ->
      Deploy.add_partitioned_table d ~replicas:1 ~name:(table_of_tc tc)
        ~versioned:false ~dcs ())
    tcs;
  let front =
    Front.create ~counters ~cfg:{ Front.default_config with batch = 4 } d
  in
  let sess = Array.init sessions (fun _ -> Front.open_session front) in
  let shadow = Hashtbl.create 2 in
  List.iter (fun tc -> Hashtbl.replace shadow (table_of_tc tc) (Hashtbl.create 4096)) tcs;
  { d; front; counters; sess; shadow; keys = { rng = Rng.create ~seed; n = 0 } }

type stats = {
  mutable committed : int;
  mutable rejected : int;
  latency_us : Samples.t;  (* submit to done *)
  pending : Samples.t;  (* Front.pending after each submit round *)
  lag : Samples.t;  (* replica lag (LSNs) after each pump *)
}

let stats () =
  {
    committed = 0;
    rejected = 0;
    latency_us = Samples.create ();
    pending = Samples.create ();
    lag = Samples.create ();
  }

let depth = Front.default_config.Front.session_queue

(* The closed loop: keep every session's pipeline [depth] deep, pump one
   transaction per session, poll the heads.  Runs until [txns] have
   finished. *)
let drive ?spans ?(sample_lag = false) w ~txns st =
  let sp name =
    match spans with
    | None -> fun f -> f ()
    | Some s ->
      let key = Spans.name_id s name in
      fun f -> Spans.span s key f
  in
  let sp_submit = sp "front.submit" and sp_pump = sp "front.pump" in
  let sp_poll = sp "front.poll" in
  let queues = Array.map (fun _ -> Queue.create ()) w.sess in
  let submitted = ref 0 and finished = ref 0 in
  while !finished < txns do
    Array.iteri
      (fun i s ->
        while Queue.length queues.(i) < depth && !submitted < txns do
          let table = table_of_tc (Front.session_tc s) in
          let key, value = fresh_row w.keys in
          let born = Probe.now_ns () in
          match
            sp_submit (fun () ->
                Front.submit w.front s [ Front.Insert { table; key; value } ])
          with
          | `Ticket t ->
            incr submitted;
            Queue.push (t, born, table, key, value) queues.(i)
          | `Overloaded why -> failwith ("front_ingest: refused: " ^ why)
        done)
      w.sess;
    Samples.add st.pending (float_of_int (Front.pending w.front));
    ignore (sp_pump (fun () -> Front.pump ~budget:sessions w.front));
    if sample_lag then
      List.iter
        (fun tc ->
          let m = Deploy.manager w.d ~tc in
          List.iter
            (fun dc ->
              List.iter
                (fun name -> Samples.add st.lag (float_of_int (Repl.Manager.lag m ~name)))
                (Deploy.replicas w.d ~dc))
            dcs)
        tcs;
    Array.iter
      (fun q ->
        let rec poll () =
          match Queue.peek_opt q with
          | None -> ()
          | Some (t, born, table, key, value) -> (
            match sp_poll (fun () -> Front.poll w.front t) with
            | `Pending -> ()
            | `Done r ->
              ignore (Queue.pop q);
              incr finished;
              (match r with
              | Front.Committed _ ->
                st.committed <- st.committed + 1;
                Samples.add st.latency_us
                  (float_of_int (Probe.now_ns () - born) /. 1e3);
                Hashtbl.replace (Hashtbl.find w.shadow table) key value
              | Front.Rejected _ -> st.rejected <- st.rejected + 1);
              poll ())
        in
        poll ())
      queues
  done

let reading w =
  let dc_objs =
    List.concat_map
      (fun dc ->
        Deploy.dc w.d dc
        :: List.map
             (fun r -> Repl.Standby.dc (Deploy.standby w.d r))
             (Deploy.replicas w.d ~dc))
      dcs
  in
  Cost.read ~tcs:(List.map (Deploy.tc w.d) tcs) ~dcs:dc_objs w.counters

type episode = {
  setup_s : float;
  pieces : (float * float) array;  (* per window: seconds, slowness *)
  st : stats;
  cost : Cost.t;
  heap_mb : float;
}

(* Set-up: the deployment plus [preload_txns] inserts through the front,
   flushed.  Then [windows] timed windows of [episode_txns / windows].
   Every timing is divided by the machine's slowness around it
   ([Probe.Speed]). *)
let episode ?spans ?sample_lag ~seed () =
  Gc.compact ();
  let w, setup_s =
    Speed.timed (fun () ->
        let w = setup ~seed in
        drive w ~txns:preload_txns (stats ());
        Front.flush w.front;
        w)
  in
  let st = stats () and before = reading w in
  Gc.full_major ();
  Option.iter (fun s -> s.Spans.on <- true) spans;
  let pieces =
    Speed.pieces ~lat:st.latency_us windows (fun _ ->
        Probe.time (fun () ->
            drive ?spans ?sample_lag w ~txns:(episode_txns / windows) st))
  in
  Option.iter (fun s -> s.Spans.on <- false) spans;
  let heap_mb = Kv.heap_mb () in
  let cost = Cost.delta before (reading w) in
  (w, { setup_s; pieces; st; cost; heap_mb })

let txn_per_s e = float_of_int e.st.committed /. Speed.seconds e.pieces

let measured_txn_per_s e = float_of_int e.st.committed /. Speed.raw e.pieces

(* After the run: close the open group-commit batches, let the
   standbys catch up, then audit every TC's table and the watermarks. *)
let check out w =
  Front.flush w.front;
  Deploy.settle_replicas w.d;
  List.iter
    (fun tc ->
      let table = table_of_tc tc in
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) (Hashtbl.find w.shadow table) []
        |> List.sort compare
      in
      let r = Audit.run_deploy w.d ~tc ~table ~expected in
      List.iter
        (fun v -> Report.check out false "front_ingest %s: audit: %s" tc v)
        r.Audit.violations)
    tcs;
  List.iter
    (fun v -> Report.check out false "front_ingest: watermarks: %s" v)
    (Audit.check_watermarks w.d)

let tally out e =
  out.Report.attempted <- out.Report.attempted + e.st.committed + e.st.rejected;
  out.Report.failed <- out.Report.failed + e.st.rejected

let front_ingest out ~seed ~seconds =
  let lat = Samples.create () and first = ref None in
  let eps =
    Probe.repeat ~seconds ~min:3 (fun () ->
        let w, e = episode ~seed () in
        first := Cost.check_repeat out ~what:"front_ingest" !first e.cost;
        check out w;
        tally out e;
        Samples.append lat e.st.latency_us;
        e)
  in
  let e = List.hd eps in
  Report.line "front_ingest: %d episodes of %d inserts after a %d-insert preload"
    (List.length eps) episode_txns preload_txns;
  Report.end_to_end out ~what:"submit-to-done latency"
    ~tps:(List.map txn_per_s eps) ~measured:(List.map measured_txn_per_s eps) ~lat ~tail:99. ~wire_bytes:(Cost.wire_bytes e.cost)
    ~storage_ios:(Cost.storage_ios e.cost) ~units:e.st.committed
    ~heaps:(List.map (fun e -> e.heap_mb) eps)
    ~setups:(List.map (fun e -> e.setup_s) eps)
    ~slow:(List.concat_map (fun e -> Speed.slownesses e.pieces) eps)

(* The monolith inserting the same rows, one forced transaction each. *)
let mono_txn_per_s ~seed =
  let m =
    Mono.create { Mono.default_config with page_capacity = 256; cache_pages = 128 }
  in
  List.iter (fun tc -> Mono.create_table m ~name:(table_of_tc tc)) tcs;
  let keys = { rng = Rng.create ~seed; n = 0 } in
  let insert i =
    let table = table_of_tc (List.nth tcs (i mod List.length tcs)) in
    let key, value = fresh_row keys in
    let txn = Mono.begin_txn m in
    (match Mono.insert m txn ~table ~key ~value with
    | `Ok () -> ()
    | `Blocked | `Fail _ -> failwith "front_ingest: a Mono insert failed");
    match Mono.commit m txn with
    | `Ok () -> ()
    | `Blocked | `Fail _ -> failwith "front_ingest: a Mono commit failed"
  in
  for i = 1 to preload_txns do
    insert i
  done;
  let (), secs =
    Speed.timed (fun () ->
        for i = 1 to episode_txns do
          insert i
        done)
  in
  float_of_int episode_txns /. secs

let front_ingest_traced out ~seed ~seconds ~spans_dir =
  let spans = Spans.create () and first = ref None in
  let rounds =
    Probe.repeat ~seconds ~min:3 (fun () ->
        let _, te = episode ~spans ~sample_lag:true ~seed () in
        let pw, pe = episode ~seed () in
        Kv.check_parity out ~what:"front_ingest" pe.cost te.cost;
        first := Cost.check_repeat out ~what:"front_ingest traced" !first te.cost;
        check out pw;
        tally out te;
        (te, pe, mono_txn_per_s ~seed))
  in
  let traced = List.map (fun (te, _, _) -> te) rounds in
  let plain = List.map (fun (_, pe, _) -> pe) rounds in
  let te = List.hd traced in
  let committed = te.st.committed in
  let units = List.fold_left (fun acc e -> acc + e.st.committed) 0 traced in
  Cost.report_layers out te.cost ~units:committed;
  let per name = Report.per (Cost.get te.cost name) committed in
  let m = Report.metric out in
  let pending = Samples.create () and lag = Samples.create () in
  List.iter
    (fun e ->
      Samples.append pending e.st.pending;
      Samples.append lag e.st.lag)
    traced;
  m "front.submit_us" "us" (Kv.p50_us spans "front.submit");
  m "front.pump_us_per_txn" "us"
    (Kv.us (Spans.self_ns spans "front.pump") /. float_of_int units);
  m "front.batched_frac" "fraction" (per "front.batched");
  m "front.pending_p99" "count" (Samples.percentile pending 99.);
  m "repl.ships_per_txn" "count" (per "repl.ships");
  m "repl.ship_bytes_per_txn" "B" (per "repl.ship_bytes");
  m "repl.lag_p99_lsn" "count" (Samples.percentile lag 99.);
  m "layer.ingest_ops_per_txn" "count" (per "layer.ingest_ops");
  m "layer.compactions_per_ktxn" "count" (1000. *. per "layer.compactions");
  let wall_ns =
    int_of_float (1e9 *. List.fold_left (fun a e -> a +. Speed.raw e.pieces) 0. traced)
  in
  let front_ns = Spans.layer_self_ns spans "front." in
  Report.line "traced wall %.1f ms, front calls %.1f%% of it" (Kv.ms wall_ns)
    (100. *. Report.per front_ns wall_ns);
  m "trace.unattributed_frac" "fraction" (Report.per (wall_ns - front_ns) wall_ns);
  let plain_tps = Probe.median_of (List.map txn_per_s plain) in
  let traced_tps = Probe.median_of (List.map txn_per_s traced) in
  let mono_tps = Probe.median_of (List.map (fun (_, _, m) -> m) rounds) in
  Report.line "throughput: front %.0f, traced front %.0f, Mono %.0f txns/s" plain_tps
    traced_tps mono_tps;
  m "baseline.mono_txn_per_s" "1/s" mono_tps;
  m "baseline.gap" "x" (mono_tps /. plain_tps);
  let secs (dt, s) = dt /. s in
  m "run.late_over_early" "x"
    (Probe.median_of
       (List.map (fun e -> secs e.pieces.(0) /. secs e.pieces.(windows - 1)) plain));
  m "trace.overhead_frac" "fraction" (1. -. (traced_tps /. plain_tps));
  Kv.report_slowness out (List.concat_map (fun e -> Speed.slownesses e.pieces) traced);
  Kv.write_spans spans ~dir:spans_dir ~workload:"front_ingest"

