(* E13 — the layered log storage tier: what compaction costs, what
   reads over layered history cost, and what the layers buy back.

   1. L0 -> L1 compaction cost: absorb a synthetic op stream, then merge
      the sealed runs into one sorted deduplicated L1 layer.  The merge
      is sort-dominated, so cost per op should stay flat-ish as the
      stream grows.

   2. Read amplification vs layer count: the same stream compacted into
      1, 4, or 16 L1 layers, then point-in-time lookups at random LSNs.
      Each lookup probes newest-first until a layer's range covers the
      LSN and holds the key — the probe count is the read
      amplification, recorded by the store itself (layer.read_amp).

   3. Standby creation, two ways.  Full-redo: a fresh standby attaches
      at cursor zero and shipping replays the entire stable log into
      it.  Bootstrap-from-layers: the log has been truncated (layers
      made that legal), the standby is seeded with the store's
      materialized current state, and shipping replays only the
      post-layer suffix.  The redo-op count is the structural story:
      installs replace replays, and the replayed suffix shrinks to
      (usually) nothing.

   4. The truncation floor: a detached laggard used to pin the log at
      its frozen cursor; once compaction makes its history durable in
      layers, a granted checkpoint truncates straight past it. *)

module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Layer = Untx_layer.Layer
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Op = Untx_msg.Op
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics

let table = "kv"

(* --- 1: compaction cost ----------------------------------------------- *)

(* A synthetic stable stream: round-robin updates over a small key
   space, fed straight into a store (no deployment in the way). *)
let synth_ops n =
  List.init n (fun i ->
      let key = Printf.sprintf "k%03d" (i mod 200) in
      if i < 200 then Op.Insert { table; key; value = Printf.sprintf "v%d" i }
      else Op.Update { table; key; value = Printf.sprintf "v%d" i })

let feed ops emit = List.iteri (fun i op -> emit (Lsn.of_int (i + 1)) op) ops

let mk_store ?counters ?l0_seal_ops () =
  Layer.create ?counters ?l0_seal_ops ~compact_runs:max_int
    ~writer:(Tc_id.of_int 1)
    ~versioned:(fun _ -> false)
    ()

let run_compaction_cost () =
  let rows =
    List.map
      (fun n ->
        let s = mk_store () in
        Layer.absorb s ~upto:(Lsn.of_int n) (feed (synth_ops n));
        let runs = Layer.l0_runs s in
        let (), sec = Bench_util.time (fun () -> Layer.compact ~all:true s) in
        [
          string_of_int n;
          string_of_int runs;
          Printf.sprintf "%.2f" (sec *. 1e3);
          Printf.sprintf "%.2f" (sec *. 1e6 /. float_of_int n);
          string_of_int (Layer.l1_entries s);
        ])
      [ 1_000; 4_000; 16_000 ]
  in
  Bench_util.print_table ~title:"E13: L0 -> L1 compaction cost"
    ~header:[ "ops"; "L0 runs"; "compact ms"; "us/op"; "L1 entries" ]
    rows

(* --- 2: read amplification vs layer count ----------------------------- *)

let run_read_amplification () =
  let n = 4_096 in
  let lookups = 2_000 in
  let ops = synth_ops n in
  let rows =
    List.map
      (fun layers ->
        let counters = Instrument.create () in
        let s = mk_store ~counters () in
        (* split the stream into [layers] chunks, compacting after each:
           every chunk becomes one L1 layer covering its LSN range *)
        let chunk = n / layers in
        List.iteri
          (fun i _ ->
            let upto = min n ((i + 1) * chunk) in
            if upto > Lsn.to_int (Layer.ingested_lsn s) then begin
              Layer.absorb s ~upto:(Lsn.of_int upto) (feed ops);
              Layer.compact ~all:true s
            end)
          (List.init layers Fun.id);
        Layer.absorb s ~upto:(Lsn.of_int n) (feed ops);
        Layer.compact ~all:true s;
        let rng = ref 0x2F6E2B1 in
        let next_int bound =
          rng := (!rng * 1103515245) + 12345;
          abs !rng mod bound
        in
        let (), sec =
          Bench_util.time (fun () ->
              for _ = 1 to lookups do
                let key = Printf.sprintf "k%03d" (next_int 200) in
                let at = Lsn.of_int (1 + next_int n) in
                ignore (Layer.reconstruct s ~table ~key ~at)
              done)
        in
        let amp =
          match Metrics.hist_snapshot counters "layer.read_amp" with
          | Some h ->
            ( Metrics.percentile h 50.,
              Metrics.percentile h 99.,
              h.Metrics.s_max )
          | None -> (0, 0, 0)
        in
        let p50, p99, mx = amp in
        [
          string_of_int (Layer.l1_layers s);
          Printf.sprintf "%.2f" (sec *. 1e6 /. float_of_int lookups);
          string_of_int p50;
          string_of_int p99;
          string_of_int mx;
        ])
      [ 1; 4; 16 ]
  in
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "E13: read amplification vs layer count (%d ops, %d lookups)" n
         lookups)
    ~header:[ "L1 layers"; "us/lookup"; "amp p50"; "amp p99"; "amp max" ]
    rows

(* --- 3 & 4: standby creation and the truncation floor ----------------- *)

let make_deploy ?counters ?(layers = false) ~replicas () =
  let d = Deploy.create ?counters ~layers () in
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

let grant_checkpoint d tc =
  let flush () =
    List.iter (fun dc -> Dc.flush_all (Deploy.dc d dc)) [ "dc0"; "dc1" ]
  in
  flush ();
  let rec grant tries =
    if (not (Tc.checkpoint tc)) && tries > 0 then begin
      Deploy.quiesce d;
      flush ();
      grant (tries - 1)
    end
  in
  grant 4

let run_standby_creation () =
  let rows, redo_pairs =
    List.split
      (List.map
         (fun n ->
           (* full-redo: the whole retained log re-ships into the fresh
              standby, record by record *)
           let full_c = Instrument.create () in
           let full_d, full_tc = make_deploy ~counters:full_c ~replicas:0 () in
           workload full_tc n;
           Deploy.quiesce full_d;
           let (), full_s =
             Bench_util.time (fun () ->
                 ignore (Deploy.add_replica full_d ~dc:"dc0");
                 Deploy.settle_replicas full_d)
           in
           let full_redo = Instrument.get full_c "repl.standby_ops" in

           (* bootstrap-from-layers: compaction + a granted checkpoint
              first, so the log is truncated and full redo is not even
              possible — installs replace replays *)
           let lay_c = Instrument.create () in
           let lay_d, lay_tc =
             make_deploy ~counters:lay_c ~layers:true ~replicas:0 ()
           in
           workload lay_tc n;
           Deploy.quiesce lay_d;
           let m = Deploy.manager lay_d ~tc:"tc1" in
           Repl.Manager.compact_layers m;
           grant_checkpoint lay_d lay_tc;
           let (), lay_s =
             Bench_util.time (fun () ->
                 ignore (Deploy.add_replica lay_d ~dc:"dc0");
                 Deploy.settle_replicas lay_d)
           in
           let lay_redo = Instrument.get lay_c "repl.standby_ops" in
           let installs = Instrument.get lay_c "repl.bootstrap_installs" in
           ( [
               string_of_int n;
               Printf.sprintf "%.2f" (full_s *. 1e3);
               string_of_int full_redo;
               Printf.sprintf "%.2f" (lay_s *. 1e3);
               string_of_int installs;
               string_of_int lay_redo;
             ],
             (n, full_redo, lay_redo) ))
         [ 100; 300; 600 ])
  in
  Bench_util.print_table
    ~title:"E13: standby creation — full log redo vs layer bootstrap"
    ~header:
      [
        "txns";
        "full-redo ms";
        "redo ops";
        "bootstrap ms";
        "installs";
        "redo ops (suffix)";
      ]
    rows;
  redo_pairs

let run_truncation_floor () =
  let counters = Instrument.create () in
  let d, tc = make_deploy ~counters ~layers:true ~replicas:1 () in
  workload tc 60;
  Deploy.quiesce d;
  let m = Deploy.manager d ~tc:"tc1" in
  let sbn = List.hd (Deploy.replicas d ~dc:"dc0") in
  let frozen =
    Repl.Standby.applied (Deploy.standby d sbn) ~tc:(Tc.id tc)
  in
  Repl.Manager.detach m ~name:sbn;
  workload tc 540;
  Deploy.quiesce d;
  let before = Tc.log_retained_from tc in
  Repl.Manager.compact_layers m;
  grant_checkpoint d tc;
  let after = Tc.log_retained_from tc in
  Bench_util.print_table
    ~title:"E13: log truncation with a detached laggard (600 txns)"
    ~header:
      [ "laggard cursor"; "retained before"; "retained after"; "freed lsns" ]
    [
      [
        string_of_int (Lsn.to_int frozen);
        string_of_int (Lsn.to_int before);
        string_of_int (Lsn.to_int after);
        string_of_int (Lsn.to_int after - Lsn.to_int before);
      ];
    ];
  if not Lsn.(after > Lsn.next frozen) then begin
    Printf.printf "E13 FAILED: truncation still pinned by the laggard\n";
    exit 1
  end

let run () =
  run_compaction_cost ();
  run_read_amplification ();
  let redo = run_standby_creation () in
  run_truncation_floor ();
  (* acceptance: the layer bootstrap must replay strictly fewer redo
     ops than the full-redo standby at every size, 600 included *)
  List.iter
    (fun (n, full, lay) ->
      if lay >= full then begin
        Printf.printf
          "E13 FAILED: layer bootstrap replayed %d redo ops vs full-redo %d \
           at %d txns\n"
          lay full n;
        exit 1
      end)
    redo;
  let _, full600, lay600 =
    List.nth redo (List.length redo - 1)
  in
  Printf.printf "E13 ok: bootstrap replayed %d redo ops vs %d full-redo\n"
    lay600 full600
