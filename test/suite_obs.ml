(* The observability layer's own laws: the histogram merge law (merging
   snapshots = recording into one histogram), percentile error bounds,
   the Instrument shim's exact counter semantics, trace-ring wrap
   accounting, and the JSONL emitter/parser round trip that pins the
   trace dump format. *)

module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Analyzer = Untx_obs.Analyzer
module Instrument = Untx_util.Instrument

let qtest prop = Helpers.qcheck_test prop

(* --- histograms ------------------------------------------------------- *)

let samples_arb =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(
      list_size (int_bound 200)
        (oneof
           [
             int_bound 10;
             int_bound 10_000;
             map (fun v -> v * 7919) (int_bound 1_000_000);
           ]))

let record_all name vs =
  let m = Metrics.create () in
  List.iter (Metrics.observe m name) vs;
  m

let prop_merge_law =
  (* Mergeability is what lets a deployment sum per-link histograms into
     a fleet view: merge of two snapshots must be *structurally* equal
     to the snapshot of one histogram that saw both streams.  Sums are
     integers, so there is no float non-associativity to hide behind. *)
  QCheck.Test.make ~name:"merge snapshots = record into one histogram"
    ~count:300
    (QCheck.pair samples_arb samples_arb)
    (fun (va, vb) ->
      let snap h =
        Option.value ~default:Metrics.empty_hsnap (Metrics.hist_snapshot h "h")
      in
      let sa = snap (record_all "h" va)
      and sb = snap (record_all "h" vb)
      and sall = snap (record_all "h" (va @ vb)) in
      Metrics.merge sa sb = sall && Metrics.merge sb sa = sall)

let prop_percentile_bounds =
  (* The geometric buckets promise: the estimate never undershoots the
     true ordered sample and overshoots by at most a quarter (+1 for
     the integer floor at tiny values). *)
  QCheck.Test.make ~name:"percentile overshoots by at most 25%" ~count:300
    (QCheck.pair samples_arb QCheck.(int_range 1 100))
    (fun (vs, p) ->
      vs = []
      ||
      let vs = List.map abs vs in
      let m = record_all "h" vs in
      let s = Option.get (Metrics.hist_snapshot m "h") in
      let sorted = List.sort compare vs in
      let n = List.length sorted in
      let k =
        max 1
          (int_of_float (ceil (float_of_int p /. 100. *. float_of_int n)))
      in
      let truth = List.nth sorted (k - 1) in
      let est = Metrics.percentile s (float_of_int p) in
      truth <= est && est <= truth + (truth / 4) + 1)

let test_hist_basics () =
  let m = Metrics.create () in
  Alcotest.(check (option reject)) "no histogram before any observe" None
    (Metrics.hist_snapshot m "h");
  List.iter (Metrics.observe m "h") [ 5; 1; 100; 100_000 ];
  let s = Option.get (Metrics.hist_snapshot m "h") in
  Alcotest.(check int) "count" 4 s.Metrics.s_count;
  Alcotest.(check int) "sum" 100_106 s.Metrics.s_sum;
  Alcotest.(check int) "min" 1 s.Metrics.s_min;
  Alcotest.(check int) "max" 100_000 s.Metrics.s_max;
  Alcotest.(check int) "p100 clamps to the true max" 100_000
    (Metrics.percentile s 100.);
  Alcotest.(check (list string)) "hist_names" [ "h" ] (Metrics.hist_names m)

let test_timing_gate () =
  let m = Metrics.create () in
  Alcotest.(check bool) "timing off by default" false (Metrics.timed m);
  let t0 = Metrics.start m in
  Alcotest.(check bool) "disabled start returns the sentinel" true (t0 < 0);
  Metrics.stop m "gated_ns" t0;
  Alcotest.(check (option reject)) "disabled stop records nothing" None
    (Metrics.hist_snapshot m "gated_ns");
  Metrics.set_timed m true;
  let t0 = Metrics.start m in
  Metrics.stop m "gated_ns" t0;
  let s = Option.get (Metrics.hist_snapshot m "gated_ns") in
  Alcotest.(check int) "enabled stop records one sample" 1 s.Metrics.s_count

(* --- the Instrument shim ---------------------------------------------- *)

(* Every counter name the benches read back; the shim must keep their
   semantics bit-exact or E1..E11's tables silently drift. *)
let bench_counter_names =
  [
    "cache.evict_scan_steps"; "cache.evict_skips"; "cache.evictions";
    "cache.flushes"; "dc.classical_test_would_lie"; "dc.meta_bytes_flushed";
    "dc.misrouted"; "dc.out_of_order_arrivals"; "dc.requests";
  ]

type cop = Bump of int | Bump_by of int * int | Reset

let cop_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Bump i) (int_bound 8));
        ( 4,
          map2
            (fun i n -> Bump_by (i, n - 50))
            (int_bound 8) (int_bound 100) );
        (1, return Reset);
      ])

let cops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Bump i -> Printf.sprintf "bump %d" i
             | Bump_by (i, n) -> Printf.sprintf "bump_by %d %d" i n
             | Reset -> "reset")
           ops))
    QCheck.Gen.(list_size (int_bound 60) cop_gen)

let prop_shim_matches_model =
  QCheck.Test.make
    ~name:"Instrument shim preserves exact counter semantics" ~count:300
    cops_arb (fun ops ->
      let t = Instrument.create () in
      let model : (string, int) Hashtbl.t = Hashtbl.create 16 in
      let mget name = Option.value ~default:0 (Hashtbl.find_opt model name) in
      List.iter
        (fun op ->
          match op with
          | Bump i ->
            let name = List.nth bench_counter_names i in
            Instrument.bump t name;
            Hashtbl.replace model name (mget name + 1)
          | Bump_by (i, n) ->
            let name = List.nth bench_counter_names i in
            Instrument.bump_by t name n;
            Hashtbl.replace model name (mget name + n)
          | Reset ->
            Instrument.reset t;
            Hashtbl.iter (fun k _ -> Hashtbl.replace model k 0) model)
        ops;
      List.for_all
        (fun name -> Instrument.get t name = mget name)
        bench_counter_names
      && Instrument.snapshot t
         = (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
           |> List.sort (fun (a, _) (b, _) -> String.compare a b)))

(* --- the trace ring --------------------------------------------------- *)

let with_trace f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_capacity 65_536)
    f

let test_ring_wrap () =
  with_trace (fun () ->
      Trace.set_capacity 8;
      Trace.set_enabled true;
      for i = 0 to 19 do
        Trace.record ~tid:1 ~comp:"t" ~ev:(string_of_int i) []
      done;
      Alcotest.(check int) "recorded counts overwritten events" 20
        (Trace.recorded ());
      Alcotest.(check int) "dropped = recorded - capacity" 12
        (Trace.dropped ());
      let evs = Trace.events () in
      Alcotest.(check int) "ring holds capacity events" 8 (List.length evs);
      Alcotest.(check (list int)) "oldest-first, newest retained"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (List.map (fun e -> e.Trace.e_seq) evs))

let test_disabled_is_inert () =
  Trace.clear ();
  Trace.set_enabled false;
  Trace.record ~tid:1 ~comp:"t" ~ev:"x" [];
  Alcotest.(check int) "disabled record is a no-op" 0 (Trace.recorded ());
  Alcotest.(check int) "disabled fresh_tid is the reserved id" 0
    (Trace.fresh_tid ())

(* Attribute strings with every escape class the emitter handles. *)
let attr_string_gen =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" cs)
      (list_size (int_bound 12)
         (oneofl
            [ "a"; "Z"; "0"; " "; "\""; "\\"; "\n"; "\r"; "\t"; "\x01"; "{"; ":" ])))

let jsonl_case_arb =
  QCheck.make
    ~print:(fun (tid, comp, ev, attrs) ->
      Printf.sprintf "tid=%d comp=%S ev=%S attrs=[%s]" tid comp ev
        (String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) attrs)))
    QCheck.Gen.(
      quad (int_range 1 0xFFFF) attr_string_gen attr_string_gen
        (list_size (int_bound 4) (pair attr_string_gen attr_string_gen)))

let prop_jsonl_roundtrip =
  (* The emitter and the analyzer's parser are a pinned pair: whatever
     escaping record applies, of_jsonl must undo exactly.  Times are
     emitted at 100ns resolution, hence the tolerance. *)
  QCheck.Test.make ~name:"trace dump round-trips through the analyzer"
    ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 10) jsonl_case_arb)
    (fun cases ->
      Trace.clear ();
      Trace.set_enabled true;
      Fun.protect ~finally:(fun () -> Trace.set_enabled false) @@ fun () ->
      List.iter
        (fun (tid, comp, ev, attrs) -> Trace.record ~tid ~comp ~ev attrs)
        cases;
      let original = Trace.events () in
      let parsed = Analyzer.of_jsonl (Trace.to_jsonl ()) in
      List.length parsed = List.length original
      && List.for_all2
           (fun (a : Trace.event) (b : Trace.event) ->
             a.Trace.e_tid = b.Trace.e_tid
             && a.Trace.e_seq = b.Trace.e_seq
             && a.Trace.e_comp = b.Trace.e_comp
             && a.Trace.e_ev = b.Trace.e_ev
             && a.Trace.e_attrs = b.Trace.e_attrs
             && Float.abs (a.Trace.e_t -. b.Trace.e_t) < 1e-6)
           original parsed)

let test_analyzer_reconstructs_synthetic () =
  (* A hand-built two-operation trace: op 1 completes cleanly on
     partition 0; op 2 is dropped once, resent, and its duplicate is
     absorbed on partition 1.  The analyzer must reattach every event to
     its operation and read the resend/skip chains off the timelines. *)
  with_trace (fun () ->
      let t1 = Trace.fresh_tid () and t2 = Trace.fresh_tid () in
      Trace.record ~tid:t1 ~comp:"tc" ~ev:"dispatch" [ ("lsn", "1") ];
      Trace.record ~tid:t2 ~comp:"tc" ~ev:"dispatch" [ ("lsn", "2") ];
      Trace.record ~tid:t1 ~comp:"transport" ~ev:"xmit"
        [ ("ch", "data"); ("dir", "req") ];
      Trace.record ~tid:t2 ~comp:"transport" ~ev:"drop"
        [ ("ch", "data"); ("dir", "req") ];
      Trace.record ~tid:t1 ~comp:"dc" ~ev:"apply"
        [ ("part", "0"); ("lsn", "1") ];
      Trace.record ~tid:t1 ~comp:"tc" ~ev:"ack" [ ("lsn", "1") ];
      Trace.record ~tid:t2 ~comp:"tc" ~ev:"resend" [ ("lsn", "2") ];
      Trace.record ~tid:t2 ~comp:"dc" ~ev:"apply"
        [ ("part", "1"); ("lsn", "2") ];
      Trace.record ~tid:t2 ~comp:"dc" ~ev:"skip"
        [ ("part", "1"); ("lsn", "2") ];
      Trace.record ~tid:t2 ~comp:"tc" ~ev:"ack" [ ("lsn", "2") ];
      let r = Analyzer.analyze (Trace.events ()) in
      Alcotest.(check int) "two timelines" 2 (List.length r.Analyzer.r_timelines);
      Alcotest.(check int) "no orphans" 0 r.Analyzer.r_orphans;
      let tl tid =
        List.find (fun tl -> tl.Analyzer.tl_tid = tid) r.Analyzer.r_timelines
      in
      Alcotest.(check int) "op1 has no resends" 0 (tl t1).Analyzer.tl_resends;
      Alcotest.(check int) "op2 resent once" 1 (tl t2).Analyzer.tl_resends;
      Alcotest.(check int) "op2 absorbed one duplicate" 1
        (tl t2).Analyzer.tl_skips;
      Alcotest.(check (option int)) "op1 on partition 0" (Some 0)
        (tl t1).Analyzer.tl_part;
      Alcotest.(check (option int)) "op2 on partition 1" (Some 1)
        (tl t2).Analyzer.tl_part;
      Alcotest.(check bool) "both round trips measured" true
        ((tl t1).Analyzer.tl_rtt_ns <> None
        && (tl t2).Analyzer.tl_rtt_ns <> None);
      Alcotest.(check int) "per-partition skew table has both partitions" 2
        (List.length r.Analyzer.r_parts))

let suite =
  [
    qtest prop_merge_law;
    qtest prop_percentile_bounds;
    Alcotest.test_case "histogram snapshot basics" `Quick test_hist_basics;
    Alcotest.test_case "timing helpers gate on set_timed" `Quick
      test_timing_gate;
    qtest prop_shim_matches_model;
    Alcotest.test_case "trace ring wraps with exact accounting" `Quick
      test_ring_wrap;
    Alcotest.test_case "disabled tracing is inert" `Quick
      test_disabled_is_inert;
    qtest prop_jsonl_roundtrip;
    Alcotest.test_case "analyzer reconstructs a synthetic timeline" `Quick
      test_analyzer_reconstructs_synthetic;
  ]
