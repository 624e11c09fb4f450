(* Shared helpers for the experiment harness: wall-clock timing, table
   rendering, engine construction. *)

module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Engine = Untx_kernel.Engine
module Driver = Untx_kernel.Driver
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Mono = Untx_baseline.Mono
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* --- table printing --------------------------------------------------- *)

let print_table ~title ~header rows =
  let all = header :: rows in
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell -> max (List.nth acc i) (String.length cell))
          row)
      (List.map (fun _ -> 0) header)
      all
  in
  let line c =
    print_string "+";
    List.iter (fun w -> print_string (String.make (w + 2) c ^ "+")) widths;
    print_newline ()
  in
  let render row =
    print_string "|";
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        Printf.printf " %-*s |" w cell)
      row;
    print_newline ()
  in
  Printf.printf "\n%s\n" title;
  line '-';
  render header;
  line '=';
  List.iter render rows;
  line '-'

let fmt_f f = Printf.sprintf "%.1f" f

let fmt_f2 f = Printf.sprintf "%.2f" f

let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n

(* --- histogram rendering ----------------------------------------------- *)

(* One row per named histogram that actually saw samples.  Latency
   histograms (the [_ns] naming convention, possibly with a
   per-partition suffix as in [dc.apply_ns.p3]) render with human
   units; size histograms render raw. *)
let is_ns_hist name =
  let n = String.length name in
  let rec go i = i + 3 <= n && (String.sub name i 3 = "_ns" || go (i + 1)) in
  go 0

let print_hists ~title c names =
  let rows =
    List.filter_map
      (fun name ->
        match Metrics.hist_snapshot c name with
        | None -> None
        | Some s ->
          let fmt v =
            if is_ns_hist name then Metrics.fmt_ns v else string_of_int v
          in
          Some
            [
              name;
              string_of_int s.Metrics.s_count;
              fmt (Metrics.percentile s 50.);
              fmt (Metrics.percentile s 95.);
              fmt (Metrics.percentile s 99.);
              fmt s.Metrics.s_max;
            ])
      names
  in
  if rows <> [] then
    print_table ~title ~header:[ "histogram"; "n"; "p50"; "p95"; "p99"; "max" ]
      rows

(* --- engines ----------------------------------------------------------- *)

let kernel_config ?(policy = Transport.reliable) ?(sync_policy = Dc.Full_ablsn)
    ?(tc_reset_mode = Dc.Selective) ?(cc_protocol = Tc.Key_locks)
    ?(pipeline_writes = true) ?(page_capacity = 512) ?(cache_pages = 512)
    ?(seed = 42) ?(lwm_every = 16) () =
  {
    Kernel.tc =
      {
        (Tc.default_config (Tc_id.of_int 1)) with
        cc_protocol;
        pipeline_writes;
        lwm_every;
      };
    dc =
      {
        Dc.page_capacity;
        cache_pages;
        sync_policy;
        tc_reset_mode;
        debug_checks = false;
      };
    policy;
    seed;
    auto_checkpoint_every = 0;
  }

let make_kernel ?policy ?sync_policy ?tc_reset_mode ?cc_protocol
    ?pipeline_writes ?page_capacity ?cache_pages ?seed ?lwm_every ?counters
    ?(versioned = true) ?(table = "kv") () =
  let k =
    Kernel.create ?counters
      (kernel_config ?policy ?sync_policy ?tc_reset_mode ?cc_protocol
         ?pipeline_writes ?page_capacity ?cache_pages ?seed ?lwm_every ())
  in
  Kernel.create_table k ~name:table ~versioned;
  k

let make_mono ?(cc_protocol = Tc.Key_locks) ?(page_capacity = 512)
    ?(cache_pages = 512) ?counters ?(table = "kv") () =
  let m =
    Mono.create ?counters
      { Mono.page_capacity; cache_pages; cc_protocol; debug_checks = false }
  in
  Mono.create_table m ~name:table;
  m

(* One committed upsert through any engine: an update, or an insert
   when the key is absent. *)
let upsert (module E : Engine.S) ~table ~key ~value =
  let txn = E.begin_txn () in
  (match E.update txn ~table ~key ~value with
  | `Ok () -> ()
  | `Blocked -> failwith "blocked"
  | `Fail _ -> (
    match E.insert txn ~table ~key ~value with
    | `Ok () -> ()
    | `Blocked | `Fail _ -> failwith "insert failed"));
  match E.commit txn with
  | `Ok () -> ()
  | `Blocked | `Fail _ -> failwith "commit failed"
