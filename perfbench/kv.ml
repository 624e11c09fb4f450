(* The 1 TC x 1 DC workloads: oltp_mix (the per-operation message path)
   and dc_restart (DC crash recovery).  Both run on the same kernel
   configuration and the same client mix.

   Untraced runs use [Kernel] itself.  The traced run assembles the
   kernel from the public calls [Kernel.create] makes — [Dc.create],
   [Transport.create] over the DC's frame endpoints, [Tc.create],
   [Tc.attach_dc] — with every endpoint, link closure and TC entry
   point wrapped in a span, so nothing under lib/ is instrumented for
   the benchmark's sake. *)

module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Engine = Untx_kernel.Engine
module Driver = Untx_kernel.Driver
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Mono = Untx_baseline.Mono
module Wire = Untx_msg.Wire
module Instrument = Untx_util.Instrument
module Tc_id = Untx_util.Tc_id
module Audit = Untx_audit.Audit
module Samples = Probe.Samples
module Spans = Probe.Spans
module Speed = Probe.Speed

let table = "kv"

let dc_name = "dc1"

(* 5000 keys and an episode's inserts fill about 1400 pages of 512
   bytes; 16384 cache pages keep the whole table resident, so cache and
   disk stay idle and the message path does the work. *)
let key_space = 5000

let config ~seed =
  {
    Kernel.default_config with
    tc = Tc.default_config (Tc_id.of_int 1);
    dc = { Dc.default_config with cache_pages = 16384 };
    seed;
  }

(* The Driver's preload: [keys] keys in committed batches of 128. *)
let preload ?(keys = key_space) engine ~seed =
  Driver.preload engine
    { Driver.default_spec with table; key_space = keys; value_size = 16; seed }

let key rank = Driver.key_of { Driver.default_spec with key_space } rank

(* 45% point reads, 10% scans of 10 keys (fetch-ahead under Key_locks),
   45% writes — one in ten of them an insert — over Zipf(0.8) ranks,
   4 clients, 6 operations per transaction. *)
let mix =
  {
    Client.table;
    ops_per_txn = 6;
    read = 0.45;
    scan = 0.10;
    scan_limit = 10;
    insert = 0.1;
    keys = key_space;
    theta = 0.8;
    value_size = 16;
    clients = 4;
  }

let run_mix ?(keys = key_space) engine ~seed ~txns ~prefix st =
  Client.run engine { mix with keys } ~seed ~txns ~key ~prefix st

(* --- the recording engine ------------------------------------------- *)

(* Wraps an engine: committed write sets go into a shadow map (the
   audit's oracle), and with [spans] every TC entry point runs inside a
   span named after it, whose request id is the transaction's xid. *)
type recorder = {
  shadow : (string, string) Hashtbl.t;
  writes : (int, (string * string option) list) Hashtbl.t;
}

let recorder () = { shadow = Hashtbl.create 8192; writes = Hashtbl.create 16 }

let expected r =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.shadow []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let recording ?spans r (module E : Engine.S) : (module Engine.S) =
  let key name = match spans with None -> -1 | Some s -> Spans.name_id s name in
  let sp key rid f =
    match spans with None -> f () | Some s -> Spans.span s ~rid key f
  in
  let k_begin = key "tc.begin" and k_read = key "tc.read" in
  let k_scan = key "tc.scan" and k_write = key "tc.write" in
  let k_commit = key "tc.commit" and k_abort = key "tc.abort" in
  let k_deadlock = key "tc.resolve_deadlock" in
  (module struct
    type txn = E.txn

    let xid = E.xid

    let is_active = E.is_active

    let forget x = Hashtbl.remove r.writes x

    let note txn key v =
      let x = E.xid txn in
      let prev = Option.value ~default:[] (Hashtbl.find_opt r.writes x) in
      Hashtbl.replace r.writes x ((key, v) :: prev)

    let begin_txn () = sp k_begin 0 E.begin_txn

    let read txn ~table ~key =
      sp k_read (E.xid txn) (fun () -> E.read txn ~table ~key)

    let scan txn ~table ~from_key ~limit =
      sp k_scan (E.xid txn) (fun () -> E.scan txn ~table ~from_key ~limit)

    let write txn key v f =
      let o = sp k_write (E.xid txn) f in
      (match o with `Ok () -> note txn key v | `Blocked | `Fail _ -> ());
      o

    let insert txn ~table ~key ~value =
      write txn key (Some value) (fun () -> E.insert txn ~table ~key ~value)

    let update txn ~table ~key ~value =
      write txn key (Some value) (fun () -> E.update txn ~table ~key ~value)

    let delete txn ~table ~key =
      write txn key None (fun () -> E.delete txn ~table ~key)

    let commit txn =
      let x = E.xid txn in
      let o = sp k_commit x (fun () -> E.commit txn) in
      (match o with
      | `Ok () ->
        List.iter
          (fun (k, v) ->
            match v with
            | Some v -> Hashtbl.replace r.shadow k v
            | None -> Hashtbl.remove r.shadow k)
          (List.rev (Option.value ~default:[] (Hashtbl.find_opt r.writes x)));
        forget x
      | `Fail _ -> forget x
      | `Blocked -> ());
      o

    let abort txn ~reason =
      sp k_abort (E.xid txn) (fun () -> E.abort txn ~reason);
      forget (E.xid txn)

    let wakeups = E.wakeups

    let resolve_deadlock () =
      let v = sp k_deadlock 0 E.resolve_deadlock in
      Option.iter forget v;
      v
  end)

(* --- one kernel, plain or traced -------------------------------------- *)

type kernel = {
  tc : Tc.t;
  dc : Dc.t;
  counters : Instrument.t;
  engine : (module Engine.S);
  crash_dc : unit -> unit;
  rec_ : recorder;
  kernel : Kernel.t option;  (* the audit needs the assembled kernel *)
}

let plain ~seed =
  let counters = Instrument.create () in
  let k = Kernel.create ~counters (config ~seed) in
  Kernel.create_table k ~name:table ~versioned:true;
  let rec_ = recorder () in
  {
    tc = Kernel.tc k;
    dc = Kernel.dc k;
    counters;
    engine = recording rec_ (Engine.of_kernel k);
    crash_dc = (fun () -> Kernel.crash_dc k);
    rec_;
    kernel = Some k;
  }

(* Frames seen on the traced kernel's links, in order, for the wire
   codec replay. *)
type frame =
  | Request of string
  | Reply of string
  | Control of string
  | Control_reply of string

type capture = { mutable frames : frame list; mutable n : int }

let max_captured = 4000

let traced ~seed ~spans ~captured =
  let cfg = config ~seed in
  let sp name =
    let key = Spans.name_id spans name in
    fun f -> Spans.span spans key f
  in
  let sp_request = sp "dc.request" and sp_control = sp "dc.control" in
  let sp_send = sp "transport.send" and sp_send_control = sp "transport.send_control" in
  let sp_drain = sp "transport.drain" and sp_drop = sp "transport.drop_in_flight" in
  let sp_crash = sp "dc.crash" and sp_recover = sp "dc.recover" in
  let sp_restart = sp "tc.on_dc_restart" in
  let capture f =
    if spans.Spans.on && captured.n < max_captured then begin
      captured.frames <- f :: captured.frames;
      captured.n <- captured.n + 1
    end
  in
  let counters = Instrument.create () in
  let dc = Dc.create ~counters cfg.dc in
  let transport =
    Transport.create ~counters ~policy:cfg.policy ~seed:cfg.seed
      ~data:(fun f -> sp_request (fun () -> Dc.handle_request_frame dc f))
      ~control:(fun f ->
        sp_control (fun () -> Dc.handle_control_frame dc f))
      ()
  in
  let tc = Tc.create ~counters cfg.tc in
  Tc.attach_dc tc
    {
      Tc.dc_name;
      part = 0;
      send =
        (fun f ->
          capture (Request f);
          sp_send (fun () -> Transport.send transport f));
      send_control =
        (fun f ->
          capture (Control f);
          sp_send_control (fun () ->
              Transport.send_control transport f));
      drain =
        (fun () ->
          let ((replies, control_replies) as out) =
            sp_drain (fun () -> Transport.drain transport)
          in
          List.iter (fun f -> capture (Reply f)) replies;
          List.iter (fun f -> capture (Control_reply f)) control_replies;
          out);
    };
  Dc.create_table dc ~name:table ~versioned:true;
  Tc.map_table tc ~table ~dc:dc_name ~versioned:true;
  let rec_ = recorder () in
  {
    tc;
    dc;
    counters;
    engine = recording ~spans rec_ (Engine.of_tc tc);
    crash_dc =
      (fun () ->
        (* [Kernel.crash_dc], call for call *)
        sp_drop (fun () ->
            Transport.drop_in_flight transport);
        sp_crash (fun () -> Dc.crash dc);
        sp_recover (fun () -> Dc.recover dc);
        sp_restart (fun () -> Tc.on_dc_restart tc ~dc:dc_name));
    rec_;
    kernel = None;
  }

let counts k = Cost.read ~tcs:[ k.tc ] ~dcs:[ k.dc ] k.counters

let delta = Cost.delta

let get = Cost.get

(* The counts traced and untraced runs of the same inputs must agree on. *)
let parity_keys =
  [
    "msgs";
    "transport.data_bytes";
    "transport.control_bytes";
    "log.forces";
    "log.bytes";
    "cache.evictions";
  ]

let check_parity out ~what plain_d traced_d =
  List.iter
    (fun key ->
      Report.check out
        (get plain_d key = get traced_d key)
        "%s: traced kernel counted %s=%d, Kernel counted %d" what key
        (get traced_d key) (get plain_d key))
    parity_keys

(* --- oltp_mix ------------------------------------------------------------- *)

(* One episode: a fresh kernel, the deterministic preload (set-up), then
   [windows] client runs of [window_txns] transactions each.  Every
   episode of a run replays the same inputs, so its counts repeat
   exactly and its timings are independent samples.  Every timing is
   divided by the machine's slowness around it ([Probe.Speed]). *)
let windows = 10

let window_txns = 400

(* The major heap an episode grew to: every episode starts from a
   compacted heap, so this is its own peak, not the process's. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. 1048576.

type episode = {
  setup_s : float;
  pieces : (float * float) array;  (* per window: seconds, slowness *)
  st : Client.stats;
  cost : Cost.t;  (* counts over the measured windows *)
  heap_mb : float;
}

let window_seed ~seed w = (seed * 1009) + w

let run_windows engine ~seed st =
  Speed.pieces ~lat:st.Client.latency_us windows (fun w ->
      Probe.time (fun () ->
          run_mix engine ~seed:(window_seed ~seed w) ~txns:window_txns
            ~prefix:(Printf.sprintf "n%02d-" w) st))

let oltp_episode ?(on_measure = ignore) ?(off_measure = ignore) make ~seed =
  Gc.compact ();
  let k, setup_s =
    Speed.timed (fun () ->
        let k = make () in
        preload k.engine ~seed;
        k)
  in
  let before = counts k and st = Client.stats () in
  (* every episode starts measuring from the same collected heap *)
  Gc.full_major ();
  on_measure ();
  let pieces = run_windows k.engine ~seed st in
  off_measure ();
  let heap_mb = heap_mb () in
  (k, { setup_s; pieces; st; cost = delta before (counts k); heap_mb })

let txn_per_s e = float_of_int e.st.Client.committed /. Speed.seconds e.pieces

let measured_txn_per_s e = float_of_int e.st.Client.committed /. Speed.raw e.pieces

let late_over_early e =
  let t (dt, s) = dt /. s in
  t e.pieces.(0) /. t e.pieces.(windows - 1)

(* The monolith, driven through the same engine surface and inputs. *)
let mono ?keys ~seed () =
  let m =
    Mono.create
      { Mono.default_config with cache_pages = (config ~seed).dc.Dc.cache_pages }
  in
  Mono.create_table m ~name:table;
  let e : (module Engine.S) =
    (module struct
      type txn = Mono.txn

      let begin_txn () = Mono.begin_txn m
      let xid = Mono.xid
      let is_active = Mono.is_active
      let read txn ~table ~key = Mono.read m txn ~table ~key
      let insert txn ~table ~key ~value = Mono.insert m txn ~table ~key ~value
      let update txn ~table ~key ~value = Mono.update m txn ~table ~key ~value
      let delete txn ~table ~key = Mono.delete m txn ~table ~key
      let scan txn ~table ~from_key ~limit = Mono.scan m txn ~table ~from_key ~limit
      let commit txn = Mono.commit m txn
      let abort txn ~reason = Mono.abort m txn ~reason
      let wakeups () = Mono.wakeups m
      let resolve_deadlock () = Mono.resolve_deadlock m
    end)
  in
  preload ?keys e ~seed;
  (m, e)

let mono_txn_per_s ~seed =
  let _, e = mono ~seed () in
  let st = Client.stats () in
  float_of_int st.Client.committed /. Speed.seconds (run_windows e ~seed st)

(* --- checks ---------------------------------------------------------------- *)

let audit out ~what k =
  match k.kernel with
  | None -> invalid_arg "Kv.audit: a traced kernel is checked by parity"
  | Some kernel ->
    Kernel.quiesce kernel;
    let r = Audit.run kernel ~table ~expected:(expected k.rec_) in
    List.iter
      (fun v -> Report.check out false "%s: audit: %s" what v)
      r.Audit.violations

let tally out (st : Client.stats) =
  out.Report.attempted <- out.Report.attempted + st.committed + st.failed;
  out.Report.failed <- out.Report.failed + st.failed

(* --- wire codec replay --------------------------------------------------- *)

(* Decode every captured frame with its [Wire.decode_*], re-encode the
   value with [Wire.encode_*] (which must reproduce the frame byte for
   byte), then time passes over the whole sample: ns per frame. *)
let wire_replay out (captured : capture) =
  let frames = Array.of_list (List.rev captured.frames) in
  let decode = function
    | Request f -> `Request (Wire.decode_request f)
    | Reply f -> `Reply (Wire.decode_reply f)
    | Control f -> `Control (Wire.decode_control f)
    | Control_reply f -> `Control_reply (Wire.decode_control_reply f)
  in
  let encode = function
    | `Request r -> Wire.encode_request r
    | `Reply r -> Wire.encode_reply r
    | `Control c -> Wire.encode_control c
    | `Control_reply c -> Wire.encode_control_reply c
  in
  let raw = function Request f | Reply f | Control f | Control_reply f -> f in
  let values = Array.map decode frames in
  Array.iteri
    (fun i v ->
      Report.check out
        (String.equal (encode v) (raw frames.(i)))
        "wire: frame %d does not re-encode to its own bytes" i)
    values;
  let n = Array.length frames in
  let timed f =
    let passes = ref 0 and t0 = Probe.now_ns () in
    while !passes < 3 || Probe.secs_since t0 < 0.05 do
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (f i))
      done;
      incr passes
    done;
    float_of_int (Probe.now_ns () - t0) /. float_of_int (!passes * max 1 n)
  in
  let decode_ns = timed (fun i -> decode frames.(i)) in
  let encode_ns = timed (fun i -> encode values.(i)) in
  Report.line "wire replay: %d captured frames" n;
  Report.metric out "wire.decode_ns" "ns" decode_ns;
  Report.metric out "wire.encode_ns" "ns" encode_ns

(* --- figures shared by both kernel workloads ----------------------------- *)

let ms ns = float_of_int ns /. 1e6

let us ns = float_of_int ns /. 1e3

let p50_us spans name = Samples.median (Spans.durations spans name) /. 1e3

(* Self time per layer against the traced wall time: the layers must
   tile it, and what no span covers is printed as its own row. *)
let tiling out spans ~wall_ns ~units =
  Report.line "traced wall %.1f ms, %d spans; self time by layer:" (ms wall_ns)
    (Spans.count spans);
  let attributed =
    List.fold_left
      (fun acc prefix ->
        let self = Spans.layer_self_ns spans prefix in
        Report.line "  %-13s %9.1f ms %6.1f%%" prefix (ms self)
          (100. *. Report.per self wall_ns);
        acc + self)
      0 [ "tc."; "transport."; "dc." ]
  in
  let rest = wall_ns - attributed in
  let frac = Report.per rest wall_ns in
  Report.line "  %-13s %9.1f ms %6.1f%%" "unattributed" (ms rest) (100. *. frac);
  Report.check out (Float.abs frac <= 0.15)
    "tiling: layer self times leave %.1f%% of traced wall time unattributed"
    (100. *. frac);
  let per_unit prefix = us (Spans.layer_self_ns spans prefix) /. float_of_int (max 1 units) in
  Report.metric out "trace.unattributed_frac" "fraction" frac;
  Report.metric out "tc.self_us_per_txn" "us" (per_unit "tc.");
  Report.metric out "transport.self_us_per_txn" "us" (per_unit "transport.");
  Report.metric out "dc.request_us" "us" (p50_us spans "dc.request");
  Report.metric out "dc.request_us_per_txn" "us" (per_unit "dc.request");
  Report.metric out "dc.control_us" "us" (p50_us spans "dc.control");
  Report.metric out "dc.control_us_per_txn" "us" (per_unit "dc.control")

let write_spans spans ~dir ~workload =
  Option.iter
    (fun dir ->
      let path = Filename.concat dir (workload ^ ".spans.tsv") in
      Spans.write spans path;
      Report.line "spans: %d written to %s" (Spans.count spans) path)
    dir

(* The traced runs report the machine's slowness as a reference: their
   span timings are as measured. *)
let report_slowness out slow = Report.metric out "run.slowness" "x" (Probe.median_of slow)

(* --- oltp_mix: untraced ------------------------------------------------------ *)

let oltp_mix out ~seed ~seconds =
  let lat = Samples.create () and first = ref None in
  let eps =
    Probe.repeat ~seconds ~min:3 (fun () ->
        let k, e = oltp_episode (fun () -> plain ~seed) ~seed in
        first := Cost.check_repeat out ~what:"oltp_mix" !first e.cost;
        audit out ~what:"oltp_mix" k;
        tally out e.st;
        Samples.append lat e.st.Client.latency_us;
        e)
  in
  let e = List.hd eps in
  Report.line "oltp_mix: %d episodes of %d txns, %d deadlock retries in the first"
    (List.length eps) (windows * window_txns) e.st.Client.retries;
  Report.end_to_end out ~what:"commit latency" ~tps:(List.map txn_per_s eps)
    ~measured:(List.map measured_txn_per_s eps) ~lat
    ~tail:99. ~wire_bytes:(Cost.wire_bytes e.cost)
    ~storage_ios:(Cost.storage_ios e.cost) ~units:e.st.Client.committed
    ~heaps:(List.map (fun e -> e.heap_mb) eps)
    ~setups:(List.map (fun e -> e.setup_s) eps)
    ~slow:(List.concat_map (fun e -> Speed.slownesses e.pieces) eps)

(* --- oltp_mix: traced -------------------------------------------------------- *)

(* Each round runs the same inputs three ways: on the traced kernel, on
   [Kernel] (parity, audit, trace overhead) and on the monolith. *)
let oltp_mix_traced out ~seed ~seconds ~spans_dir =
  let spans = Spans.create () and captured = { frames = []; n = 0 } in
  let first = ref None in
  let rounds =
    Probe.repeat ~seconds ~min:3 (fun () ->
        let _, te =
          oltp_episode
            ~on_measure:(fun () -> spans.Spans.on <- true)
            ~off_measure:(fun () -> spans.Spans.on <- false)
            (fun () -> traced ~seed ~spans ~captured)
            ~seed
        in
        let pk, pe = oltp_episode (fun () -> plain ~seed) ~seed in
        check_parity out ~what:"oltp_mix" pe.cost te.cost;
        first := Cost.check_repeat out ~what:"oltp_mix traced" !first te.cost;
        audit out ~what:"oltp_mix" pk;
        tally out te.st;
        (te, pe, mono_txn_per_s ~seed))
  in
  let traced_eps = List.map (fun (te, _, _) -> te) rounds in
  let plain_eps = List.map (fun (_, pe, _) -> pe) rounds in
  let monos = List.map (fun (_, _, m) -> m) rounds in
  let te = List.hd traced_eps in
  let committed = te.st.Client.committed in
  let units =
    List.fold_left (fun acc e -> acc + e.st.Client.committed) 0 traced_eps
  in
  let wall_ns =
    int_of_float
      (1e9 *. List.fold_left (fun acc e -> acc +. Speed.raw e.pieces) 0. traced_eps)
  in
  Cost.report_layers out te.cost ~units:committed;
  let m = Report.metric out in
  m "tc.blocked_per_txn" "count" (Report.per te.st.Client.blocked committed);
  m "tc.deadlocks_per_ktxn" "count" (1000. *. Report.per te.st.Client.retries committed);
  tiling out spans ~wall_ns ~units;
  m "tc.read_us" "us" (p50_us spans "tc.read");
  m "tc.write_us" "us" (p50_us spans "tc.write");
  m "tc.scan_us" "us" (p50_us spans "tc.scan");
  m "tc.commit_us" "us" (p50_us spans "tc.commit");
  wire_replay out captured;
  let plain_tps = Probe.median_of (List.map txn_per_s plain_eps) in
  let traced_tps = Probe.median_of (List.map txn_per_s traced_eps) in
  let mono_tps = Probe.median_of monos in
  Report.line "throughput: Kernel %.0f, traced kernel %.0f, Mono %.0f txns/s"
    plain_tps traced_tps mono_tps;
  m "baseline.mono_txn_per_s" "1/s" mono_tps;
  m "baseline.gap" "x" (mono_tps /. plain_tps);
  m "run.late_over_early" "x"
    (Probe.median_of (List.map late_over_early plain_eps));
  m "trace.overhead_frac" "fraction" (1. -. (traced_tps /. plain_tps));
  report_slowness out (List.concat_map (fun e -> Speed.slownesses e.pieces) traced_eps);
  write_spans spans ~dir:spans_dir ~workload:"oltp_mix"

(* --- dc_restart ---------------------------------------------------------- *)

(* Set-up: a [restart_keys]-key preload plus [churn_txns] transactions
   of the oltp_mix mix over those keys, quiesced, no checkpoint.  Every
   restart then redoes the same stable suffix (about 3900 operations),
   so every sample does identical work.  The tail is p90, and a run
   makes at least [min_restart_episodes] episodes, so at least 100
   restarts and ten samples beyond p90. *)
let restart_keys = 2500

let churn_txns = 500

let restarts_per_episode = 10

let restart_tail = 90.

let min_restart_episodes = 10

let preload_txns = (restart_keys + 127) / 128

let restart_setup make ~seed =
  Gc.compact ();
  let (k, txns), setup_s =
    Speed.timed (fun () ->
        let k = make () in
        preload ~keys:restart_keys k.engine ~seed;
        let st = Client.stats () in
        run_mix ~keys:restart_keys k.engine ~seed:(seed * 1013) ~txns:churn_txns
          ~prefix:"c-" st;
        Tc.quiesce k.tc;
        (* the restarts redo every committed transaction in the log *)
        (k, st.Client.committed + preload_txns))
  in
  (k, txns, setup_s)

(* Crash and restart the DC [n] times: each restart's seconds and
   slowness ([Speed.pieces]; [lat] gets each restart's time in us,
   divided by its slowness) and the summed cost of all [n].  (Restarts
   differ by a few control bytes as session numbers grow, so only the
   whole sequence repeats exactly.)  Each restart must leave the table
   exactly as it was before the crash. *)
let restarts ?(on_measure = ignore) ?(off_measure = ignore) ?lat out k ~n =
  let pre = Dc.dump_table k.dc table in
  let cost = ref [] in
  Gc.full_major ();
  let pieces =
    Speed.pieces ?lat n (fun _ ->
        let before = counts k in
        on_measure ();
        let dt = Probe.time k.crash_dc in
        off_measure ();
        Option.iter (fun l -> Samples.add l (dt *. 1e6)) lat;
        cost := Cost.add !cost (delta before (counts k));
        Report.check out
          (Dc.dump_table k.dc table = pre)
          "dc_restart: a restart changed the table";
        dt)
  in
  (pieces, !cost)

type restart_episode = {
  tps : float;  (* committed txns redone per second of restart *)
  measured : float;  (* the same, before dividing by the slowness *)
  setup : float;
  heap : float;
  slow : float list;
}

let dc_restart out ~seed ~seconds =
  let n = restarts_per_episode in
  let lat = Samples.create () and first = ref None and redone = ref 0 in
  let eps =
    Probe.repeat ~seconds ~min:min_restart_episodes (fun () ->
        let k, txns, setup = restart_setup (fun () -> plain ~seed) ~seed in
        let pieces, c = restarts ~lat out k ~n in
        let heap = heap_mb () in
        first := Cost.check_repeat out ~what:"dc_restart" !first c;
        audit out ~what:"dc_restart" k;
        redone := txns;
        out.Report.attempted <- out.Report.attempted + n;
        let redo s = float_of_int (txns * n) /. s in
        let tps = redo (Speed.seconds pieces) and measured = redo (Speed.raw pieces) in
        { tps; measured; setup; heap; slow = Speed.slownesses pieces })
  in
  let cost = Option.get !first in
  Report.line "dc_restart: %d restarts over %d set-ups, %d committed txns redone by each"
    (n * List.length eps) (List.length eps) !redone;
  Report.end_to_end out ~what:"restart time" ~tps:(List.map (fun e -> e.tps) eps)
    ~measured:(List.map (fun e -> e.measured) eps)
    ~lat ~tail:restart_tail ~wire_bytes:(Cost.wire_bytes cost)
    ~storage_ios:(Cost.storage_ios cost) ~units:(!redone * n)
    ~heaps:(List.map (fun e -> e.heap) eps)
    ~setups:(List.map (fun e -> e.setup) eps)
    ~slow:(List.concat_map (fun e -> e.slow) eps)

(* Each round sets up and restarts three ways: the traced kernel,
   [Kernel] (parity, audit, trace overhead) and the monolith, whose
   crash is total, as the baseline restart.  The traced restarts are
   exactly the spans' roots ([Kernel.crash_dc]'s four calls), so here
   the layers tile the traced wall time by construction. *)
let dc_restart_traced out ~seed ~seconds ~spans_dir =
  let n = restarts_per_episode in
  let spans = Spans.create () and captured = { frames = []; n = 0 } in
  let first = ref None and redone = ref 0 in
  let rounds =
    Probe.repeat ~seconds ~min:3 (fun () ->
        let k, txns, _ = restart_setup (fun () -> traced ~seed ~spans ~captured) ~seed in
        let traced_p, tcost =
          restarts out k ~n
            ~on_measure:(fun () -> spans.Spans.on <- true)
            ~off_measure:(fun () -> spans.Spans.on <- false)
        in
        let pk, _, _ = restart_setup (fun () -> plain ~seed) ~seed in
        let plain_p, pcost = restarts out pk ~n in
        check_parity out ~what:"dc_restart" pcost tcost;
        first := Cost.check_repeat out ~what:"dc_restart traced" !first tcost;
        audit out ~what:"dc_restart" pk;
        let m, e = mono ~keys:restart_keys ~seed () in
        run_mix ~keys:restart_keys e ~seed:(seed * 1013) ~txns:churn_txns
          ~prefix:"c-" (Client.stats ());
        Gc.full_major ();
        let mono_p =
          Speed.pieces n (fun _ ->
              Probe.time (fun () ->
                  Mono.crash m;
                  Mono.recover m))
        in
        redone := txns;
        out.Report.attempted <- out.Report.attempted + n;
        (traced_p, plain_p, mono_p))
  in
  let all f = Array.concat (List.map f rounds) in
  let traced_p = all (fun (t, _, _) -> t) and plain_p = all (fun (_, p, _) -> p) in
  let mono_p = all (fun (_, _, m) -> m) in
  let cost = Option.get !first in
  let count = Array.length traced_p in
  let per_restart name = Report.per (get cost name) n in
  Cost.report_layers out cost ~units:(!redone * n);
  tiling out spans
    ~wall_ns:(int_of_float (1e9 *. Speed.raw traced_p))
    ~units:(!redone * count);
  let m = Report.metric out in
  m "tc.redo_self_ms" "ms" (ms (Spans.layer_self_ns spans "tc.") /. float_of_int count);
  m "tc.resent_per_restart" "count" (per_restart "tc.requests_sent");
  m "dc.recover_ms" "ms" (Samples.median (Spans.durations spans "dc.recover") /. 1e6);
  m "dc.redo_request_ms" "ms"
    (ms (Spans.self_ns spans "dc.request") /. float_of_int count);
  m "dc.dups_absorbed_per_restart" "count" (per_restart "dc.dup_absorbed");
  m "dc.applied_per_restart" "count"
    (Report.per (get cost "dc.requests" - get cost "dc.dup_absorbed") n);
  m "cache.misses_per_restart" "count" (per_restart "cache.misses");
  m "disk.page_reads_per_restart" "count" (per_restart "disk.page_reads");
  let secs (dt, s) = dt /. s in
  let median_s ps = Probe.median_of (Array.to_list (Array.map secs ps)) in
  let rate ps = float_of_int !redone /. median_s ps in
  Report.line "restart p50: Kernel %.1f ms, traced kernel %.1f ms, Mono %.1f ms"
    (1e3 *. median_s plain_p) (1e3 *. median_s traced_p) (1e3 *. median_s mono_p);
  m "baseline.mono_txn_per_s" "1/s" (rate mono_p);
  m "baseline.gap" "x" (rate mono_p /. rate plain_p);
  m "run.late_over_early" "x"
    (Probe.median_of (List.map (fun (_, p, _) -> secs p.(0) /. secs p.(n - 1)) rounds));
  m "trace.overhead_frac" "fraction" (1. -. (rate traced_p /. rate plain_p));
  report_slowness out (Speed.slownesses traced_p);
  wire_replay out captured;
  write_spans spans ~dir:spans_dir ~workload:"dc_restart"

