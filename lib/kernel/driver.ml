module Rng = Untx_util.Rng
module Zipf = Untx_util.Zipf

type spec = {
  table : string;
  txns : int;
  ops_per_txn : int;
  read_ratio : float;
  scan_ratio : float;
  scan_limit : int;
  key_space : int;
  zipf_theta : float;
  value_size : int;
  concurrency : int;
  seed : int;
}

let default_spec =
  {
    table = "kv";
    txns = 200;
    ops_per_txn = 4;
    read_ratio = 0.5;
    scan_ratio = 0.;
    scan_limit = 10;
    key_space = 1000;
    zipf_theta = 0.;
    value_size = 16;
    concurrency = 4;
    seed = 7;
  }

type result = {
  committed : int;
  aborted : int;
  deadlocks : int;
  blocked_events : int;
  op_count : int;
  latency : Untx_obs.Metrics.hsnap;
}

let key_of spec i = Printf.sprintf "k%08d" (i mod spec.key_space)

let value_of spec rng =
  String.init spec.value_size (fun _ ->
      Char.chr (Char.code 'a' + Rng.int rng 26))

type intent =
  | I_read of string
  | I_update of string * string
  | I_insert of string * string
  | I_delete of string
  | I_scan of string

let gen_script spec rng zipf =
  List.init spec.ops_per_txn (fun _ ->
      let r = Rng.float rng 1.0 in
      let key = key_of spec (Zipf.sample zipf rng) in
      if r < spec.read_ratio then I_read key
      else if r < spec.read_ratio +. spec.scan_ratio then I_scan key
      else
        let w = Rng.float rng 1.0 in
        if w < 0.85 then I_update (key, value_of spec rng)
        else if w < 0.95 then
          I_insert
            ( Printf.sprintf "x%08d" (Rng.int rng 100_000_000),
              value_of spec rng )
        else I_delete key)

module Make (E : Engine.S) = struct
  type slot = {
    mutable txn : E.txn option;
    mutable script : intent list;
    mutable parked : bool;
    mutable started_at : float;
  }

  let preload spec =
    let rng = Rng.create ~seed:(spec.seed + 1) in
    let rec batches i =
      if i < spec.key_space then begin
        let txn = E.begin_txn () in
        let hi = Stdlib.min spec.key_space (i + 128) in
        for j = i to hi - 1 do
          match
            E.insert txn ~table:spec.table ~key:(key_of spec j)
              ~value:(value_of spec rng)
          with
          | `Ok () -> ()
          | `Blocked -> failwith "Driver.preload: blocked"
          | `Fail msg -> failwith ("Driver.preload: " ^ msg)
        done;
        (match E.commit txn with
        | `Ok () -> ()
        | `Blocked | `Fail _ -> failwith "Driver.preload: commit failed");
        batches hi
      end
    in
    batches 0

  let run spec =
    let rng = Rng.create ~seed:spec.seed in
    let zipf = Zipf.create ~n:spec.key_space ~theta:spec.zipf_theta in
    let committed = ref 0 in
    let aborted = ref 0 in
    let deadlocks = ref 0 in
    let blocked_events = ref 0 in
    let op_count = ref 0 in
    let started = ref 0 in
    let latency = Untx_obs.Metrics.create () in
    let slots =
      Array.init
        (Stdlib.max 1 spec.concurrency)
        (fun _ -> { txn = None; script = []; parked = false; started_at = 0. })
    in
    let slot_of_xid = Hashtbl.create 16 in
    let fresh slot =
      if !started < spec.txns then begin
        let txn = E.begin_txn () in
        slot.txn <- Some txn;
        slot.script <- gen_script spec rng zipf;
        slot.parked <- false;
        slot.started_at <- Unix.gettimeofday ();
        Hashtbl.replace slot_of_xid (E.xid txn) slot;
        incr started
      end
      else begin
        slot.txn <- None;
        slot.parked <- false
      end
    in
    Array.iter fresh slots;
    let retire slot txn =
      Hashtbl.remove slot_of_xid (E.xid txn);
      fresh slot
    in
    let exec txn intent : [ `Ok | `Blocked | `Fail of string ] =
      let table = spec.table in
      match intent with
      | I_read key -> (
        match E.read txn ~table ~key with
        | `Ok _ -> `Ok
        | (`Blocked | `Fail _) as o -> o)
      | I_update (key, value) -> (
        match E.update txn ~table ~key ~value with
        | `Ok () -> `Ok
        | `Fail "no such key" -> `Ok (* deleted by churn; tolerated *)
        | (`Blocked | `Fail _) as o -> o)
      | I_insert (key, value) -> (
        match E.insert txn ~table ~key ~value with
        | `Ok () | `Fail "duplicate key" -> `Ok
        | (`Blocked | `Fail _) as o -> o)
      | I_delete key -> (
        match E.delete txn ~table ~key with
        | `Ok () -> `Ok
        | (`Blocked | `Fail _) as o -> o)
      | I_scan key -> (
        match E.scan txn ~table ~from_key:key ~limit:spec.scan_limit with
        | `Ok _ -> `Ok
        | (`Blocked | `Fail _) as o -> o)
    in
    let step slot =
      match slot.txn with
      | None -> ()
      | Some txn ->
        if not (E.is_active txn) then begin
          (* deadlock victim or auto-aborted *)
          incr aborted;
          retire slot txn
        end
        else begin
          match slot.script with
          | [] -> (
            match E.commit txn with
            | `Ok () ->
              incr committed;
              Untx_obs.Metrics.observe latency "txn_ns"
                (int_of_float ((Unix.gettimeofday () -. slot.started_at) *. 1e9));
              retire slot txn
            | `Fail _ ->
              incr aborted;
              retire slot txn
            | `Blocked -> slot.parked <- true)
          | intent :: rest -> (
            match exec txn intent with
            | `Ok ->
              incr op_count;
              slot.script <- rest
            | `Blocked ->
              incr blocked_events;
              slot.parked <- true
            | `Fail reason ->
              E.abort txn ~reason;
              incr aborted;
              retire slot txn)
        end
    in
    let finished () = Array.for_all (fun s -> s.txn = None) slots in
    let stalls = ref 0 in
    let work () = !op_count + !committed + !aborted in
    while not (finished ()) do
      let work_before = work () in
      List.iter
        (fun x ->
          match Hashtbl.find_opt slot_of_xid x with
          | Some slot -> slot.parked <- false
          | None -> ())
        (E.wakeups ());
      let ran = ref false in
      Array.iter
        (fun slot ->
          if slot.txn <> None && not slot.parked then begin
            ran := true;
            step slot
          end)
        slots;
      if not !ran then begin
        (* Everyone live is parked: a waits-for cycle, or a wakeup is
           still queued.  Ask the lock manager, then retry. *)
        (match E.resolve_deadlock () with
        | Some _victim -> incr deadlocks
        | None -> ());
        Array.iter (fun slot -> slot.parked <- false) slots
      end;
      (* Progress is measured by work done, not by steps attempted:
         blocked retries alone must eventually trip the guard. *)
      if work () > work_before then stalls := 0
      else begin
        incr stalls;
        if !stalls > 1000 then failwith "Driver.run: livelock"
      end
    done;
    {
      committed = !committed;
      aborted = !aborted;
      deadlocks = !deadlocks;
      blocked_events = !blocked_events;
      op_count = !op_count;
      latency =
        Option.value ~default:Untx_obs.Metrics.empty_hsnap
          (Untx_obs.Metrics.hist_snapshot latency "txn_ns");
    }
end

let preload (module E : Engine.S) spec =
  let module M = Make (E) in
  M.preload spec

let run (module E : Engine.S) spec =
  let module M = Make (E) in
  M.run spec
