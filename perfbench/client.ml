(* The closed-loop client of the kernel workloads.

   [clients] logical clients each run one transaction at a time, stepped
   round-robin one operation per turn, like [Untx_kernel.Driver]: an
   operation that returns [`Blocked] parks its client until a lock
   wakeup names its transaction, and when every client is parked the
   engine is asked to resolve the deadlock.  Unlike the Driver, a
   deadlock victim re-runs its transaction (a retry, not a failure), and
   the mix never deletes: updates target preloaded keys and inserts use
   fresh keys, so no operation fails on a missing or duplicate key.  Any
   other [`Fail] is a failed transaction. *)

module Engine = Untx_kernel.Engine
module Rng = Untx_util.Rng
module Zipf = Untx_util.Zipf

type mix = {
  table : string;
  ops_per_txn : int;
  read : float;  (* share of point reads *)
  scan : float;  (* share of short range scans; the rest are writes *)
  scan_limit : int;
  insert : float;  (* share of writes that insert a fresh key *)
  keys : int;  (* preloaded keys, chosen by Zipf rank *)
  theta : float;
  value_size : int;
  clients : int;
}

type stats = {
  mutable committed : int;
  mutable failed : int;
  mutable retries : int;  (* deadlock victims re-run *)
  mutable blocked : int;  (* operations that returned [`Blocked] *)
  latency_us : Probe.Samples.t;  (* first begin to commit return *)
}

let stats () =
  {
    committed = 0;
    failed = 0;
    retries = 0;
    blocked = 0;
    latency_us = Probe.Samples.create ();
  }

type intent =
  | Read of string
  | Scan of string
  | Update of string * string
  | Insert of string * string

type slot = {
  mutable txn : int option;  (* xid of the live attempt *)
  mutable script : intent list;
  mutable left : intent list;  (* operations not yet executed *)
  mutable parked : bool;
  mutable born : int;  (* ns at the first attempt's begin *)
}

(* Run [txns] transactions to completion.  [key rank] names the
   preloaded key of Zipf rank [rank]; fresh insert keys are [prefix]
   plus a counter, so they never collide. *)
let run (module E : Engine.S) mix ~seed ~txns ~key ~prefix st =
  let rng = Rng.create ~seed in
  let zipf = Zipf.create ~n:mix.keys ~theta:mix.theta in
  let fresh = ref 0 in
  let value () =
    String.init mix.value_size (fun _ ->
        Char.chr (Char.code 'a' + Rng.int rng 26))
  in
  let script () =
    List.init mix.ops_per_txn (fun _ ->
        let r = Rng.float rng 1.0 in
        if r < mix.read then Read (key (Zipf.sample zipf rng))
        else if r < mix.read +. mix.scan then Scan (key (Zipf.sample zipf rng))
        else if Rng.float rng 1.0 < mix.insert then begin
          incr fresh;
          Insert (Printf.sprintf "%s%08d" prefix !fresh, value ())
        end
        else Update (key (Zipf.sample zipf rng), value ()))
  in
  let table = mix.table in
  let exec txn = function
    | Read key -> (
      match E.read txn ~table ~key with
      | `Ok _ -> `Ok
      | (`Blocked | `Fail _) as o -> o)
    | Scan key -> (
      match E.scan txn ~table ~from_key:key ~limit:mix.scan_limit with
      | `Ok _ -> `Ok
      | (`Blocked | `Fail _) as o -> o)
    | Update (key, value) -> (
      match E.update txn ~table ~key ~value with
      | `Ok () -> `Ok
      | (`Blocked | `Fail _) as o -> o)
    | Insert (key, value) -> (
      match E.insert txn ~table ~key ~value with
      | `Ok () -> `Ok
      | (`Blocked | `Fail _) as o -> o)
  in
  let live = Hashtbl.create 16 in
  (* xid -> (slot, txn) *)
  let attempt slot =
    let t = E.begin_txn () in
    slot.txn <- Some (E.xid t);
    slot.left <- slot.script;
    slot.parked <- false;
    Hashtbl.replace live (E.xid t) (slot, t)
  in
  let started = ref 0 in
  let next slot =
    if !started < txns then begin
      incr started;
      slot.script <- script ();
      slot.born <- Probe.now_ns ();
      attempt slot
    end
    else slot.txn <- None
  in
  let slots =
    Array.init mix.clients (fun _ ->
        { txn = None; script = []; left = []; parked = false; born = 0 })
  in
  Array.iter next slots;
  let work = ref 0 in
  let finish slot x =
    Hashtbl.remove live x;
    next slot
  in
  let step slot =
    match slot.txn with
    | None -> ()
    | Some x -> (
      let _, t = Hashtbl.find live x in
      if not (E.is_active t) then begin
        (* a deadlock victim: run the same transaction again *)
        st.retries <- st.retries + 1;
        incr work;
        Hashtbl.remove live x;
        attempt slot
      end
      else
        match slot.left with
        | [] -> (
          match E.commit t with
          | `Ok () ->
            st.committed <- st.committed + 1;
            incr work;
            Probe.Samples.add st.latency_us
              (float_of_int (Probe.now_ns () - slot.born) /. 1e3);
            finish slot x
          | `Blocked -> slot.parked <- true
          | `Fail _ ->
            st.failed <- st.failed + 1;
            incr work;
            finish slot x)
        | op :: rest -> (
          match exec t op with
          | `Ok ->
            incr work;
            slot.left <- rest
          | `Blocked ->
            st.blocked <- st.blocked + 1;
            slot.parked <- true
          | `Fail reason ->
            E.abort t ~reason;
            st.failed <- st.failed + 1;
            incr work;
            finish slot x))
  in
  let stalls = ref 0 in
  while Array.exists (fun s -> s.txn <> None) slots do
    let before = !work in
    List.iter
      (fun x ->
        match Hashtbl.find_opt live x with
        | Some (slot, _) -> slot.parked <- false
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
      (* every live client is parked: a waits-for cycle, or a wakeup
         still queued *)
      ignore (E.resolve_deadlock ());
      Array.iter (fun slot -> slot.parked <- false) slots
    end;
    if !work > before then stalls := 0
    else begin
      incr stalls;
      if !stalls > 1000 then failwith "Client.run: livelock"
    end
  done
