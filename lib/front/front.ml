module Deploy = Untx_cloud.Deploy
module Tc = Untx_tc.Tc
module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace

type op =
  | Insert of { table : string; key : string; value : string }
  | Update of { table : string; key : string; value : string }
  | Delete of { table : string; key : string }
  | Read of { table : string; key : string }

type result = Committed of string option list | Rejected of string

type config = {
  max_sessions : int;
  session_queue : int;
  total_queue : int;
  batch : int;
}

let default_config =
  { max_sessions = 64; session_queue = 8; total_queue = 256; batch = 4 }

exception Overloaded of string

type session = {
  sid : int;
  tc_name : string;
  q : (int * op list) Queue.t;  (* (ticket, transaction), FIFO *)
}

type t = {
  cfg : config;
  deploy : Deploy.t;
  counters : Instrument.t;
  c_admitted : int ref; (* "front.admitted", resolved once *)
  c_batched : int ref; (* "front.batched" *)
  tcs : string array;  (* deployment TCs in name order, assignment ring *)
  mutable rev_sessions : session list;  (* newest first *)
  mutable nsessions : int;
  mutable next_ticket : int;
  mutable queued : int;  (* across all session queues *)
  results : (int, result) Hashtbl.t;
  mutable cursor : int;  (* next session the round-robin serves *)
}

let create ?(counters = Instrument.create ()) ?(cfg = default_config) deploy =
  if cfg.max_sessions < 1 || cfg.session_queue < 1 || cfg.total_queue < 1 then
    invalid_arg "Front.create: bounds must be >= 1";
  let tcs = Array.of_list (List.sort compare (Deploy.tc_names deploy)) in
  if Array.length tcs = 0 then
    invalid_arg "Front.create: deployment has no TC";
  Array.iter
    (fun name -> Tc.set_group_commit (Deploy.tc deploy name) cfg.batch)
    tcs;
  {
    cfg;
    deploy;
    counters;
    c_admitted = Metrics.counter_cell counters "front.admitted";
    c_batched = Metrics.counter_cell counters "front.batched";
    tcs;
    rev_sessions = [];
    nsessions = 0;
    next_ticket = 1;
    queued = 0;
    results = Hashtbl.create 64;
    cursor = 0;
  }

let shed t reason =
  Instrument.bump t.counters "front.shed";
  Trace.record ~tid:0 ~comp:"front" ~ev:"shed" [ ("reason", reason) ]

let open_session t =
  if t.nsessions >= t.cfg.max_sessions then begin
    shed t "max_sessions";
    raise (Overloaded "Front.open_session: max_sessions reached")
  end;
  let sid = t.nsessions in
  let s =
    { sid; tc_name = t.tcs.(sid mod Array.length t.tcs); q = Queue.create () }
  in
  t.nsessions <- sid + 1;
  t.rev_sessions <- s :: t.rev_sessions;
  s

let session_tc s = s.tc_name

let session_id s = s.sid

let tc_of_session t s = Deploy.tc t.deploy s.tc_name

let submit t s ops =
  if ops = [] then invalid_arg "Front.submit: empty transaction";
  if Queue.length s.q >= t.cfg.session_queue then begin
    shed t "session_queue";
    `Overloaded
      (Printf.sprintf "session %d pipeline full (%d queued)" s.sid
         (Queue.length s.q))
  end
  else if t.queued >= t.cfg.total_queue then begin
    shed t "total_queue";
    `Overloaded (Printf.sprintf "front saturated (%d queued)" t.queued)
  end
  else begin
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    Queue.push (ticket, ops) s.q;
    t.queued <- t.queued + 1;
    incr t.c_admitted;
    Trace.record ~tid:0 ~comp:"front" ~ev:"admitted"
      [ ("session", string_of_int s.sid); ("tc", s.tc_name) ];
    `Ticket ticket
  end

(* Run one transaction to completion on the session's home TC.  The
   front serves one transaction at a time per TC, so locks never
   contend within the front; [`Blocked] can only mean some co-located
   workload holds the lock — surface it as a refusal rather than spin. *)
let run_txn tc ops =
  let txn = Tc.begin_txn tc in
  let reads = ref [] in
  let wrote = ref false in
  let step = function
    | Insert { table; key; value } ->
      wrote := true;
      (match Tc.insert tc txn ~table ~key ~value with
      | `Ok () -> None
      | `Blocked -> Some "blocked"
      | `Fail r -> Some r)
    | Update { table; key; value } ->
      wrote := true;
      (match Tc.update tc txn ~table ~key ~value with
      | `Ok () -> None
      | `Blocked -> Some "blocked"
      | `Fail r -> Some r)
    | Delete { table; key } ->
      wrote := true;
      (match Tc.delete tc txn ~table ~key with
      | `Ok () -> None
      | `Blocked -> Some "blocked"
      | `Fail r -> Some r)
    | Read { table; key } ->
      (match Tc.read tc txn ~table ~key with
      | `Ok v ->
        reads := v :: !reads;
        None
      | `Blocked -> Some "blocked"
      | `Fail r -> Some r)
  in
  let rec go = function
    | [] ->
      (match Tc.commit tc txn with
      | `Ok () -> (Committed (List.rev !reads), !wrote)
      | `Blocked | `Fail _ ->
        (* commit rolled the transaction back itself on `Fail *)
        (Rejected "commit failed", !wrote))
    | op :: rest ->
      (match step op with
      | None -> go rest
      | Some reason ->
        Tc.abort tc txn ~reason;
        (Rejected reason, !wrote))
  in
  go ops

let pending t = t.queued

let sessions t = t.nsessions

let pump ?(budget = max_int) t =
  let arr = Array.of_list (List.rev t.rev_sessions) in
  let n = Array.length arr in
  let finished = ref 0 in
  if n > 0 then begin
    let idle = ref 0 in
    (* stop after a full empty rotation or when the budget runs out *)
    while !finished < budget && !idle < n do
      let s = arr.(t.cursor mod n) in
      t.cursor <- (t.cursor + 1) mod n;
      if Queue.is_empty s.q then incr idle
      else begin
        idle := 0;
        let ticket, ops = Queue.pop s.q in
        t.queued <- t.queued - 1;
        let tc = Deploy.tc t.deploy s.tc_name in
        let stable_before = Tc.stable_lsn tc in
        let r, wrote = run_txn tc ops in
        (match r with
        | Committed _
          when wrote && Lsn.to_int (Tc.stable_lsn tc) = Lsn.to_int stable_before
          ->
          (* the commit's force was deferred into the open batch *)
          incr t.c_batched;
          Trace.record ~tid:0 ~comp:"front" ~ev:"batched"
            [ ("tc", s.tc_name) ]
        | _ -> ());
        Hashtbl.replace t.results ticket r;
        incr finished
      end
    done
  end;
  !finished

let flush t =
  Array.iter (fun name -> Tc.force_log (Deploy.tc t.deploy name)) t.tcs

let drain t =
  while t.queued > 0 do
    ignore (pump t)
  done;
  flush t

let poll t ticket =
  match Hashtbl.find_opt t.results ticket with
  | Some r ->
    Hashtbl.remove t.results ticket;
    `Done r
  | None ->
    if ticket >= 1 && ticket < t.next_ticket then
      let queued_somewhere =
        List.exists
          (fun s -> Queue.fold (fun acc (k, _) -> acc || k = ticket) false s.q)
          t.rev_sessions
      in
      if queued_somewhere then `Pending
      else invalid_arg "Front.poll: ticket already consumed"
    else invalid_arg "Front.poll: unknown ticket"
