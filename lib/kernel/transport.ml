module Rng = Untx_util.Rng
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Wire = Untx_msg.Wire
module Fault = Untx_fault.Fault

type policy = {
  delay_min : int;
  delay_max : int;
  reorder : bool;
  dup_prob : float;
  drop_prob : float;
}

let reliable =
  { delay_min = 0; delay_max = 0; reorder = false; dup_prob = 0.; drop_prob = 0. }

let chaotic =
  { delay_min = 0; delay_max = 3; reorder = true; dup_prob = 0.1; drop_prob = 0.1 }

(* A delivery attempt passes through this point; when a rule fires, the
   frame is corrupted in place.  The receiving edge's checksum check
   then rejects and drops it — the resend path carries it, like any
   other lost message. *)
let p_frame_corrupt = Fault.declare "transport.frame.corrupt"

type channel = Data | Control | Repl

type item = { due : int; seq : int; frame : string }

(* The counters every frame bumps, resolved once at creation.  A link
   without a label mirrors into private cells nobody reads. *)
type cells = {
  c_data_bytes : int ref;
  c_control_bytes : int ref;
  c_repl_bytes : int ref;
  c_delivered : int ref;
  c_control_delivered : int ref;
  c_repl_delivered : int ref;
  c_batches : int ref;
  c_batched_frames : int ref;
  l_data_bytes : int ref;
  l_control_bytes : int ref;
  l_repl_bytes : int ref;
  l_delivered : int ref;
}

let cells_for counters label =
  let cell name = Metrics.counter_cell counters ("transport." ^ name) in
  let labeled suffix =
    match label with
    | None -> ref 0
    | Some l -> cell (l ^ "." ^ suffix)
  in
  {
    c_data_bytes = cell "data_bytes";
    c_control_bytes = cell "control_bytes";
    c_repl_bytes = cell "repl_bytes";
    c_delivered = cell "delivered";
    c_control_delivered = cell "control_delivered";
    c_repl_delivered = cell "repl_delivered";
    c_batches = cell "batches";
    c_batched_frames = cell "batched_frames";
    l_data_bytes = labeled "data_bytes";
    l_control_bytes = labeled "control_bytes";
    l_repl_bytes = labeled "repl_bytes";
    l_delivered = labeled "delivered";
  }

let add cell n = cell := !cell + n

type t = {
  mutable policy : policy;
  mutable control_policy : policy;
  rng : Rng.t;
  data_handler : string -> string option;
  control_handler : string -> string option;
  repl_handler : string -> string option;
  counters : Instrument.t;
  cells : cells;
  label : string option;
      (* per-link counter prefix: a deployment names each (TC, DC) link
         so byte/delivery accounting can be read out per partition *)
  mutable now : int;
  mutable seq : int;
  mutable dc_data : item list; (* TC -> DC request frames *)
  mutable dc_ctl : item list; (* TC -> DC control frames *)
  mutable dc_repl : item list; (* TC -> standby replication frames *)
  mutable tc_data : item list; (* DC -> TC reply frames *)
  mutable tc_ctl : item list; (* DC -> TC control-reply frames *)
  mutable tc_repl : item list; (* standby -> TC replication acks *)
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable force_delivered : int;
  mutable corrupt_dropped : int;
  mutable data_bytes : int;
  mutable control_bytes : int;
  mutable repl_bytes : int;
}

let create ?(counters = Instrument.global) ?(policy = reliable) ?control_policy
    ?label ?(repl = fun _ -> None) ~seed ~data ~control () =
  {
    policy;
    control_policy = Option.value control_policy ~default:policy;
    rng = Rng.create ~seed;
    data_handler = data;
    control_handler = control;
    repl_handler = repl;
    counters;
    cells = cells_for counters label;
    label;
    now = 0;
    seq = 0;
    dc_data = [];
    dc_ctl = [];
    dc_repl = [];
    tc_data = [];
    tc_ctl = [];
    tc_repl = [];
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    force_delivered = 0;
    corrupt_dropped = 0;
    data_bytes = 0;
    control_bytes = 0;
    repl_bytes = 0;
  }

let set_policy t policy =
  t.policy <- policy;
  t.control_policy <- policy

(* Replication frames are contract-governed like control traffic and
   face the same adversary. *)
let policy_for t = function
  | Data -> t.policy
  | Control | Repl -> t.control_policy

(* Span attributes identifying where on the plane an event happened:
   channel, direction, and (in a deployment) the link's label. *)
let trace_attrs t ch dir =
  let base =
    [
      ("ch", (match ch with Data -> "data" | Control -> "ctl" | Repl -> "repl"));
      ("dir", (match dir with `Req -> "req" | `Rep -> "rep"));
    ]
  in
  match t.label with None -> base | Some l -> ("link", l) :: base

(* Every frame traced here is either the sender's own or one the
   receiving edge has verified, so the id is read without a checksum
   pass. *)
let trace_event t ch dir ev frame =
  if Trace.enabled () then
    let tid = Wire.Verified.tid frame in
    if tid <> 0 then Trace.record ~tid ~comp:"transport" ~ev (trace_attrs t ch dir)

let schedule t ch dir queue frame =
  let p = policy_for t ch in
  (* The sender pays for every frame handed to the plane, in measured
     encoded bytes — including ones the adversary then loses. *)
  let len = String.length frame in
  (match ch with
  | Data ->
    t.data_bytes <- t.data_bytes + len;
    add t.cells.c_data_bytes len;
    add t.cells.l_data_bytes len
  | Control ->
    t.control_bytes <- t.control_bytes + len;
    add t.cells.c_control_bytes len;
    add t.cells.l_control_bytes len
  | Repl ->
    t.repl_bytes <- t.repl_bytes + len;
    add t.cells.c_repl_bytes len;
    add t.cells.l_repl_bytes len);
  if Metrics.timed t.counters then
    Metrics.observe t.counters "transport.frame_bytes" len;
  let copies =
    if Rng.chance t.rng p.drop_prob then begin
      t.dropped <- t.dropped + 1;
      Instrument.bump t.counters "transport.dropped";
      trace_event t ch dir "drop" frame;
      0
    end
    else if Rng.chance t.rng p.dup_prob then begin
      t.duplicated <- t.duplicated + 1;
      Instrument.bump t.counters "transport.duplicated";
      2
    end
    else 1
  in
  if copies > 0 then trace_event t ch dir "xmit" frame;
  let rec add queue n =
    if n = 0 then queue
    else begin
      let span = p.delay_max - p.delay_min in
      let delay = p.delay_min + if span > 0 then Rng.int t.rng (span + 1) else 0 in
      t.seq <- t.seq + 1;
      add ({ due = t.now + delay; seq = t.seq; frame } :: queue) (n - 1)
    end
  in
  add queue copies

let send t frame = t.dc_data <- schedule t Data `Req t.dc_data frame

let send_control t frame = t.dc_ctl <- schedule t Control `Req t.dc_ctl frame

let send_repl t frame = t.dc_repl <- schedule t Repl `Req t.dc_repl frame

(* Split a queue into due and not-yet-due; due messages come back in
   delivery order (FIFO by seq, or shuffled when reordering). *)
let split_due t ch queue =
  let due, rest = List.partition (fun item -> item.due <= t.now) queue in
  let due = List.sort (fun (a : item) b -> Int.compare a.seq b.seq) due in
  let due =
    if (policy_for t ch).reorder && List.length due > 1 then begin
      let arr = Array.of_list due in
      Rng.shuffle t.rng arr;
      Array.to_list arr
    end
    else due
  in
  (due, rest)

(* A queue is newest first (sends prepend, and the split keeps order),
   so when everything is due and nothing reorders — always, under a
   policy without delays — delivery order is the queue reversed. *)
let take_due t ch queue =
  match queue with
  | [] -> ([], [])
  | _ ->
    if
      (not (policy_for t ch).reorder)
      && List.for_all (fun item -> item.due <= t.now) queue
    then (List.rev queue, [])
    else split_due t ch queue

(* The receiving edge of either channel: maybe corrupt (fault point),
   then verify the checksum.  A frame that fails verification is
   dropped; only frames that pass are handed to the endpoint. *)
let receive t frame =
  let frame =
    match Fault.hit p_frame_corrupt with
    | () -> frame
    | exception (Fault.Injected_crash _ | Fault.Io_error _) ->
      Instrument.bump t.counters "transport.frames_corrupted";
      let b = Bytes.of_string frame in
      let i = Rng.int t.rng (Bytes.length b) in
      let flip = 1 + Rng.int t.rng 255 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor flip));
      Bytes.unsafe_to_string b
  in
  if Wire.frame_ok frame then Some frame
  else begin
    t.corrupt_dropped <- t.corrupt_dropped + 1;
    Instrument.bump t.counters "transport.corrupt_dropped";
    None
  end

(* All frames due in one delivery round are coalesced into a single
   batch (amortizing per-message overhead in a real deployment); the
   counters record how much coalescing the workload's traffic shape
   actually allows. *)
let count_batch t n =
  if n > 0 then begin
    incr t.cells.c_batches;
    add t.cells.c_batched_frames n
  end

let deliver_requests t =
  let due_d, rest_d = take_due t Data t.dc_data in
  t.dc_data <- rest_d;
  let due_c, rest_c = take_due t Control t.dc_ctl in
  t.dc_ctl <- rest_c;
  count_batch t (List.length due_d + List.length due_c);
  List.iter
    (fun item ->
      match receive t item.frame with
      | None -> ()
      | Some frame -> (
        t.delivered <- t.delivered + 1;
        incr t.cells.c_delivered;
        incr t.cells.l_delivered;
        trace_event t Data `Req "recv" frame;
        match t.data_handler frame with
        | None -> ()
        | Some reply -> t.tc_data <- schedule t Data `Rep t.tc_data reply))
    due_d;
  List.iter
    (fun item ->
      match receive t item.frame with
      | None -> ()
      | Some frame -> (
        incr t.cells.c_control_delivered;
        trace_event t Control `Req "recv" frame;
        match t.control_handler frame with
        | None -> ()
        | Some reply -> t.tc_ctl <- schedule t Control `Rep t.tc_ctl reply))
    due_c;
  let due_r, rest_r = take_due t Repl t.dc_repl in
  t.dc_repl <- rest_r;
  count_batch t (List.length due_r);
  List.iter
    (fun item ->
      match receive t item.frame with
      | None -> ()
      | Some frame -> (
        incr t.cells.c_repl_delivered;
        trace_event t Repl `Req "recv" frame;
        match t.repl_handler frame with
        | None -> ()
        | Some reply -> t.tc_repl <- schedule t Repl `Rep t.tc_repl reply))
    due_r

let take_replies t =
  let due_d, rest_d = take_due t Data t.tc_data in
  t.tc_data <- rest_d;
  let due_c, rest_c = take_due t Control t.tc_ctl in
  t.tc_ctl <- rest_c;
  count_batch t (List.length due_d + List.length due_c);
  let keep ch items =
    List.filter_map
      (fun item ->
        match receive t item.frame with
        | None -> None
        | Some frame ->
          trace_event t ch `Rep "recv" frame;
          Some frame)
      items
  in
  (keep Data due_d, keep Control due_c)

let take_repl_replies t =
  let due_r, rest_r = take_due t Repl t.tc_repl in
  t.tc_repl <- rest_r;
  count_batch t (List.length due_r);
  List.filter_map
    (fun item ->
      match receive t item.frame with
      | None -> None
      | Some frame ->
        trace_event t Repl `Rep "recv" frame;
        Some frame)
    due_r

let drain t =
  t.now <- t.now + 1;
  deliver_requests t;
  take_replies t

(* The replication channel drains on its own clock: a repl-only link
   (TC -> standby) never carries data or control frames, so the shared
   [drain] keeps its two-channel signature. *)
let drain_repl t =
  t.now <- t.now + 1;
  deliver_requests t;
  take_repl_replies t

let flush t =
  let saved_data = t.policy and saved_ctl = t.control_policy in
  t.policy <- reliable;
  t.control_policy <- reliable;
  let out_d = ref [] and out_c = ref [] (* newest first; reversed on return *) in
  let n = ref 0 in
  while
    t.dc_data <> [] || t.dc_ctl <> [] || t.dc_repl <> [] || t.tc_data <> []
    || t.tc_ctl <> [] || t.tc_repl <> []
  do
    t.now <- t.now + 1000;
    deliver_requests t;
    let replies, ctl_replies = take_replies t in
    let repl_replies = take_repl_replies t in
    List.iter
      (fun f ->
        incr n;
        out_d := f :: !out_d)
      replies;
    List.iter
      (fun f ->
        incr n;
        out_c := f :: !out_c)
      ctl_replies;
    List.iter (fun _ -> incr n) repl_replies
  done;
  t.policy <- saved_data;
  t.control_policy <- saved_ctl;
  t.force_delivered <- t.force_delivered + !n;
  Instrument.bump_by t.counters "transport.flush_delivered" !n;
  (List.rev !out_d, List.rev !out_c)

let drop_in_flight t =
  t.dc_data <- [];
  t.dc_ctl <- [];
  t.dc_repl <- [];
  t.tc_data <- [];
  t.tc_ctl <- [];
  t.tc_repl <- []

let in_flight t =
  List.length t.dc_data + List.length t.dc_ctl + List.length t.dc_repl
  + List.length t.tc_data + List.length t.tc_ctl + List.length t.tc_repl

let requests_delivered t = t.delivered

let dropped t = t.dropped

let duplicated t = t.duplicated

let force_delivered t = t.force_delivered

let corrupt_dropped t = t.corrupt_dropped

let data_bytes_sent t = t.data_bytes

let control_bytes_sent t = t.control_bytes

let bytes_sent t = t.data_bytes + t.control_bytes + t.repl_bytes
