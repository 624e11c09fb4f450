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

type item = { due : int; seq : int; frame : string }

(* One channel of the plane: its DC-side endpoint, the frames in flight
   each way (newest first) and its byte and delivery accounting.  The
   counters every frame bumps are resolved once at creation; a link
   without a label mirrors into private cells nobody reads. *)
type lane = {
  ch : string; (* span attribute *)
  handler : string -> string option;
  mutable to_dc : item list;
  mutable to_tc : item list;
  mutable bytes : int;
  mutable delivered : int;
  c_bytes : int ref;
  c_delivered : int ref;
  l_bytes : int ref;
  l_delivered : int ref;
}

let lane counters label ~ch ~bytes ~delivered ~per_link_delivered handler =
  let cell name = Metrics.counter_cell counters ("transport." ^ name) in
  let labeled name =
    match label with None -> ref 0 | Some l -> cell (l ^ "." ^ name)
  in
  {
    ch;
    handler;
    to_dc = [];
    to_tc = [];
    bytes = 0;
    delivered = 0;
    c_bytes = cell bytes;
    c_delivered = cell delivered;
    l_bytes = labeled bytes;
    l_delivered = (if per_link_delivered then labeled delivered else ref 0);
  }

let add cell n = cell := !cell + n

type t = {
  policy : policy; (* every lane's adversary *)
  rng : Rng.t;
  data : lane; (* operation requests and replies *)
  control : lane; (* watermarks, checkpoints, restart protocol *)
  repl : lane; (* TC -> standby replication frames and acks *)
  counters : Instrument.t;
  c_batches : int ref;
  c_batched_frames : int ref;
  label : string option;
      (* per-link counter prefix: a deployment names each (TC, DC) link
         so byte/delivery accounting can be read out per partition *)
  mutable now : int;
  mutable seq : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupt_dropped : int;
}

let create ?(counters = Instrument.global) ?(policy = reliable) ?label
    ?(repl = fun _ -> None) ~seed ~data ~control () =
  let lane = lane counters label in
  {
    policy;
    rng = Rng.create ~seed;
    data =
      lane ~ch:"data" ~bytes:"data_bytes" ~delivered:"delivered"
        ~per_link_delivered:true data;
    control =
      lane ~ch:"ctl" ~bytes:"control_bytes" ~delivered:"control_delivered"
        ~per_link_delivered:false control;
    repl =
      lane ~ch:"repl" ~bytes:"repl_bytes" ~delivered:"repl_delivered"
        ~per_link_delivered:false repl;
    counters;
    c_batches = Metrics.counter_cell counters "transport.batches";
    c_batched_frames = Metrics.counter_cell counters "transport.batched_frames";
    label;
    now = 0;
    seq = 0;
    dropped = 0;
    duplicated = 0;
    corrupt_dropped = 0;
  }

(* Span attributes identifying where on the plane an event happened:
   lane, direction, and (in a deployment) the link's label. *)
let trace_attrs t l dir =
  let base =
    [ ("ch", l.ch); ("dir", (match dir with `Req -> "req" | `Rep -> "rep")) ]
  in
  match t.label with None -> base | Some link -> ("link", link) :: base

(* Every frame traced here is either the sender's own or one the
   receiving edge has verified, so the id is read without a checksum
   pass. *)
let trace_event t l dir ev frame =
  if Trace.enabled () then
    let tid = Wire.Verified.tid frame in
    if tid <> 0 then Trace.record ~tid ~comp:"transport" ~ev (trace_attrs t l dir)

let schedule t l dir frame =
  let p = t.policy in
  (* The sender pays for every frame handed to the plane, in measured
     encoded bytes — including ones the adversary then loses. *)
  let len = String.length frame in
  l.bytes <- l.bytes + len;
  add l.c_bytes len;
  add l.l_bytes len;
  if Metrics.timed t.counters then
    Metrics.observe t.counters "transport.frame_bytes" len;
  let copies =
    if Rng.chance t.rng p.drop_prob then begin
      t.dropped <- t.dropped + 1;
      Instrument.bump t.counters "transport.dropped";
      trace_event t l dir "drop" frame;
      0
    end
    else if Rng.chance t.rng p.dup_prob then begin
      t.duplicated <- t.duplicated + 1;
      Instrument.bump t.counters "transport.duplicated";
      2
    end
    else 1
  in
  if copies > 0 then trace_event t l dir "xmit" frame;
  let rec push queue n =
    if n = 0 then queue
    else begin
      let span = p.delay_max - p.delay_min in
      let delay = p.delay_min + if span > 0 then Rng.int t.rng (span + 1) else 0 in
      t.seq <- t.seq + 1;
      push ({ due = t.now + delay; seq = t.seq; frame } :: queue) (n - 1)
    end
  in
  match dir with
  | `Req -> l.to_dc <- push l.to_dc copies
  | `Rep -> l.to_tc <- push l.to_tc copies

let send t frame = schedule t t.data `Req frame

let send_control t frame = schedule t t.control `Req frame

let send_repl t frame = schedule t t.repl `Req frame

(* Split a queue into due and not-yet-due; due messages come back in
   delivery order (FIFO by seq, or shuffled when reordering). *)
let split_due t queue =
  let due, rest = List.partition (fun item -> item.due <= t.now) queue in
  let due = List.sort (fun (a : item) b -> Int.compare a.seq b.seq) due in
  let due =
    if t.policy.reorder && List.length due > 1 then begin
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
let take_due t queue =
  match queue with
  | [] -> ([], [])
  | _ ->
    if
      (not t.policy.reorder)
      && List.for_all (fun item -> item.due <= t.now) queue
    then (List.rev queue, [])
    else split_due t queue

let take t l dir =
  match dir with
  | `Req ->
    let due, rest = take_due t l.to_dc in
    l.to_dc <- rest;
    due
  | `Rep ->
    let due, rest = take_due t l.to_tc in
    l.to_tc <- rest;
    due

(* The receiving edge of every lane: maybe corrupt (fault point), then
   verify the checksum.  A frame that fails verification is dropped;
   only frames that pass are handed on. *)
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
    incr t.c_batches;
    add t.c_batched_frames n
  end

(* Hand due request frames to the lane's endpoint and queue its replies
   back toward the TC. *)
let deliver t l due =
  List.iter
    (fun item ->
      match receive t item.frame with
      | None -> ()
      | Some frame -> (
        l.delivered <- l.delivered + 1;
        incr l.c_delivered;
        incr l.l_delivered;
        trace_event t l `Req "recv" frame;
        match l.handler frame with
        | None -> ()
        | Some reply -> schedule t l `Rep reply))
    due

(* Due reply frames that pass the receiving edge, in delivery order. *)
let surface t l due =
  List.filter_map
    (fun item ->
      match receive t item.frame with
      | None -> None
      | Some frame ->
        trace_event t l `Rep "recv" frame;
        Some frame)
    due

(* Data and control requests due this tick form one batch and are both
   taken before either is delivered; replication frames follow as a
   batch of their own.  The order fixes the sequence of adversary
   draws, hence every seeded run's schedule. *)
let deliver_requests t =
  let due_d = take t t.data `Req in
  let due_c = take t t.control `Req in
  count_batch t (List.length due_d + List.length due_c);
  deliver t t.data due_d;
  deliver t t.control due_c;
  let due_r = take t t.repl `Req in
  count_batch t (List.length due_r);
  deliver t t.repl due_r

let drain t =
  t.now <- t.now + 1;
  deliver_requests t;
  let due_d = take t t.data `Rep in
  let due_c = take t t.control `Rep in
  count_batch t (List.length due_d + List.length due_c);
  (* One pair expression: OCaml evaluates it right to left, so control
     replies meet the corruption draw first, as seeded runs expect. *)
  (surface t t.data due_d, surface t t.control due_c)

(* The replication lane drains on its own clock: a repl-only link
   (TC -> standby) never carries data or control frames, so [drain]
   keeps its (replies, control replies) signature. *)
let drain_repl t =
  t.now <- t.now + 1;
  deliver_requests t;
  let due = take t t.repl `Rep in
  count_batch t (List.length due);
  surface t t.repl due

let lanes t = [ t.data; t.control; t.repl ]

let drop_in_flight t =
  List.iter
    (fun l ->
      l.to_dc <- [];
      l.to_tc <- [])
    (lanes t)

let in_flight t =
  List.fold_left
    (fun n l -> n + List.length l.to_dc + List.length l.to_tc)
    0 (lanes t)

let requests_delivered t = t.data.delivered

let dropped t = t.dropped

let duplicated t = t.duplicated

let corrupt_dropped t = t.corrupt_dropped

let data_bytes_sent t = t.data.bytes

let control_bytes_sent t = t.control.bytes

let bytes_sent t = t.data.bytes + t.control.bytes + t.repl.bytes
