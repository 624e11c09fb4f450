module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Wal = Untx_wal.Wal
module Fault = Untx_fault.Fault
module Op = Untx_msg.Op
module Wire = Untx_msg.Wire
module Session = Untx_msg.Session

type cc_protocol = Key_locks | Range_locks of int | Table_locks | Optimistic

type config = {
  id : Tc_id.t;
  cc_protocol : cc_protocol;
  lwm_every : int;
  pipeline_writes : bool;
  checkpoint_every : int;
}

let default_config id =
  {
    id;
    cc_protocol = Key_locks;
    lwm_every = 16;
    pipeline_writes = true;
    checkpoint_every = 0;
  }

let p_commit_before_force = Fault.declare "tc.commit.before_force"

let p_commit_after_force = Fault.declare "tc.commit.after_force"

let p_recover_mid = Fault.declare "tc.recover.mid"

type dc_link = {
  dc_name : string;
  part : int; (* the DC's partition id; stamped into every request *)
  send : string -> unit; (* encoded request frame, data channel *)
  send_control : string -> unit; (* encoded control frame *)
  drain : unit -> string list * string list;
      (* due (reply frames, control-reply frames), verified by the
         transport's receiving edge *)
}

(* Per-link control-session state wrapped around the kernel-provided
   link.  The epoch/seq contract — unique densely-increasing sequence
   ids under an epoch that advances whenever either end restarts, cached
   frames resent with backoff — lives in {!Session.Sender}, shared with
   the replication channel. *)
type link_state = {
  ls_link : dc_link;
  ls_ctl : Wire.control_reply Session.Sender.t;
  mutable ls_sent_watermarks : (Lsn.t * Lsn.t) option;
      (* last (eosl, lwm) posted this epoch; unchanged values are not
         re-posted (each would cost a control round trip per link) *)
}

type txn_state = Active | Committed | Aborted

type txn = {
  t_xid : int;
  mutable state : txn_state;
  mutable first_lsn : Lsn.t;
  mutable undo_stack : Op.t list; (* inverse ops, newest first *)
  mutable vwrites : (string * string) list; (* versioned (table, key) *)
  mutable failed : string option;
  mutable outstanding : int; (* its pendings still in flight *)
  (* optimistic mode: execution collects observations and buffers
     writes; commit validates then applies *)
  mutable read_set : (string * string * string option) list;
  mutable scan_set : (string * string * int * (string * string) list) list;
  mutable write_buf : Op.t list; (* oldest first at commit (kept reversed) *)
  mutable occ_applying : bool; (* commit is materializing buffered writes *)
}

(* A request in flight, from dispatch until its reply settles it: the
   TC's one record of it.  The low-water marks derive from the table of
   these, and the caller awaiting the reply reads it from [p_result]. *)
type pending = {
  p_req : Wire.request;
  p_frame : string; (* the encoded frame; resends repeat it verbatim *)
  p_link : link_state;
  p_clock : Session.Backoff.t;
  p_txn : txn option;
  p_tid : int; (* trace id stamped into p_frame; 0 when untraced *)
  p_sent : int; (* Metrics.start at first send, for the rtt histogram *)
  mutable p_fenced : bool;
      (* the target DC restarted and the redo scan owns this request: it
         must not resend (or count as an in-flight conflict) until the
         scan re-dispatches it at its place in LSN order *)
  mutable p_result : Wire.result option; (* set when settled *)
}

(* A redo batch in flight: one frame carrying a run of logged operations
   to one DC.  Redo awaits each batch before it fills the next, so a TC
   has at most one.  Like a pending it resends verbatim. *)
type batch = {
  b_ops : (Lsn.t * Op.t) list; (* the frame's run, in LSN order *)
  b_frame : string;
  b_link : link_state;
  b_clock : Session.Backoff.t;
  b_tid : int;
}

type 'a outcome = [ `Ok of 'a | `Blocked | `Fail of string ]

(* [r_dc_of key] names the DC holding [key]: a partition map, constant
   for a table mapped to one DC. *)
type route = { r_versioned : bool; r_dc_of : string -> string }

type t = {
  cfg : config;
  counters : Instrument.t;
  (* "tc.requests_sent", "tc.control_sent", "tc.control_unacked",
     "tc.commits" and "tc.lock_waits", resolved once *)
  c_requests_sent : int ref;
  c_control_sent : int ref;
  c_control_unacked : int ref;
  c_commits : int ref;
  c_lock_waits : int ref;
  log : Log_record.t Wal.t;
  mutable locks : Lock_mgr.t;
  links : (string, link_state) Hashtbl.t;
  routes : (string, route) Hashtbl.t;
  txns : (int, txn) Hashtbl.t;
  pendings : (int, pending) Hashtbl.t; (* keyed by LSN *)
  wakeups : int Queue.t;
  mutable rssp : Lsn.t;
  mutable in_flight_batch : batch option; (* see [batch] *)
  mutable lwm_cap : Lsn.t option;
      (* During restart redo the low-water mark may only cover operations
         already re-acknowledged: resent history is "outstanding" even
         before it is dispatched.  The cap tracks the redo cursor. *)
  mutable undispatched : (Lsn.t * Op.t) list;
      (* The committing transaction's version cleanups logged but not
         yet sent, oldest first: commit logs every partition's cleanup
         before the single force, then dispatches them one by one, and
         only one commit does so at a time.  A watermark
         pumped in that window — an ack from a *sibling* partition can
         trigger one — must not claim these: the target DC would advance
         its abstract-LSN cover past them and absorb the real operation
         as a duplicate when it finally arrives. *)
  mutable acked_since_lwm : int;
  mutable next_xid : int;
  mutable msgs : int;
  mutable resend_count : int;
  mutable unforced_commits : int; (* group commit: commits awaiting a force *)
  mutable commits_since_ckpt : int;
      (* toward [cfg.checkpoint_every]; a crash keeps it, so the next
         checkpoint still comes that many commits after the last *)
  mutable group_commit : int;
      (* live group-commit batch size, initially 1.  A session front end
         retunes it at run time to batch commits from many client
         sessions under one force. *)
  mutable durability_gate : (Lsn.t -> unit) option;
      (* invoked after every group-commit force with the new stable LSN;
         a replication manager blocks here until its durability policy
         (e.g. quorum of standby acks) covers the LSN, so the commit ack
         below carries replicated durability, not just a local fsync *)
  mutable truncate_floor : (unit -> Lsn.t option) option;
      (* extra lower bound on checkpoint log truncation: a replication
         manager returns the lowest LSN a lagging standby still needs,
         so catch-up never finds its cursor truncated away *)
  mutable history_replay :
    (from:Lsn.t -> upto:Lsn.t -> ((Lsn.t -> Op.t -> unit) -> unit) option)
      option;
      (* redo source for history below retained_from: a layer store that
         absorbed the truncated prefix returns a feed of the original
         ops in [from, upto], or None when it cannot cover the range *)
}

let create ?(counters = Instrument.global) cfg =
  {
    cfg;
    counters;
    c_requests_sent = Metrics.counter_cell counters "tc.requests_sent";
    c_control_sent = Metrics.counter_cell counters "tc.control_sent";
    c_control_unacked = Metrics.counter_cell counters "tc.control_unacked";
    c_commits = Metrics.counter_cell counters "tc.commits";
    c_lock_waits = Metrics.counter_cell counters "tc.lock_waits";
    log = Wal.create ~counters ~label:"wal.tc" ~size:Log_record.size ();
    locks = Lock_mgr.create ();
    links = Hashtbl.create 4;
    routes = Hashtbl.create 16;
    txns = Hashtbl.create 64;
    pendings = Hashtbl.create 64;
    wakeups = Queue.create ();
    rssp = Lsn.next Lsn.zero;
    in_flight_batch = None;
    lwm_cap = None;
    undispatched = [];
    acked_since_lwm = 0;
    next_xid = 1;
    msgs = 0;
    resend_count = 0;
    unforced_commits = 0;
    commits_since_ckpt = 0;
    group_commit = 1;
    durability_gate = None;
    truncate_floor = None;
    history_replay = None;
  }

let id t = t.cfg.id

let set_group_commit t n =
  if n < 1 then invalid_arg "Tc.set_group_commit: size must be >= 1";
  t.group_commit <- n

let group_commit t = t.group_commit

let set_durability_gate t f = t.durability_gate <- Some f

let set_truncate_floor t f = t.truncate_floor <- Some f

let set_history_replay t f = t.history_replay <- Some f

let attach_dc t link =
  Hashtbl.replace t.links link.dc_name
    {
      ls_link = link;
      ls_ctl = Session.Sender.create ();
      ls_sent_watermarks = None;
    }

let map_table t ~table ~dc ~versioned =
  if not (Hashtbl.mem t.links dc) then
    invalid_arg ("Tc.map_table: unknown DC " ^ dc);
  Hashtbl.replace t.routes table
    { r_versioned = versioned; r_dc_of = (fun _ -> dc) }

let map_table_partitioned t ~table ~versioned ~partition =
  Hashtbl.replace t.routes table
    { r_versioned = versioned; r_dc_of = partition }

let dc_of_key t table key =
  match Hashtbl.find_opt t.routes table with
  | Some r -> r.r_dc_of key
  | None -> invalid_arg ("Tc: table not mapped: " ^ table)

(* Route by the operation's key footprint: point ops by their key,
   ranged ops by their start key (scans stay inside one partition by
   schema construction), multi-key ops by their first key (they are
   built per-DC before logging). *)
let route_op t (op : Op.t) =
  let table = Op.table op in
  let dc =
    match op with
    | Op.Insert { key; _ } | Op.Update { key; _ } | Op.Delete { key; _ }
    | Op.Read { key; _ } -> dc_of_key t table key
    | Op.Scan { from_key; _ }
    | Op.Probe { from_key; _ }
    | Op.Fetch { from_key; _ } -> dc_of_key t table from_key
    | Op.Commit_versions { keys; _ } | Op.Abort_versions { keys; _ } -> (
      match keys with
      | key :: _ -> dc_of_key t table key
      | [] -> dc_of_key t table "")
  in
  match Hashtbl.find_opt t.links dc with
  | Some link -> link
  | None -> invalid_arg ("Tc: no link to DC " ^ dc)

let table_versioned t table =
  match Hashtbl.find_opt t.routes table with
  | Some r -> r.r_versioned
  | None -> false

let xid txn = txn.t_xid

let is_active txn = txn.state = Active

(* ------------------------------------------------------------------ *)
(* Message plumbing                                                    *)

(* Post a control message on a link: assign the next control-sequence
   id, encode, track the pending until an acknowledgement arrives
   through the pump loop, send.  Control traffic is asynchronous and
   contract-governed — nothing returns synchronously; callers that need
   the reply (checkpoint grants, restart barriers) keep the ticket and
   collect it with [await_control_reply]. *)
let post_control t ls ctl =
  let tk =
    Session.Sender.post ls.ls_ctl
      ~encode:(fun ~epoch ~seq ->
        Wire.encode_control { Wire.c_epoch = epoch; c_seq = seq; c_ctl = ctl })
      ~send:ls.ls_link.send_control
  in
  incr t.c_control_sent;
  incr t.c_control_unacked;
  tk

let broadcast_control t ctl =
  Hashtbl.iter (fun _ ls -> ignore (post_control t ls ctl)) t.links

let control_unacked t =
  Hashtbl.fold
    (fun _ ls acc -> acc + Session.Sender.unacked ls.ls_ctl)
    t.links 0

(* Drop a link's control-session state (the pendings died with a crash,
   or a new epoch voids them), keeping the unacked gauge honest. *)
let clear_ctl t ls =
  t.c_control_unacked :=
    !(t.c_control_unacked) - Session.Sender.clear ls.ls_ctl;
  (* The watermark memo is only valid within a session: after a crash on
     either end the DC's view is gone, so the next watermark must travel
     even if its value is unchanged. *)
  ls.ls_sent_watermarks <- None

(* Open a fresh control session on a link: frames of the old epoch
   still in flight (either direction) become stale and the DC resets
   its per-TC applied-sequence state on first contact. *)
let new_epoch t ls =
  t.c_control_unacked :=
    !(t.c_control_unacked) - Session.Sender.new_epoch ls.ls_ctl;
  ls.ls_sent_watermarks <- None

(* Cap a low-water claim: never past the stable log (pages whose
   abstract LSNs advance beyond it would all look "affected" after a TC
   crash, defeating the selective reset of Section 5.3.2) and never past
   the redo cursor during restart.  Capping is always sound — it only
   defers coverage. *)
let cap_lwm t base =
  let base = Lsn.min base (Wal.stable_lsn t.log) in
  let base =
    match t.undispatched with
    | (l, _) :: _ -> Lsn.min base (Lsn.prev l)
    | [] -> base
  in
  match t.lwm_cap with Some cap -> Lsn.min base cap | None -> base

(* Everything logged or reserved below the oldest pending that [counts]
   admits has been acknowledged.  Pendings are the only record of what
   is in flight, so the marks are a fold over them, taken once per
   [lwm_every] acks and per checkpoint; every pending LSN is at most
   [last_lsn], whose successor seeds the fold. *)
let lwm_of_pendings t counts =
  let oldest =
    Hashtbl.fold
      (fun _ p acc -> if counts p then Lsn.min p.p_req.Wire.lsn acc else acc)
      t.pendings
      (Lsn.next (Wal.last_lsn t.log))
  in
  cap_lwm t (Lsn.prev oldest)

(* The link-local low-water mark: everything below it that could ever
   reach *this* DC has been acknowledged.  Operations outstanding at
   sibling partitions don't appear — the partition map is static, so
   they can never arrive here, and making DC flush eligibility wait on
   another DC's in-flight traffic would couple the partitions' I/O.  A
   pending counts for the link record it was dispatched on: a failover
   re-attaches the DC under a fresh record, which starts with none. *)
let current_lwm_for t ls = lwm_of_pendings t (fun p -> p.p_link == ls)

(* The deployment-wide low-water mark (checkpoint target): every
   operation below it is acknowledged by its owning DC. *)
let current_lwm t = lwm_of_pendings t (fun _ -> true)

(* Push the low-water mark to one link, unless neither mark moved since
   the last push (the memo is per control session; [clear_ctl] voids
   it).  The end-of-stable-log travels in [send_eosl]'s broadcasts, so
   this push leaves its eosl zero: it claims nothing there. *)
let post_watermarks t ls =
  let eosl = Wal.stable_lsn t.log in
  let lwm = current_lwm_for t ls in
  let unchanged =
    match ls.ls_sent_watermarks with
    | Some (e, l) -> Lsn.equal e eosl && Lsn.equal l lwm
    | None -> false
  in
  if not unchanged then begin
    ls.ls_sent_watermarks <- Some (eosl, lwm);
    ignore
      (post_control t ls
         (Wire.Watermarks { tc = t.cfg.id; eosl = Lsn.zero; lwm }))
  end

let send_eosl t =
  broadcast_control t
    (Wire.Watermarks
       { tc = t.cfg.id; eosl = Wal.stable_lsn t.log; lwm = Lsn.zero })

let send_lwm t =
  t.acked_since_lwm <- 0;
  Hashtbl.iter (fun _ ls -> post_watermarks t ls) t.links

(* Send a request and record it as pending; the caller awaiting its
   reply keeps the pending returned. *)
let dispatch t link ~lsn ~op ~txn =
  let req =
    { Wire.tc = t.cfg.id; lsn; part = link.ls_link.part; op }
  in
  let tid = Trace.fresh_tid () in
  let frame = Wire.encode_request ~tid (Wire.Request req) in
  if tid <> 0 then
    Trace.record ~tid ~comp:"tc" ~ev:"dispatch"
      [
        ("lsn", Lsn.to_string lsn);
        ("part", string_of_int link.ls_link.part);
      ];
  let p =
    { p_req = req; p_frame = frame; p_link = link;
      p_clock = Session.Backoff.create (); p_txn = txn;
      p_tid = tid; p_sent = Metrics.start t.counters; p_fenced = false;
      p_result = None }
  in
  Hashtbl.replace t.pendings (Lsn.to_int lsn) p;
  Option.iter (fun txn -> txn.outstanding <- txn.outstanding + 1) txn;
  t.msgs <- t.msgs + 1;
  incr t.c_requests_sent;
  link.ls_link.send frame;
  p

(* An operation's completion: retire its pending, hand its result to
   whoever awaits it, and settle the transaction it belongs to — its
   outstanding count, and [failed] on a [Failed] result. *)
let settle t (p : pending) (result : Wire.result) =
  let lsn = p.p_req.Wire.lsn in
  Hashtbl.remove t.pendings (Lsn.to_int lsn);
  p.p_result <- Some result;
  (* Round trip measured from the *first* send: resends lengthen the
     observed rtt rather than resetting it, which is the latency the
     operation's caller actually saw. *)
  Metrics.stop t.counters "tc.data_rtt_ns" p.p_sent;
  if p.p_tid <> 0 then
    Trace.record ~tid:p.p_tid ~comp:"tc" ~ev:"ack" [ ("lsn", Lsn.to_string lsn) ];
  match p.p_txn with
  | Some txn -> (
    txn.outstanding <- txn.outstanding - 1;
    match result with
    | Wire.Failed msg when txn.failed = None -> txn.failed <- Some msg
    | _ -> ())
  | None -> ()

let count_acks t n =
  t.acked_since_lwm <- t.acked_since_lwm + n;
  if t.acked_since_lwm >= t.cfg.lwm_every then send_lwm t

(* Another TC's reply on this TC's link: every TC numbers its LSNs from
   1, so its LSNs may well match our in-flight requests — absorbing it
   would retire a pending with a result its operation never produced.
   Dropped loudly (counted); the real requester's resend path recovers
   its own ack. *)
let misattributed t tc =
  let other = not (Tc_id.equal tc t.cfg.id) in
  if other then Instrument.bump t.counters "tc.misattributed_acks";
  other

let handle_reply t (r : Wire.reply) =
  if not (misattributed t r.tc) then
    match Hashtbl.find_opt t.pendings (Lsn.to_int r.lsn) with
    | None -> () (* stale duplicate reply *)
    | Some p ->
      settle t p r.result;
      count_acks t 1

let rec same_lsns ops outcomes =
  match (ops, outcomes) with
  | [], [] -> true
  | (a, _) :: ops, (b, _) :: outcomes ->
    Lsn.equal a b && same_lsns ops outcomes
  | _ -> false

(* The reply to the redo batch in flight.  Each outcome goes through the
   per-operation completion: an operation whose reply died with the DC
   is still pending (fenced) at its LSN, bound to its transaction.  The
   batch was applied in LSN order, so every operation up to its last is
   now settled and the low-water cap moves there. *)
let handle_batch_reply t tc outcomes =
  if not (misattributed t tc) then
    match t.in_flight_batch with
    | Some b when same_lsns b.b_ops outcomes ->
      t.in_flight_batch <- None;
      let last = ref Lsn.zero in
      List.iter
        (fun (lsn, result) ->
          last := lsn;
          match Hashtbl.find_opt t.pendings (Lsn.to_int lsn) with
          | Some p -> settle t p result
          | None -> ())
        outcomes;
      if b.b_tid <> 0 then
        Trace.record ~tid:b.b_tid ~comp:"tc" ~ev:"ack"
          [ ("lsn", Lsn.to_string !last) ];
      t.lwm_cap <- Some !last;
      count_acks t (List.length outcomes)
    | _ -> () (* a stale duplicate, or the reply to an abandoned batch *)

(* A control acknowledgement matched against the link's session: stale
   epochs and duplicate acks are ignored; a first ack retires the
   pending and fills its ticket for [await_control_reply]. *)
let handle_control_reply t ls (m : Wire.control_reply_msg) =
  if not (Tc_id.equal m.Wire.r_tc t.cfg.id) then begin
    (* Acks are keyed (tc, epoch, seq), not bare (epoch, seq): every
       sender starts at (1, 1), so another TC's ack would otherwise be
       absorbed as ours and retire a pending whose real answer is still
       in flight (or worse, park a Checkpoint_done grant computed for a
       different TC's redo-scan point). *)
    Instrument.bump t.counters "tc.misattributed_acks";
    false
  end
  else if
    Session.Sender.ack ls.ls_ctl ~epoch:m.Wire.r_epoch ~seq:m.Wire.r_seq
      m.Wire.r_reply
  then begin
    decr t.c_control_unacked;
    true
  end
  else false

let pump t =
  let progressed = ref false in
  Hashtbl.iter
    (fun _ ls ->
      let replies, ctl_replies = ls.ls_link.drain () in
      List.iter
        (fun frame ->
          match Wire.Verified.decode_reply frame with
          | Wire.Reply r ->
            progressed := true;
            handle_reply t r
          | Wire.Redo_batch_reply { tc; outcomes } ->
            progressed := true;
            handle_batch_reply t tc outcomes
          | exception Invalid_argument _ ->
            Instrument.bump t.counters "tc.bad_frames")
        replies;
      List.iter
        (fun frame ->
          match Wire.Verified.decode_control_reply frame with
          | m -> if handle_control_reply t ls m then progressed := true
          | exception Invalid_argument _ ->
            Instrument.bump t.counters "tc.bad_frames")
        ctl_replies)
    t.links;
  !progressed

(* A reply that never arrives is indistinguishable from a slow one; the
   unique-request-id + idempotence contract makes resending always safe,
   so the TC resends with bounded exponential backoff.  A request that
   exhausts its retry budget is a harness bug (the DC is simulated in
   the same process), so it fails loudly rather than hanging in
   [await]. *)
let resend_stale t =
  let resend_if_due clock ~tid ~lsn link frame =
    match Session.Backoff.tick clock with
    | `Wait -> ()
    | `Expired ->
      Instrument.bump t.counters "tc.request_timeouts";
      failwith
        (Printf.sprintf "Tc: request %d timed out after %d resends"
           (Lsn.to_int lsn) (Session.Backoff.retries clock))
    | `Resend ->
      t.resend_count <- t.resend_count + 1;
      Instrument.bump t.counters "tc.resends";
      if tid <> 0 && Trace.enabled () then
        Trace.record ~tid ~comp:"tc" ~ev:"resend"
          [
            ("lsn", Lsn.to_string lsn);
            ("retry", string_of_int (Session.Backoff.retries clock));
          ];
      link.ls_link.send frame
  in
  Hashtbl.iter
    (fun _ p ->
      if not p.p_fenced then
        resend_if_due p.p_clock ~tid:p.p_tid ~lsn:p.p_req.Wire.lsn p.p_link
          p.p_frame)
    t.pendings;
  (match t.in_flight_batch with
  | Some ({ b_ops = (lsn, _) :: _; _ } as b) ->
    resend_if_due b.b_clock ~tid:b.b_tid ~lsn b.b_link b.b_frame
  | _ -> ());
  (* Unacked control messages age and resend under the same backoff
     discipline: the DC's control-idempotence table absorbs the
     duplicates this creates. *)
  Hashtbl.iter
    (fun _ ls ->
      Session.Sender.tick ls.ls_ctl
        ~on_resend:(fun ~seq:_ frame ->
          Instrument.bump t.counters "tc.control_resends";
          ls.ls_link.send_control frame)
        ~on_timeout:(fun ~seq ~retries ->
          Instrument.bump t.counters "tc.control_timeouts";
          failwith
            (Printf.sprintf "Tc: control %d to %s timed out after %d resends"
               seq ls.ls_link.dc_name retries)))
    t.links

let await t pred =
  let stalls = ref 0 in
  while not (pred ()) do
    if pump t then stalls := 0
    else begin
      incr stalls;
      resend_stale t;
      if !stalls > Session.max_stalls then
        failwith "Tc.await: no progress (lost message without resend?)"
    end
  done

let await_reply t p =
  await t (fun () -> Option.is_some p.p_result);
  Option.get p.p_result

(* Collect the reply of a control message posted with [post_control]:
   the grant/ack arrives through the pump loop like any other frame. *)
let await_control_reply t tk =
  await t (fun () -> Option.is_some (Session.Sender.reply tk));
  Option.get (Session.Sender.reply tk)

(* A control barrier: post to every link, then pump until every DC has
   acknowledged.  Posting everywhere before awaiting keeps the round
   trips concurrent.  Used where the restart protocol needs a
   happens-before edge (e.g. Restart_begin must be applied before redo
   traffic arrives). *)
let broadcast_sync t ctl =
  let waits =
    Hashtbl.fold (fun _ ls acc -> post_control t ls ctl :: acc) t.links []
  in
  List.iter (fun tk -> ignore (await_control_reply t tk)) waits

(* The TC's obligation: never two conflicting operations in flight.
   Fenced pendings don't count: their messages died with the DC, and the
   redo scan is about to re-dispatch them in LSN order.  With nothing
   in flight there is nothing to wait for. *)
let await_conflicts t op =
  if Hashtbl.length t.pendings > 0 then
    await t (fun () ->
        not
          (Hashtbl.fold
             (fun _ p acc ->
               acc || ((not p.p_fenced) && Op.conflicts p.p_req.Wire.op op))
             t.pendings false))

(* A synchronous unlogged request (reads, probes, scans): unique request
   id from the log's LSN sequence, but no record — reads are never
   redone. *)
let request_unlogged t link op =
  await_conflicts t op;
  let lsn = Wal.reserve t.log in
  await_reply t (dispatch t link ~lsn ~op ~txn:None)

(* ------------------------------------------------------------------ *)
(* Locking                                                             *)

let slot_of_key n key =
  let b0 = if String.length key > 0 then Char.code key.[0] else 0 in
  let b1 = if String.length key > 1 then Char.code key.[1] else 0 in
  ((b0 * 256) + b1) * n / 65536

(* Smallest 16-bit prefix whose slot is [s]. *)
let slot_start_value n s = ((s * 65536) + n - 1) / n

let slot_hi n s =
  if s >= n - 1 then None
  else
    let v = slot_start_value n (s + 1) in
    Some (String.init 2 (fun i -> Char.chr (if i = 0 then v / 256 else v mod 256)))

let is_occ t = t.cfg.cc_protocol = Optimistic

let rsrc_for t table key =
  match t.cfg.cc_protocol with
  | Key_locks | Optimistic -> Lock_mgr.Record { table; key }
  | Range_locks n -> Lock_mgr.Range { table; slot = slot_of_key n key }
  | Table_locks -> Lock_mgr.Table table

let lock t txn rsrc mode =
  match Lock_mgr.acquire t.locks ~owner:txn.t_xid rsrc mode with
  | `Granted -> `Granted
  | `Blocked ->
    incr t.c_lock_waits;
    `Blocked

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let begin_txn t =
  let x = t.next_xid in
  t.next_xid <- x + 1;
  let txn =
    {
      t_xid = x;
      state = Active;
      first_lsn = Lsn.zero;
      undo_stack = [];
      vwrites = [];
      failed = None;
      outstanding = 0;
      read_set = [];
      scan_set = [];
      write_buf = [];
      occ_applying = false;
    }
  in
  txn.first_lsn <- Wal.append t.log (Log_record.Begin { xid = x });
  Hashtbl.replace t.txns x txn;
  txn

let release_locks t txn =
  let granted = Lock_mgr.release_all t.locks ~owner:txn.t_xid in
  List.iter (fun owner -> Queue.add owner t.wakeups) granted

let wakeups t =
  let out = ref [] in
  Queue.iter (fun x -> out := x :: !out) t.wakeups;
  Queue.clear t.wakeups;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)

let value_of_result = function
  | Wire.Value v -> `Ok v
  | Wire.Failed m -> `Fail m
  | _ -> `Fail "unexpected result shape"

(* The latest buffered write for a key, if any (OCC read-your-writes). *)
let buffered_value txn ~table ~key =
  List.find_map
    (fun op ->
      match op with
      | Op.Insert { table = t'; key = k'; value }
      | Op.Update { table = t'; key = k'; value }
        when String.equal t' table && String.equal k' key ->
        Some (Some value)
      | Op.Delete { table = t'; key = k' }
        when String.equal t' table && String.equal k' key ->
        Some None
      | _ -> None)
    txn.write_buf (* newest first *)

let read t txn ~table ~key =
  if txn.state <> Active then `Fail "transaction not active"
  else if is_occ t then (
    match buffered_value txn ~table ~key with
    | Some v -> `Ok v
    | None ->
      let op = Op.Read { table; key; mode = Op.Own } in
      let link = route_op t op in
      match value_of_result (request_unlogged t link op) with
      | `Ok v ->
        txn.read_set <- (table, key, v) :: txn.read_set;
        `Ok v
      | o -> o)
  else
    let link = route_op t (Op.Read { table; key; mode = Op.Own }) in
    match lock t txn (rsrc_for t table key) Lock_mgr.S with
    | `Blocked -> `Blocked
    | `Granted ->
      let op = Op.Read { table; key; mode = Op.Own } in
      value_of_result (request_unlogged t link op)

(* Lock-free sharing reads (Section 6.2): no transaction, no locks. *)
let sharing_read t ~table ~key mode =
  let op = Op.Read { table; key; mode } in
  let link = route_op t op in
  match request_unlogged t link op with
  | Wire.Value v -> v
  | _ -> None

let read_committed t ~table ~key = sharing_read t ~table ~key Op.Committed

let read_dirty t ~table ~key = sharing_read t ~table ~key Op.Dirty

let sharing_scan t ~table ~from_key ~limit mode =
  let op = Op.Scan { table; from_key; limit; mode } in
  let link = route_op t op in
  match request_unlogged t link op with
  | Wire.Pairs ps -> ps
  | _ -> []

let scan_committed t ~table ~from_key ~limit =
  sharing_scan t ~table ~from_key ~limit Op.Committed

let scan_dirty t ~table ~from_key ~limit =
  sharing_scan t ~table ~from_key ~limit Op.Dirty

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)

let inverse op prior =
  match (op, prior) with
  | Op.Insert { table; key; _ }, None -> Some (Op.Delete { table; key })
  | Op.Update { table; key; _ }, Some p ->
    Some (Op.Update { table; key; value = p })
  | Op.Delete { table; key }, Some p ->
    Some (Op.Insert { table; key; value = p })
  | _ -> None

(* Pre-read under the already-held X lock: the undo value for tables
   without before-versions must be known before the operation record is
   logged, because a TC crash may lose any information learned later. *)
let pre_read t link ~table ~key =
  let op = Op.Read { table; key; mode = Op.Own } in
  match request_unlogged t link op with
  | Wire.Value v -> v
  | _ -> None

let write t txn op =
  if txn.state <> Active then `Fail "transaction not active"
  else if is_occ t && not txn.occ_applying then begin
    txn.write_buf <- op :: txn.write_buf;
    `Ok ()
  end
  else
    let table = Op.table op in
    let key =
      match op with
      | Op.Insert { key; _ } | Op.Update { key; _ } | Op.Delete { key; _ } ->
        key
      | _ -> invalid_arg "Tc.write: not a point write"
    in
    let link = route_op t op in
    let versioned = table_versioned t table in
    match lock t txn (rsrc_for t table key) Lock_mgr.X with
    | `Blocked -> `Blocked
    | `Granted ->
      await_conflicts t op;
      if versioned then begin
        (* Before-versions make undo state-based: no pre-read, and the
           request can be pipelined. *)
        let lsn =
          Wal.append t.log (Log_record.Op_log { xid = txn.t_xid; op; undo = None })
        in
        txn.vwrites <- (table, key) :: txn.vwrites;
        let p = dispatch t link ~lsn ~op ~txn:(Some txn) in
        if t.cfg.pipeline_writes then `Ok ()
        else
          match await_reply t p with
          | Wire.Done -> `Ok ()
          | Wire.Failed m ->
            txn.failed <- Some m;
            `Fail m
          | _ -> `Fail "unexpected result shape"
      end
      else begin
        let prior = pre_read t link ~table ~key in
        match (op, prior) with
        | Op.Insert _, Some _ -> `Fail "duplicate key"
        | Op.Update _, None -> `Fail "no such key"
        | Op.Delete _, None -> `Ok () (* deleting nothing is a no-op *)
        | _ ->
          let undo = inverse op prior in
          let lsn =
            Wal.append t.log (Log_record.Op_log { xid = txn.t_xid; op; undo })
          in
          (match undo with
          | Some inv -> txn.undo_stack <- inv :: txn.undo_stack
          | None -> ());
          match await_reply t (dispatch t link ~lsn ~op ~txn:(Some txn)) with
          | Wire.Done -> `Ok ()
          | Wire.Failed m -> `Fail m
          | _ -> `Fail "unexpected result shape"
      end

let insert t txn ~table ~key ~value =
  write t txn (Op.Insert { table; key; value })

let update t txn ~table ~key ~value =
  write t txn (Op.Update { table; key; value })

let delete t txn ~table ~key = write t txn (Op.Delete { table; key })

(* ------------------------------------------------------------------ *)
(* Scans (Section 3.1: the two range protocols)                        *)

let probe t link ~table ~from_key ~limit =
  match request_unlogged t link (Op.Probe { table; from_key; limit }) with
  | Wire.Next_keys ks -> ks
  | _ -> []

let scan_rows t link ~table ~from_key ~limit =
  match
    request_unlogged t link (Op.Scan { table; from_key; limit; mode = Op.Own })
  with
  | Wire.Pairs ps -> ps
  | _ -> []

let fetch t link ~table ~from_key ~limit =
  match request_unlogged t link (Op.Fetch { table; from_key; limit }) with
  | Wire.Window { rows; hidden } -> (rows, hidden)
  | _ -> ([], [])

(* The keys of a fetched window, in key order: its rows' and its hidden
   keys', each list already in key order. *)
let rec window_keys rows hidden =
  match (rows, hidden) with
  | [], hs -> hs
  | rs, [] -> List.map fst rs
  | (r, _) :: rs, h :: hs ->
    if String.compare r h < 0 then r :: window_keys rs hidden
    else h :: window_keys rows hs

let next_key k = k ^ "\x00"

(* Fetch-ahead, two round trips a batch: a speculative probe names the
   window's keys, the TC S-locks them, then one fetch reads the window
   — its visible rows and the keys of the rows it cannot see.  The fetch
   runs after the locks are held, so when the window's keys are the
   locked keys every row it returns is locked and the rows are taken.
   When they differ, a key entered or left the window since the probe:
   the window's keys become the next speculation, locked and read again
   with no new probe — a mismatch turns the read back into a probe.
   Every key counts toward the fetch's limit, so the window never runs
   past the locked keys. *)
let scan_fetch_ahead t txn link ~table ~from_key ~limit =
  let results = ref [] in
  let taken = ref 0 in
  let rec lock_keys = function
    | [] -> `Granted
    | k :: rest -> (
      match lock t txn (Lock_mgr.Record { table; key = k }) Lock_mgr.S with
      | `Granted -> lock_keys rest
      | `Blocked -> `Blocked)
  in
  let rec loop cursor =
    if !taken >= limit then `Ok (List.rev !results)
    else
      let batch = Stdlib.min (limit - !taken) 16 in
      speculate cursor batch (probe t link ~table ~from_key:cursor ~limit:batch)
  and speculate cursor batch keys =
    if keys = [] then `Ok (List.rev !results)
    else
      match lock_keys keys with
      | `Blocked -> `Blocked
      | `Granted ->
        let rows, hidden = fetch t link ~table ~from_key:cursor ~limit:batch in
        let window = window_keys rows hidden in
        if not (List.equal String.equal window keys) then
          speculate cursor batch window (* speculate again *)
        else begin
          results := List.rev_append rows !results;
          taken := !taken + List.length rows;
          if List.length keys < batch then `Ok (List.rev !results)
          else loop (next_key (List.nth keys (List.length keys - 1)))
        end
  in
  loop from_key

(* Range-partition locks: lock the static slot covering the cursor, read
   only keys inside the slot, step to the next slot boundary. *)
let scan_range_locks t txn link ~table ~from_key ~limit n =
  let results = ref [] in
  let taken = ref 0 in
  let rec loop cursor =
    if !taken >= limit then `Ok (List.rev !results)
    else
      let s = slot_of_key n cursor in
      match lock t txn (Lock_mgr.Range { table; slot = s }) Lock_mgr.S with
      | `Blocked -> `Blocked
      | `Granted ->
        let hi = slot_hi n s in
        let pairs =
          scan_rows t link ~table ~from_key:cursor ~limit:(limit - !taken)
        in
        let in_slot, beyond =
          List.partition
            (fun (k, _) ->
              match hi with None -> true | Some h -> String.compare k h < 0)
            pairs
        in
        List.iter
          (fun (k, v) ->
            if !taken < limit then begin
              results := (k, v) :: !results;
              incr taken
            end)
          in_slot;
        let exhausted =
          beyond = [] && List.length pairs < limit - !taken + List.length in_slot
        in
        if exhausted then `Ok (List.rev !results)
        else (
          match hi with
          | None -> `Ok (List.rev !results)
          | Some h -> loop h)
  in
  loop from_key

let scan t txn ~table ~from_key ~limit =
  if txn.state <> Active then `Fail "transaction not active"
  else
    let link =
      route_op t (Op.Scan { table; from_key; limit; mode = Op.Own })
    in
    match t.cfg.cc_protocol with
    | Optimistic ->
      (* lock-free read; the whole result is re-validated at commit, so
         phantoms in the range abort the transaction.  Buffered own
         writes are not merged into scan results (classic OCC
         simplification, documented). *)
      let rows = scan_rows t link ~table ~from_key ~limit in
      txn.scan_set <- (table, from_key, limit, rows) :: txn.scan_set;
      `Ok rows
    | Key_locks -> scan_fetch_ahead t txn link ~table ~from_key ~limit
    | Range_locks n -> scan_range_locks t txn link ~table ~from_key ~limit n
    | Table_locks -> (
      (* the coarsest protocol of Section 3.1's list: one lock covers
         the whole scan, one request fetches it *)
      match lock t txn (Lock_mgr.Table table) Lock_mgr.S with
      | `Blocked -> `Blocked
      | `Granted -> `Ok (scan_rows t link ~table ~from_key ~limit))

(* ------------------------------------------------------------------ *)
(* Checkpoint (contract termination)                                   *)

let active_xids t =
  Hashtbl.fold
    (fun x txn acc -> if txn.state = Active then x :: acc else acc)
    t.txns []
  |> List.sort Int.compare

let checkpoint t =
  Wal.force t.log;
  send_eosl t;
  send_lwm t;
  let target = Lsn.min (current_lwm t) (Wal.stable_lsn t.log) in
  if Lsn.(target <= t.rssp) then true (* nothing to advance *)
  else begin
    (* Ask every DC concurrently; the grants arrive through the pump
       loop as ordinary control replies. *)
    let waits =
      Hashtbl.fold
        (fun _ ls acc ->
          post_control t ls
            (Wire.Checkpoint { tc = t.cfg.id; new_rssp = target })
          :: acc)
        t.links []
    in
    let granted =
      List.fold_left
        (fun acc tk ->
          match await_control_reply t tk with
          | Wire.Checkpoint_done { granted } -> acc && granted
          | Wire.Ack -> false)
        true waits
    in
    if granted then begin
      t.rssp <- target;
      let active = active_xids t in
      ignore (Wal.append t.log (Log_record.Checkpoint { rssp = target; active }));
      Wal.force t.log;
      send_eosl t;
      let oldest_active =
        Hashtbl.fold
          (fun _ txn acc ->
            if txn.state = Active then Lsn.min acc txn.first_lsn else acc)
          t.txns target
      in
      let cut = Lsn.min target oldest_active in
      (* A lagging standby's catch-up reads the stable log from its
         applied cursor; truncation must never outrun the slowest
         replica or rejoin would need a full rebuild. *)
      let cut =
        match t.truncate_floor with
        | Some floor -> (
          match floor () with
          | Some fl -> Lsn.min cut fl
          | None -> cut)
        | None -> cut
      in
      Wal.truncate t.log cut;
      Instrument.bump t.counters "tc.checkpoints";
      true
    end
    else false
  end

(* ------------------------------------------------------------------ *)
(* Commit / abort                                                      *)

(* Group a transaction's versioned writes by (table, DC): version
   housekeeping operations must each target a single DC.  The walk goes
   over the writes newest first; groups leave in the order it meets
   them, each listing its keys once.  A key's DC is fixed by its table
   and key, so a write seen before is skipped through one hash set. *)
let versioned_write_sets t txn =
  let groups = ref [] (* newest first *) in
  let seen = Hashtbl.create (List.length txn.vwrites) in
  List.iter
    (fun ((table, key) as write) ->
      if not (Hashtbl.mem seen write) then begin
        Hashtbl.replace seen write ();
        let dc = dc_of_key t table key in
        let keys =
          match
            List.find_opt
              (fun (tb, d, _) -> String.equal tb table && String.equal d dc)
              !groups
          with
          | Some (_, _, keys) -> keys
          | None ->
            let keys = ref [] in
            groups := (table, dc, keys) :: !groups;
            keys
        in
        keys := key :: !keys
      end)
    txn.vwrites;
  List.rev_map (fun (table, _, keys) -> (table, !keys)) !groups

let send_compensation t txn op =
  let link = route_op t op in
  await_conflicts t op;
  let lsn =
    Wal.append t.log (Log_record.Compensation { xid = txn.t_xid; op })
  in
  ignore (await_reply t (dispatch t link ~lsn ~op ~txn:(Some txn)))

let rollback_work t txn =
  (* Inverse operations, newest first, for unversioned tables; a single
     Abort_versions per versioned table.  Both are idempotent: inverse
     ops write absolute states, version aborts are state tests. *)
  List.iter (fun inv -> send_compensation t txn inv) txn.undo_stack;
  List.iter
    (fun (table, keys) ->
      send_compensation t txn (Op.Abort_versions { table; keys }))
    (versioned_write_sets t txn)

let abort t txn ~reason =
  if txn.state = Active then begin
    ignore reason;
    Lock_mgr.cancel_waits t.locks ~owner:txn.t_xid;
    ignore (Wal.append t.log (Log_record.Abort { xid = txn.t_xid }));
    await t (fun () -> txn.outstanding = 0);
    rollback_work t txn;
    ignore (Wal.append t.log (Log_record.Finished { xid = txn.t_xid }));
    release_locks t txn;
    txn.state <- Aborted;
    Hashtbl.remove t.txns txn.t_xid;
    Instrument.bump t.counters "tc.aborts"
  end

(* Backward validation (the "optimistic methods" the paper allows the TC
   to choose, Section 4.1.1): every observation is re-checked against
   current state; commit applies the buffered writes only if nothing
   moved.  The validate+apply sequence runs without yielding to other
   transactions of this TC (the single-threaded simulator's equivalent
   of a validation critical section). *)
let occ_validate t txn =
  List.for_all
    (fun (table, key, seen) ->
      let op = Op.Read { table; key; mode = Op.Own } in
      let link = route_op t op in
      match request_unlogged t link op with
      | Wire.Value now -> now = seen
      | _ -> false)
    txn.read_set
  && List.for_all
       (fun (table, from_key, limit, seen) ->
         let op = Op.Scan { table; from_key; limit; mode = Op.Own } in
         let link = route_op t op in
         match request_unlogged t link op with
         | Wire.Pairs now -> now = seen
         | _ -> false)
       txn.scan_set

let rec commit t txn =
  if txn.state <> Active then `Fail "transaction not active"
  else if is_occ t && (txn.write_buf <> [] || txn.read_set <> [] || txn.scan_set <> [])
  then begin
    if not (occ_validate t txn) then begin
      abort t txn ~reason:"optimistic validation failed";
      Instrument.bump t.counters "tc.occ_validation_failures";
      `Fail "optimistic validation failed"
    end
    else begin
      let writes = List.rev txn.write_buf in
      txn.write_buf <- [];
      txn.read_set <- [];
      txn.scan_set <- [];
      txn.occ_applying <- true;
      let rec apply = function
        | [] -> true
        | op :: rest -> (
          match write t txn op with
          | `Ok () -> apply rest
          | `Blocked | `Fail _ -> false)
      in
      let applied = apply writes in
      txn.occ_applying <- false;
      if applied then commit t txn
      else begin
        abort t txn ~reason:"optimistic apply failed";
        `Fail "optimistic apply failed"
      end
    end
  end
  else begin
    await t (fun () -> txn.outstanding = 0);
    match txn.failed with
    | Some msg ->
      abort t txn ~reason:msg;
      `Fail msg
    | None ->
      ignore (Wal.append t.log (Log_record.Commit { xid = txn.t_xid }));
      (* Version cleanup is logged *before* the single commit force, so
         its operations are covered by the stable log: a TC crash then
         never makes their page effects "lost".  They are only redone
         when the Commit record is also stable, so a loser's
         before-versions are never stripped. *)
      let cleanups =
        List.map
          (fun (table, keys) ->
            let op = Op.Commit_versions { table; keys } in
            let lsn =
              Wal.append t.log
                (Log_record.Compensation { xid = txn.t_xid; op })
            in
            (lsn, op))
          (versioned_write_sets t txn)
      in
      (* logged-not-sent: the force, the durability gate and the dispatch
         loop below all pump while cleanups are still only in the log,
         and a watermark sent then must not cover them *)
      t.undispatched <- cleanups;
      let rec send_cleanups () =
        match t.undispatched with
        | [] -> ()
        | (lsn, op) :: rest ->
          let link = route_op t op in
          await_conflicts t op;
          t.undispatched <- rest;
          ignore (await_reply t (dispatch t link ~lsn ~op ~txn:(Some txn)));
          send_cleanups ()
      in
      (try
         (* Group commit: batch several commits under one force.  Commits
            in between are not yet durable — the classic latency/IO
            trade; default group size 1 forces every commit. *)
         t.unforced_commits <- t.unforced_commits + 1;
         if t.unforced_commits >= t.group_commit then begin
           t.unforced_commits <- 0;
           Fault.hit p_commit_before_force;
           Wal.force t.log;
           Fault.hit p_commit_after_force;
           send_eosl t;
           (* Replicated durability: the gate ships the freshly-stable
              suffix and blocks until the policy's quorum of standby acks
              covers it, so the `Ok below means what the deployment's
              durability policy promises. *)
           match t.durability_gate with
           | Some gate -> gate (Wal.stable_lsn t.log)
           | None -> ()
         end;
         send_cleanups ()
       with e ->
         (* A crash, or a promotion raised out of the durability gate,
            unwound the commit.  Drop the never-sent husks from the floor
            — their cleanup is re-delivered anyway (a commit retry logs
            fresh records for the same keys, and recovery redo resends
            these under the lwm cap) — or the low-water mark would be
            wedged below them forever. *)
         t.undispatched <- [];
         raise e);
      ignore (Wal.append t.log (Log_record.Finished { xid = txn.t_xid }));
      release_locks t txn;
      txn.state <- Committed;
      Hashtbl.remove t.txns txn.t_xid;
      incr t.c_commits;
      (* Only this success path counts, so an optimistic commit, which
         recurses into it, counts once. *)
      if t.cfg.checkpoint_every > 0 then begin
        t.commits_since_ckpt <- t.commits_since_ckpt + 1;
        if t.commits_since_ckpt >= t.cfg.checkpoint_every then begin
          t.commits_since_ckpt <- 0;
          (* best effort: an ungranted checkpoint just retries later *)
          ignore (checkpoint t)
        end
      end;
      `Ok ()
  end

let quiesce t =
  await t (fun () -> Hashtbl.length t.pendings = 0);
  send_lwm t;
  (* Control messages are asynchronous now; a quiesced TC must also have
     every watermark it pushed acknowledged (and therefore applied), or
     a checkpoint right after quiesce could see stale DC state. *)
  await t (fun () -> control_unacked t = 0)

let resolve_deadlock t =
  match Lock_mgr.find_deadlock t.locks with
  | None -> None
  | Some victim -> (
    match Hashtbl.find_opt t.txns victim with
    | Some txn when txn.state = Active ->
      abort t txn ~reason:"deadlock victim";
      Some victim
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Failures                                                            *)

let crash t =
  Wal.crash t.log;
  (* Every in-flight transaction dies with the TC.  Kill the handles
     clients still hold, not just the table: a stale handle that kept
     reporting [Active] could be committed after recovery, appending a
     fresh Commit record for an xid whose operations recovery already
     rolled back — an empty commit that reports [`Ok ()] while the
     transaction's effects are gone. *)
  Hashtbl.iter
    (fun _ txn -> if txn.state = Active then txn.state <- Aborted)
    t.txns;
  Hashtbl.reset t.txns;
  Hashtbl.reset t.pendings;
  t.in_flight_batch <- None;
  Queue.clear t.wakeups;
  t.undispatched <- [];
  t.locks <- Lock_mgr.create ();
  t.acked_since_lwm <- 0;
  (* Unacked control messages are volatile too (their frames and any
     replies in flight died with the process); the epoch counters
     survive so recovery can open strictly newer sessions. *)
  Hashtbl.iter (fun _ ls -> clear_ctl t ls) t.links

type analysis = {
  mutable a_committed : bool;
  mutable a_finished : bool;
  mutable a_ops : (Lsn.t * Op.t * Op.t option) list; (* newest first *)
}

(* The most logged operations one redo frame carries.  On dc_restart's
   4357-operation redo, a restart at 8 operations per frame takes ~8%
   longer than at 64, and from 16 to 512 the time is flat; the cap
   keeps a frame, and the work one lost frame repeats, small. *)
let redo_batch_cap = 64

(* Send one redo batch and await its reply ([handle_batch_reply]
   settles it). *)
let send_batch t ls ops n =
  let tid = Trace.fresh_tid () in
  let frame =
    Wire.encode_request ~tid
      (Wire.Redo_batch { tc = t.cfg.id; part = ls.ls_link.part; ops })
  in
  if tid <> 0 then
    Trace.record ~tid ~comp:"tc" ~ev:"dispatch"
      [
        ("lsn", Lsn.to_string (fst (List.hd ops)));
        ("ops", string_of_int n);
        ("part", string_of_int ls.ls_link.part);
      ];
  t.in_flight_batch <-
    Some
      {
        b_ops = ops;
        b_frame = frame;
        b_link = ls;
        b_clock = Session.Backoff.create ();
        b_tid = tid;
      };
  t.msgs <- t.msgs + 1;
  t.c_requests_sent := !(t.c_requests_sent) + n;
  ls.ls_link.send frame;
  await t (fun () -> Option.is_none t.in_flight_batch)

(* Redo: repeat history by resending logged operations, in LSN order,
   as batches.  [fill] feeds each operation with the link it routes to;
   a batch goes out when it reaches [redo_batch_cap], when the next
   operation routes to another link, or when [fill] returns.  Each
   batch is acknowledged before the next one fills, so the stream never
   holds more than one batch and [after_batch] runs once per
   acknowledged batch. *)
let redo ?(after_batch = ignore) t fill =
  (* A batch left by an interrupted redo went to a DC that has since
     restarted; this scan re-drives its operations. *)
  t.in_flight_batch <- None;
  let link = ref None and ops = ref [] and n = ref 0 in
  let flush () =
    match !link with
    | Some ls when !n > 0 ->
      let batch = List.rev !ops in
      ops := [];
      let size = !n in
      n := 0;
      send_batch t ls batch size;
      after_batch ()
    | _ -> ()
  in
  fill (fun ls lsn op ->
      (match !link with Some cur when cur != ls -> flush () | _ -> ());
      await_conflicts t op;
      link := Some ls;
      ops := (lsn, op) :: !ops;
      incr n;
      if !n >= redo_batch_cap then flush ());
  flush ()

let recover t =
  let stable = Wal.stable_lsn t.log in
  (* Analysis. *)
  let infos : (int, analysis) Hashtbl.t = Hashtbl.create 64 in
  let info x =
    match Hashtbl.find_opt infos x with
    | Some i -> i
    | None ->
      let i = { a_committed = false; a_finished = false; a_ops = [] } in
      Hashtbl.add infos x i;
      i
  in
  let rssp = ref t.rssp in
  Wal.iter_from t.log Lsn.zero (fun lsn record ->
      match record with
      | Log_record.Begin _ -> ()
      | Log_record.Op_log { xid; op; undo } ->
        let i = info xid in
        i.a_ops <- (lsn, op, undo) :: i.a_ops
      | Log_record.Compensation _ -> ()
      | Log_record.Commit { xid } -> (info xid).a_committed <- true
      | Log_record.Abort _ -> ()
      | Log_record.Finished { xid } -> (info xid).a_finished <- true
      | Log_record.Checkpoint { rssp = r; _ } -> rssp := Lsn.max !rssp r);
  t.rssp <- !rssp;
  Hashtbl.iter (fun x _ -> if x >= t.next_xid then t.next_xid <- x + 1) infos;
  (* Open a fresh control epoch on every link: watermarks or fences
     from before the crash still in flight must not touch the state the
     DCs are about to reset. *)
  Hashtbl.iter (fun _ ls -> new_epoch t ls) t.links;
  (* Cap the low-water mark at the redo cursor before the restart
     barrier: awaiting the barrier acks pumps the transports, and a
     watermark pushed from that pump would claim LSNs whose effects the
     DCs are being told to reset. *)
  t.lwm_cap <- Some (Lsn.prev t.rssp);
  (* Tell every DC to forget effects beyond the stable log (it resets
     exactly the pages whose abstract LSNs reach past it).  This is a
     barrier: redo traffic must not arrive before the reset happens. *)
  broadcast_sync t (Wire.Restart_begin { tc = t.cfg.id; stable_lsn = stable });
  (* Redo: repeat history by resending logged operations in order.  The
     low-water mark is capped at the redo cursor: history not yet resent
     must count as outstanding. *)
  redo t
    ~after_batch:(fun () -> Fault.hit p_recover_mid)
    (fun resend ->
      Wal.iter_retained t.log t.rssp
        (Log_record.redone (fun lsn op -> resend (route_op t op) lsn op)));
  t.lwm_cap <- None;
  (* Undo losers; finish interrupted post-commit version cleanup. *)
  Hashtbl.iter
    (fun x i ->
      if not i.a_finished then begin
        let fake_txn =
          {
            t_xid = x;
            state = Active;
            first_lsn = Lsn.zero;
            undo_stack = [];
            vwrites = [];
            failed = None;
            outstanding = 0;
            read_set = [];
            scan_set = [];
            write_buf = [];
            occ_applying = false;
          }
        in
        let versioned_of table = table_versioned t table in
        let rev_undo, vwrites =
          List.fold_left
            (fun (undo, vwrites) (_, op, inv) ->
              match inv with
              | Some inv -> (inv :: undo, vwrites)
              | None -> (
                match op with
                | Op.Insert { table; key; _ }
                | Op.Update { table; key; _ }
                | Op.Delete { table; key }
                  when versioned_of table ->
                  (undo, (table, key) :: vwrites)
                | _ -> (undo, vwrites)))
            ([], []) i.a_ops
        in
        (* a_ops is newest-first, and so is the undo stack. *)
        fake_txn.undo_stack <- List.rev rev_undo;
        fake_txn.vwrites <- vwrites;
        if i.a_committed then
          List.iter
            (fun (table, keys) ->
              send_compensation t fake_txn (Op.Commit_versions { table; keys }))
            (versioned_write_sets t fake_txn)
        else begin
          ignore (Wal.append t.log (Log_record.Abort { xid = x }));
          rollback_work t fake_txn
        end;
        ignore (Wal.append t.log (Log_record.Finished { xid = x }))
      end)
    infos;
  Wal.force t.log;
  send_eosl t;
  send_lwm t;
  (* Another barrier: the fence opened by Restart_begin must be closed
     (page-delete system transactions re-enabled) before this function
     returns — callers may crash a DC next, and an open fence would
     leak into its rebuilt state. *)
  broadcast_sync t (Wire.Redo_fence_end { tc = t.cfg.id });
  Instrument.bump t.counters "tc.recoveries"

let on_dc_restart ?(from = Lsn.zero) t ~dc =
  (* The DC rebuilt itself from stable state; every logged operation from
     the redo scan start point may be missing there.  Resend them (the
     DC's idempotence test absorbs the ones it still has).

     [from] narrows the scan for failover to a promoted standby: the
     standby applied the shipped stream through [from - 1], so only the
     gap between its applied LSN and end-of-stable-log needs re-driving.
     The fence/cap ordering below is identical either way — this is
     exactly the watermark race of the cold-restart path, and the
     promoted replica must not reintroduce it. *)
  let ls =
    match Hashtbl.find_opt t.links dc with
    | Some ls -> ls
    | None -> invalid_arg ("Tc.on_dc_restart: unknown DC " ^ dc)
  in
  (* An explicit failover cursor may sit BELOW the redo-scan start
     point: a detached standby's applied LSN is frozen while the
     checkpoint keeps advancing.  Clamping it up to the rssp here was
     the data-loss line — the gap [from, rssp) was never re-driven, and
     the promoted replica served a hole where acked commits used to be.
     Starting below the rssp is legal exactly when the log still
     retains that suffix (the retention lease a detached replica holds
     against truncation is what keeps it there); when it does not, the
     caller must refuse the promotion (Deploy.fail_over's eligibility
     gate) rather than promote a candidate whose history is gone. *)
  let retained = Wal.retained_from t.log in
  (* When the cursor sits below even the retained head, the log alone
     cannot re-drive the gap — but a layer store that absorbed the
     truncated prefix can.  Ask the hook for the missing range; with a
     feed in hand the scan starts at the retained head and the layer
     replays [from, retained) first, inside the same fence. *)
  let layer_feed =
    if Lsn.(Lsn.zero < from) && Lsn.(from < retained) then
      match t.history_replay with
      | Some h -> h ~from ~upto:(Lsn.prev retained)
      | None -> None
    else None
  in
  let start =
    if
      Lsn.(Lsn.zero < from)
      && Lsn.(from < t.rssp)
      && Lsn.(retained <= from)
    then begin
      Instrument.bump t.counters "tc.redo_below_rssp";
      from
    end
    else if Option.is_some layer_feed then begin
      Instrument.bump t.counters "tc.redo_from_layers";
      retained
    end
    else Lsn.max t.rssp from
  in
  (* Control messages from before the crash (and their replies) are
     gone; open a fresh session so stragglers in flight cannot reach
     the rebuilt DC's state. *)
  new_epoch t ls;
  (* Replies to the DC's pre-crash requests died with it.  Letting the
     backoff path resend those pendings would race the redo cursor: a
     later operation could reach the rebuilt DC before an earlier one on
     the same key, be marked applied against near-empty state, and make
     the in-order redo of that LSN absorb as a duplicate — un-doing
     history.  Instead, fence them in place (suppressing resend and the
     conflict test) and let the scan re-dispatch each at its place in
     LSN order, keeping its transaction binding.  Fencing rather than
     removing keeps this re-runnable: if the plan kills the DC again
     mid-scan, the next restart finds the still-fenced survivors and
     folds them in again. *)
  Hashtbl.iter
    (fun _ p ->
      if String.equal p.p_link.ls_link.dc_name dc then p.p_fenced <- true)
    t.pendings;
  (* The scan resends only what routes to the restarted DC.  A fenced
     pending it passes stays in place, bound to its transaction, until
     its batch's reply settles it. *)
  let to_dc resend lsn op =
    let link = route_op t op in
    if String.equal link.ls_link.dc_name dc then resend link lsn op
  in
  let logged resend = Log_record.redone (to_dc resend) in
  (* Cap the low-water mark at the redo cursor BEFORE the first barrier
     exchange: awaiting the fence ack pumps the transports, and an ack
     from a sibling partition arriving there can trigger a watermark
     push.  Uncapped, that watermark claims every acknowledged LSN —
     including operations the rebuilt DC lost with its cache — and the
     DC, whose pages came back with empty abstract LSNs, would compact
     them to the claim and absorb the entire redo stream as duplicates.
     (For a promoted standby the cap sits at its applied LSN: the ship
     stream put every earlier effect there, so claims below it are
     covered by real state.) *)
  t.lwm_cap <-
    Some (Lsn.prev (if Option.is_some layer_feed then from else start));
  (* Both fences are barriers: the begin must be applied before any redo
     frame, the end before fresh traffic resumes. *)
  ignore
    (await_control_reply t
       (post_control t ls (Wire.Redo_fence_begin { tc = t.cfg.id })));
  (* Fenced pendings below the scan start were already applied by the
     promoted standby (they are stable, hence shipped).  Their replies
     died with the primary, so re-dispatch each in LSN order first: the
     standby absorbs the duplicate and re-answers from its memo. *)
  let early =
    Hashtbl.fold
      (fun _ p acc ->
        if
          p.p_fenced
          && Lsn.(p.p_req.Wire.lsn < start)
          (* a reserved LSN (an unlogged read) has no record *)
          && Option.is_some (Wal.find t.log p.p_req.Wire.lsn)
        then p :: acc
        else acc)
      t.pendings []
    |> List.sort (fun a b -> Lsn.compare a.p_req.Wire.lsn b.p_req.Wire.lsn)
  in
  redo t (fun resend ->
      List.iter
        (fun p ->
          let op = p.p_req.Wire.op in
          resend (route_op t op) p.p_req.Wire.lsn op)
        early;
      (* Layer-sourced redo below the retained head, oldest first,
         before the log takes over at [start]: history repeats in LSN
         order across the source switch. *)
      Option.iter (fun feed -> feed (to_dc resend)) layer_feed;
      Wal.iter_retained t.log start (logged resend);
      Wal.iter_volatile t.log (logged resend));
  ignore
    (await_control_reply t
       (post_control t ls (Wire.Redo_fence_end { tc = t.cfg.id })));
  t.lwm_cap <- None;
  (* The rebuilt DC's end-of-stable-log slot died with it, and the next
     force may be arbitrarily far away (every later transaction could
     abort, which still acks ops and so still pushes low-water marks).
     Re-announce the stable horizon now, as TC recovery does, so no LWM
     can reach the DC ahead of an EOSL that covers it. *)
  send_eosl t;
  (* Any pending still fenced was never logged: a synchronous read whose
     awaiting caller unwound with the crash.  Nothing will ever consume
     its reply; retire it. *)
  Hashtbl.filter_map_inplace
    (fun _ p ->
      if not p.p_fenced then Some p
      else begin
        Option.iter (fun txn -> txn.outstanding <- txn.outstanding - 1) p.p_txn;
        None
      end)
    t.pendings

(* Failover: the link's DC is now a promoted standby that applied the
   shipped stream through [from - 1].  Same fence/cap protocol, redo
   narrowed to the gap. *)
let on_dc_failover t ~dc ~from = on_dc_restart ~from t ~dc

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let rssp t = t.rssp

let log_retained_from t = Wal.retained_from t.log

let stable_lsn t = Wal.stable_lsn t.log

let last_lsn t = Wal.last_lsn t.log

let log_forces t = Wal.forces t.log

let log_bytes t = Wal.appended_bytes t.log

let log_records t = Wal.stable_count t.log + Wal.volatile_count t.log

let lock_acquisitions t = Lock_mgr.total_acquisitions t.locks

let messages_sent t = t.msgs

let resends t = t.resend_count

let dc_of_op t op = (route_op t op).ls_link.dc_name

(* The log-shipping read path: logged operations of the stable log from
   an arbitrary cursor.  Only stable records ship — a volatile record
   can still be lost by a TC crash, and a standby must never hold
   effects the TC's log cannot account for. *)
let iter_stable_ops_from t ~from f =
  Wal.iter_retained t.log from (Log_record.redone f)

let force_log t =
  Wal.force t.log;
  send_eosl t
