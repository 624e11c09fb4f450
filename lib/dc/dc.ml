module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Codec = Untx_util.Codec
module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Disk = Untx_storage.Disk
module Cache = Untx_storage.Cache
module Wal = Untx_wal.Wal
module Btree = Untx_btree.Btree
module Fault = Untx_fault.Fault
module Op = Untx_msg.Op
module Wire = Untx_msg.Wire
module Session = Untx_msg.Session

type sync_policy = Stall_until_lwm | Full_ablsn | Bounded of int

type tc_reset_mode = Selective | Complete

type config = {
  page_capacity : int;
  cache_pages : int;
  sync_policy : sync_policy;
  tc_reset_mode : tc_reset_mode;
  debug_checks : bool;
}

let default_config =
  {
    page_capacity = 512;
    cache_pages = 256;
    sync_policy = Full_ablsn;
    tc_reset_mode = Selective;
    debug_checks = false;
  }

(* The lowest and highest LSN one TC applied to a page since its last
   flush.  Causality needs only the highest, checkpoint grants only the
   lowest, so the interval is exact for every reader. *)
type span = { lo : Lsn.t; hi : Lsn.t }

(* Volatile per-page recovery state.  Kept beside the page during normal
   execution (paper: "we do not need to keep abLSN in the page itself")
   and serialized into the page's metadata blob at page-sync time.

   Low-water marks reach the abstract LSNs lazily: [lwm_seen] is the
   DC's LWM generation (one per watermark message) the abLSNs were last
   advanced at, and {!state_of} advances a state whose generation is
   stale before anyone reads it.  A new state starts at generation -1,
   so its first read brings it up to the current marks. *)
type pstate = {
  mutable dlsn : Lsn.t;
  mutable ablsns : Ablsn.t Tc_id.Map.t;
  mutable lwm_seen : int;
  mutable pending : span Tc_id.Map.t;
      (* operation LSNs applied since the last flush; bounds causality *)
}

type table = {
  t_name : string;
  versioned : bool;
  mutable sealed : bool; (* read-only sharing, Section 6.2.1 *)
  mutable tree : Btree.t;
}

(* The control channel's idempotence state, one session per TC: control
   messages arrive over the same lossy transport as data operations, so
   the DC must absorb duplicates and reorderings here too.  Control
   messages are order-sensitive (a Restart_begin must not overtake the
   watermarks that preceded it), so unlike data ops they are applied
   strictly in sequence: a frame arriving ahead of its turn is buffered
   until the TC's resend of the gap fills it in.  The contract itself —
   epoch adoption, in-order apply, duplicate replay from a bounded memo
   — is {!Session.Receiver}, shared with the replication channel. *)
type ctl_session = (Wire.control, Wire.control_reply) Session.Receiver.t

type t = {
  cfg : config;
  counters : Instrument.t;
  c_requests : int ref; (* "dc.requests", resolved once *)
  disk : Disk.t;
  cache : Cache.t;
  dc_log : Smo_record.t Wal.t;
  tables : (string, table) Hashtbl.t;
  states : pstate Page_id.Tbl.t;
  memo : (int * int, Wire.reply) Hashtbl.t; (* (tc, lsn) -> original reply *)
  ctl_sessions : (int, ctl_session) Hashtbl.t; (* keyed by Tc_id.to_int *)
  mutable eosl : Lsn.t Tc_id.Map.t;
  mutable lwm : Lsn.t Tc_id.Map.t;
  mutable lwm_gen : int; (* bumped by every LWM message and withdrawal *)
  current_table : string ref; (* table whose tree is being operated on *)
  mutable dup_absorbed : int;
  mutable pages_dropped : int;
  mutable records_reset : int;
  mutable total_splits : int;
  mutable total_consolidations : int;
  mutable fence_depth : int;
      (* active restart-redo windows; page deletes deferred while > 0 *)
  mutable escalated : bool;
      (* a selective TC reset had to fall back to full DC recovery *)
  mutable part : int;
      (* partition id in the deployment; requests stamped for another
         partition are rejected instead of applied *)
  mutable h_apply_part : string;
      (* per-partition apply histogram name, rebuilt on set_identity *)
  mutable history_read :
    (table:string -> key:string -> at:Lsn.t -> string option) option;
      (* versioned-read hook: a layer store answers point-in-time
         lookups below the current state; the DC itself keeps only the
         newest record version *)
}

let config t = t.cfg

let set_identity t ~part =
  t.part <- part;
  t.h_apply_part <- "dc.apply_ns.p" ^ string_of_int part

let part t = t.part

(* ------------------------------------------------------------------ *)
(* Per-page state                                                      *)

let new_state ~dlsn ~ablsns =
  { dlsn; ablsns; lwm_seen = -1; pending = Tc_id.Map.empty }

let fresh_state meta =
  new_state ~dlsn:meta.Page_meta.dlsn ~ablsns:meta.Page_meta.ablsns

let lwm_of t tc =
  match Tc_id.Map.find_opt tc t.lwm with Some l -> l | None -> Lsn.zero

let eosl_of t tc =
  match Tc_id.Map.find_opt tc t.eosl with Some l -> l | None -> Lsn.zero

(* The state's abstract LSNs as of the DC's current LWM map.  Between
   withdrawals the marks only rise, and advancing is monotone and
   composes ([advance a (advance b x) = advance (max a b) x]), so one
   catch-up equals every mark applied in turn. *)
let current_ablsns t st =
  if st.lwm_seen = t.lwm_gen then st.ablsns
  else
    Tc_id.Map.mapi (fun tc ab -> Ablsn.advance ~lwm:(lwm_of t tc) ab) st.ablsns

let sync t st =
  if st.lwm_seen <> t.lwm_gen then begin
    st.ablsns <- current_ablsns t st;
    st.lwm_seen <- t.lwm_gen
  end

let find_state t page =
  let pid = Page.id page in
  match Page_id.Tbl.find_opt t.states pid with
  | Some st -> st
  | None ->
    let st = fresh_state (Page_meta.decode (Page.meta page)) in
    Page_id.Tbl.add t.states pid st;
    st

(* The one accessor for a page's state: every reader of abstract LSNs
   comes through here (or {!sync}), so none sees a stale LWM. *)
let state_of t page =
  let st = find_state t page in
  sync t st;
  st

let ablsn_of st tc =
  match Tc_id.Map.find_opt tc st.ablsns with
  | Some ab -> ab
  | None -> Ablsn.empty

let pending_lo st tc =
  Option.map (fun s -> s.lo) (Tc_id.Map.find_opt tc st.pending)

let span_union a b = { lo = Lsn.min a.lo b.lo; hi = Lsn.max a.hi b.hi }

(* A TC's first operation on a page starts its abLSN at the TC's
   current mark, keeping every abLSN of a synced state as advanced as
   the marks (what the next LWM would otherwise do). *)
let record_applied t page tc lsn =
  let st = state_of t page in
  let ab =
    match Tc_id.Map.find_opt tc st.ablsns with
    | Some ab -> ab
    | None -> Ablsn.of_lw (lwm_of t tc)
  in
  st.ablsns <- Tc_id.Map.add tc (Ablsn.add lsn ab) st.ablsns;
  let one = { lo = lsn; hi = lsn } in
  st.pending <-
    Tc_id.Map.update tc
      (function None -> Some one | Some s -> Some (span_union s one))
      st.pending

(* ------------------------------------------------------------------ *)
(* Flush policy: causality + page sync                                 *)

let policy_allows t st =
  match t.cfg.sync_policy with
  | Full_ablsn -> true
  | Stall_until_lwm ->
    Tc_id.Map.for_all (fun _ ab -> Ablsn.ins_count ab = 0) st.ablsns
  | Bounded k ->
    Tc_id.Map.for_all (fun _ ab -> Ablsn.ins_count ab <= k) st.ablsns

let can_flush t page =
  let st = state_of t page in
  Lsn.(st.dlsn <= Wal.stable_lsn t.dc_log)
  && Tc_id.Map.for_all (fun tc pend -> Lsn.(pend.hi <= eosl_of t tc)) st.pending
  && policy_allows t st

let prepare_flush t page =
  let st = state_of t page in
  let meta = { Page_meta.dlsn = st.dlsn; ablsns = st.ablsns } in
  let encoded = Page_meta.encode meta in
  Page.set_meta page encoded;
  Instrument.bump_by t.counters "dc.meta_bytes_flushed" (String.length encoded);
  st.pending <- Tc_id.Map.empty

(* ------------------------------------------------------------------ *)
(* System transactions: B-tree hooks writing the DC-log                *)

let p_split_mid = Fault.declare "dc.smo.split.mid"

let p_consolidate_before_force = Fault.declare "dc.smo.consolidate.before_force"

let p_checkpoint_mid = Fault.declare "dc.checkpoint.mid"

let ablsns_image t page = (state_of t page).ablsns

let on_split t (ev : Btree.split_event) =
  let table = !(t.current_table) in
  let tbl = Hashtbl.find t.tables table in
  let old_st = state_of t ev.old_page in
  (* The new page inherits the old page's abstract LSNs: its records'
     operations are exactly summarized by them (Section 5.2.2, page
     splits).  Pending sets are copied to both halves — conservative for
     causality, never wrong. *)
  let new_st = { old_st with dlsn = Lsn.zero } in
  Page_id.Tbl.replace t.states (Page.id ev.new_page) new_st;
  let parent_st = state_of t ev.parent in
  let record =
    Smo_record.Split
      {
        table;
        level = ev.level;
        old_pid = Page.id ev.old_page;
        split_key = ev.split_key;
        new_image =
          Smo_record.image_of_page ev.new_page ~ablsns:new_st.ablsns;
        parent_pid = Page.id ev.parent;
        sep_key = ev.split_key;
        new_root =
          (if ev.new_root then
             Some
               (Smo_record.image_of_page ev.parent
                  ~ablsns:(ablsns_image t ev.parent))
           else None);
        root = Btree.root tbl.tree;
      }
  in
  let dlsn = Wal.append t.dc_log record in
  (* Stamp before anything can raise: the new dlsn is volatile, so the
     stamp pins all three mutated pages in the cache (can_flush requires
     dlsn <= stable) until the record is forced.  Stamping after the
     force would leave a window where an eviction flushes a mutated page
     under its old stable dlsn — a torn SMO on disk that replay cannot
     repair because the record never survived. *)
  old_st.dlsn <- dlsn;
  new_st.dlsn <- dlsn;
  parent_st.dlsn <- dlsn;
  Fault.hit p_split_mid;
  t.total_splits <- t.total_splits + 1;
  Instrument.bump t.counters "dc.smo_splits"

let on_consolidate t (ev : Btree.consolidate_event) =
  let table = !(t.current_table) in
  let tbl = Hashtbl.find t.tables table in
  let surv_st = state_of t ev.survivor in
  let freed_pid = Page.id ev.freed_page in
  let freed_st = state_of t ev.freed_page in
  (* Merged ("maximum") abstract LSNs pin the delete's position relative
     to the TC operations already applied on either page. *)
  surv_st.ablsns <-
    Tc_id.Map.merge
      (fun _ a b ->
        match (a, b) with
        | Some a, Some b -> Some (Ablsn.merge a b)
        | (Some _ as one), None | None, (Some _ as one) -> one
        | None, None -> None)
      surv_st.ablsns freed_st.ablsns;
  surv_st.pending <-
    Tc_id.Map.merge
      (fun _ a b ->
        match (a, b) with
        | Some a, Some b -> Some (span_union a b)
        | (Some _ as one), None | None, (Some _ as one) -> one
        | None, None -> None)
      surv_st.pending freed_st.pending;
  let parent_st = state_of t ev.parent in
  let record =
    Smo_record.Consolidate
      {
        table;
        survivor_image =
          Smo_record.image_of_page ev.survivor ~ablsns:surv_st.ablsns;
        freed_pid;
        parent_pid = Page.id ev.parent;
        removed_sep = ev.removed_sep;
        new_root = ev.root_collapsed_to;
        root = Btree.root tbl.tree;
      }
  in
  let dlsn = Wal.append t.dc_log record in
  (* Stamp before the force: the volatile dlsn pins the mutated
     survivor and parent in the cache (can_flush requires
     dlsn <= stable), so a crash on either side of the force can never
     find a half-consolidated page flushed under its old dlsn. *)
  surv_st.dlsn <- dlsn;
  parent_st.dlsn <- dlsn;
  (* The B-tree frees the victim's stable image right after this hook
     returns, so the consolidation must be durable first. *)
  Fault.hit p_consolidate_before_force;
  Wal.force t.dc_log;
  Page_id.Tbl.remove t.states freed_pid;
  t.total_consolidations <- t.total_consolidations + 1;
  Instrument.bump t.counters "dc.smo_consolidations"

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let hooks_for t =
  {
    Btree.on_split = (fun ev -> on_split t ev);
    on_consolidate = (fun ev -> on_consolidate t ev);
  }

let create ?(counters = Instrument.global) cfg =
  let disk = Disk.create ~counters () in
  let cache = Cache.create ~counters ~disk ~capacity:cfg.cache_pages () in
  let t =
    {
      cfg;
      counters;
      c_requests = Metrics.counter_cell counters "dc.requests";
      disk;
      cache;
      dc_log = Wal.create ~counters ~label:"wal.dc" ~size:Smo_record.size ();
      tables = Hashtbl.create 8;
      states = Page_id.Tbl.create 256;
      memo = Hashtbl.create 1024;
      ctl_sessions = Hashtbl.create 4;
      eosl = Tc_id.Map.empty;
      lwm = Tc_id.Map.empty;
      lwm_gen = 0;
      current_table = ref "";
      dup_absorbed = 0;
      pages_dropped = 0;
      records_reset = 0;
      total_splits = 0;
      total_consolidations = 0;
      fence_depth = 0;
      escalated = false;
      part = 0;
      h_apply_part = "dc.apply_ns.p0";
      history_read = None;
    }
  in
  Cache.set_policy cache
    ~can_flush:(fun page -> can_flush t page)
    ~prepare_flush:(fun page -> prepare_flush t page);
  t

let write_master t =
  let fields =
    Hashtbl.fold
      (fun _ tbl acc ->
        tbl.t_name
        :: (if tbl.versioned then "1" else "0")
        :: (if tbl.sealed then "1" else "0")
        :: Codec.encode_int (Page_id.to_int (Btree.root tbl.tree))
        :: acc)
      t.tables []
  in
  Disk.set_master t.disk (Codec.encode fields)

let read_master t =
  match Disk.master t.disk with
  | None -> []
  | Some blob ->
    let rec entries acc = function
      | [] -> List.rev acc
      | name :: versioned :: sealed :: root :: rest ->
        entries
          (( name,
             String.equal versioned "1",
             String.equal sealed "1",
             Page_id.of_int (Codec.decode_int root) )
          :: acc)
          rest
      | _ -> invalid_arg "Dc: corrupt master record"
    in
    entries [] (Codec.decode blob)

let create_table t ~name ~versioned =
  if not (Hashtbl.mem t.tables name) then begin
    let tbl = { t_name = name; versioned; sealed = false; tree = Obj.magic () } in
    Hashtbl.add t.tables name tbl;
    t.current_table := name;
    let tree =
      Btree.create ~cache:t.cache ~name ~page_capacity:t.cfg.page_capacity
        ~hooks:(hooks_for t)
    in
    tbl.tree <- tree;
    ignore
      (Wal.append t.dc_log
         (Smo_record.Create_table { table = name; versioned;
                                    root = Btree.root tree }));
    Wal.force t.dc_log;
    write_master t
  end

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let find_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> Some tbl
  | None -> None

(* ------------------------------------------------------------------ *)
(* Operation execution                                                 *)

let decode_cell = Stored_record.decode

let find_record tree key = Option.map decode_cell (Btree.find tree key)

let record_in leaf key = Option.map decode_cell (Page.find leaf key)

(* Splits and consolidations are the only events that move a key to
   another leaf: while this count stands still, a leaf found for a key
   still covers it. *)
let smo_count tree = Btree.splits tree + Btree.consolidations tree

let visible mode record =
  match mode with
  | Op.Own | Op.Dirty -> Stored_record.current record
  | Op.Committed -> Stored_record.committed record

let memo_key tc lsn = (Tc_id.to_int tc, Lsn.to_int lsn)

let memoize t (req : Wire.request) reply =
  Hashtbl.replace t.memo (memo_key req.tc req.lsn) reply

let memoized t (req : Wire.request) =
  match Hashtbl.find_opt t.memo (memo_key req.tc req.lsn) with
  | Some reply -> reply
  | None ->
    (* The memo was truncated by contract termination; only writes whose
       effect is already present can reach here, so a bare ack serves. *)
    { Wire.tc = req.tc; lsn = req.lsn; result = Wire.Done; prior = None }

(* Mutations.  Each writes into [leaf], the leaf covering [key], and
   returns the operation result; structure modifications (splits,
   consolidations) happen inside the B-tree call under the installed
   hooks. *)

let do_insert tbl ~tc ~lsn ~key ~value leaf prior =
  if tbl.sealed then Wire.Failed "table is sealed read-only"
  else
  match prior with
  | Some r when Stored_record.current r <> None ->
    Wire.Failed "duplicate key"
  | _ ->
    let record =
      if tbl.versioned then
        let before =
          match prior with
          | Some r -> r.Stored_record.before (* insert over a tombstone *)
          | None -> Stored_record.Null_before
        in
        { Stored_record.value; deleted = false; before; writer = tc;
          wlsn = lsn }
      else Stored_record.plain ~writer:tc ~wlsn:lsn value
    in
    Btree.set_in tbl.tree leaf ~key ~data:(Stored_record.encode record);
    Wire.Done

let do_update tbl ~tc ~lsn ~key ~value leaf prior =
  if tbl.sealed then Wire.Failed "table is sealed read-only"
  else
  match prior with
  | Some r when Stored_record.current r <> None ->
    let record =
      if tbl.versioned then
        let before =
          match r.Stored_record.before with
          | Stored_record.Absent -> Stored_record.Value_before r.value
          | kept -> kept
        in
        { Stored_record.value; deleted = false; before; writer = tc;
          wlsn = lsn }
      else Stored_record.plain ~writer:tc ~wlsn:lsn value
    in
    Btree.set_in tbl.tree leaf ~key ~data:(Stored_record.encode record);
    Wire.Done
  | _ -> Wire.Failed "no such key"

let do_delete tbl ~tc ~lsn ~key leaf prior =
  if tbl.sealed then Wire.Failed "table is sealed read-only"
  else
  match prior with
  | Some r when Stored_record.current r <> None ->
    if tbl.versioned then begin
      let before =
        match r.Stored_record.before with
        | Stored_record.Absent -> Stored_record.Value_before r.value
        | kept -> kept
      in
      let record =
        { Stored_record.value = r.value; deleted = true; before; writer = tc;
          wlsn = lsn }
      in
      Btree.set_in tbl.tree leaf ~key ~data:(Stored_record.encode record)
    end
    else ignore (Btree.remove_in tbl.tree leaf key);
    Wire.Done
  | _ -> Wire.Done (* deleting an absent record is a no-op *)

let commit_version tbl ~lsn leaf key =
  match record_in leaf key with
  | None -> ()
  | Some r ->
    if r.Stored_record.deleted then ignore (Btree.remove_in tbl.tree leaf key)
    else if r.before <> Stored_record.Absent then
      Btree.set_in tbl.tree leaf ~key
        ~data:
          (Stored_record.encode
             { r with before = Stored_record.Absent; wlsn = lsn })

let abort_version tbl ~lsn leaf key =
  match record_in leaf key with
  | None -> ()
  | Some r -> (
    match r.Stored_record.before with
    | Stored_record.Absent -> ()
    | Stored_record.Null_before -> ignore (Btree.remove_in tbl.tree leaf key)
    | Stored_record.Value_before v ->
      Btree.set_in tbl.tree leaf ~key
        ~data:
          (Stored_record.encode
             {
               Stored_record.value = v;
               deleted = false;
               before = Stored_record.Absent;
               writer = r.writer;
               wlsn = lsn;
             }))

let absorbed t (req : Wire.request) st =
  if Ablsn.included req.lsn (ablsn_of st req.tc) then begin
    t.dup_absorbed <- t.dup_absorbed + 1;
    Instrument.bump t.counters "dc.dup_absorbed";
    true
  end
  else false

(* Single-key write shell, on one descent: the idempotence test against
   the covering leaf's abstract LSN, the prior record read from that
   leaf, the write into it, then marking the operation applied on the
   page that finally holds the key — the same leaf, unless a split or
   consolidation moved the key. *)
let write_one t tbl (req : Wire.request) key mutate =
  let leaf = Btree.find_leaf tbl.tree key in
  let st = state_of t leaf in
  if absorbed t req st then memoized t req
  else begin
    (* E3 instrumentation: an arrival below the page's maximum known LSN
       is out of order; the classical [opLSN <= pageLSN] test would have
       wrongly treated it as already applied. *)
    if Lsn.(req.lsn < Ablsn.max_lsn (ablsn_of st req.tc)) then begin
      Instrument.bump t.counters "dc.out_of_order_arrivals";
      Instrument.bump t.counters "dc.classical_test_would_lie"
    end;
    let prior = record_in leaf key in
    let smo = smo_count tbl.tree in
    let result = mutate leaf prior in
    let leaf =
      if smo_count tbl.tree = smo then leaf else Btree.find_leaf tbl.tree key
    in
    record_applied t leaf req.tc req.lsn;
    Cache.mark_dirty t.cache leaf;
    let reply =
      {
        Wire.tc = req.tc;
        lsn = req.lsn;
        result;
        prior = Option.bind prior Stored_record.current;
      }
    in
    memoize t req reply;
    reply
  end

(* Multi-key version housekeeping: per-page idempotence, decided for
   every key *before* any mutation — applying the first key would
   otherwise make the page's abstract LSN hide the remaining keys of the
   same request.  Each key's leaf is found once and reused by the later
   passes until a split or consolidation moves keys. *)
let write_many t tbl (req : Wire.request) keys mutate_key =
  let smo = smo_count tbl.tree in
  let todo =
    List.filter_map
      (fun key ->
        let leaf = Btree.find_leaf tbl.tree key in
        if absorbed t req (state_of t leaf) then None else Some (key, leaf))
      keys
  in
  let leaf_of (key, leaf) =
    if smo_count tbl.tree = smo then leaf else Btree.find_leaf tbl.tree key
  in
  if todo <> [] && tbl.sealed then
    { Wire.tc = req.tc; lsn = req.lsn;
      result = Wire.Failed "table is sealed read-only"; prior = None }
  else begin
    List.iter (fun kl -> mutate_key (leaf_of kl) (fst kl)) todo;
    List.iter
      (fun kl ->
        let leaf = leaf_of kl in
        record_applied t leaf req.tc req.lsn;
        Cache.mark_dirty t.cache leaf)
      todo;
    { Wire.tc = req.tc; lsn = req.lsn; result = Wire.Done; prior = None }
  end

let do_scan tbl ~from_key ~limit ~mode =
  let acc = ref [] in
  let count = ref 0 in
  Btree.scan tbl.tree ~from:from_key (fun k data ->
      if !count >= limit then `Stop
      else
        match visible mode (decode_cell data) with
        | Some v ->
          acc := (k, v) :: !acc;
          incr count;
          `Continue
        | None -> `Continue);
  Wire.Pairs (List.rev !acc)

let do_probe tbl ~from_key ~limit =
  let acc = ref [] in
  let count = ref 0 in
  Btree.scan tbl.tree ~from:from_key (fun k _ ->
      if !count >= limit then `Stop
      else begin
        acc := k :: !acc;
        incr count;
        `Continue
      end);
  Wire.Next_keys (List.rev !acc)

let perform_unlatched t (req : Wire.request) =
  incr t.c_requests;
  let fail msg =
    { Wire.tc = req.tc; lsn = req.lsn; result = Wire.Failed msg; prior = None }
  in
  let table_name = Op.table req.op in
  if req.part <> t.part then begin
    (* A frame for another partition: the TC's map and the deployment
       disagree.  Refuse without touching any state — applying it here
       would silently fork the record's home. *)
    Instrument.bump t.counters "dc.misrouted";
    fail
      (Printf.sprintf "misrouted: request for partition %d reached %d"
         req.part t.part)
  end
  else
  match find_table t table_name with
  | None -> fail ("unknown table " ^ table_name)
  | Some tbl -> (
    t.current_table := table_name;
    match req.op with
    | Op.Read { key; mode; _ } ->
      let value = Option.bind (find_record tbl.tree key) (visible mode) in
      { Wire.tc = req.tc; lsn = req.lsn; result = Wire.Value value; prior = None }
    | Op.Scan { from_key; limit; mode; _ } ->
      { Wire.tc = req.tc; lsn = req.lsn;
        result = do_scan tbl ~from_key ~limit ~mode;
        prior = None }
    | Op.Probe { from_key; limit; _ } ->
      { Wire.tc = req.tc; lsn = req.lsn;
        result = do_probe tbl ~from_key ~limit;
        prior = None }
    | Op.Insert { key; value; _ } ->
      write_one t tbl req key (do_insert tbl ~tc:req.tc ~lsn:req.lsn ~key ~value)
    | Op.Update { key; value; _ } ->
      write_one t tbl req key (do_update tbl ~tc:req.tc ~lsn:req.lsn ~key ~value)
    | Op.Delete { key; _ } ->
      write_one t tbl req key (do_delete tbl ~tc:req.tc ~lsn:req.lsn ~key)
    | Op.Commit_versions { keys; _ } ->
      write_many t tbl req keys (commit_version tbl ~lsn:req.lsn)
    | Op.Abort_versions { keys; _ } ->
      write_many t tbl req keys (abort_version tbl ~lsn:req.lsn))

(* Operation atomicity (Section 4.1.2): the whole logical operation runs
   with its pages latched — eviction deferred — so no page can reach
   stable storage with a half-applied operation or not-yet-stamped
   recovery metadata. *)
let perform t req =
  Cache.with_operation_latch t.cache (fun () -> perform_unlatched t req)

(* ------------------------------------------------------------------ *)
(* Flushing / checkpoint                                               *)

let flush_all t =
  Wal.force t.dc_log;
  Cache.flush_all t.cache

let self_checkpoint t =
  flush_all t;
  if Cache.dirty_pages t.cache = [] then begin
    write_master t;
    Wal.truncate t.dc_log (Lsn.next (Wal.stable_lsn t.dc_log));
    true
  end
  else false

(* Read-only sharing (Section 6.2.1): once sealed, a table accepts no
   further writes from any TC, so "it is possible for multiple TCs to
   share read-only data with each other without difficulty".  The flag
   is stable (master record). *)
let seal_table t ~name =
  match Hashtbl.find_opt t.tables name with
  | None -> invalid_arg ("Dc.seal_table: unknown table " ^ name)
  | Some tbl ->
    (* Sealing demands stability: unflushed effects could never be
       redone once writes are refused, so everything goes to disk (and
       the DC-log empties) first. *)
    if not (self_checkpoint t) then
      invalid_arg
        "Dc.seal_table: table has unflushable dirty pages (quiesce first)";
    tbl.sealed <- true;
    write_master t

(* Bootstrap backdoor: install a fully materialized record straight into
   the tree, bypassing the wire path.  No LSN is consumed and no
   abstract-LSN state is touched — the installed page's empty ablsns are
   exactly right, because the caller follows up with a watermark
   adoption claiming the whole installed prefix as covered-by-state. *)
let install_record t ~table ~key record =
  match find_table t table with
  | None -> invalid_arg ("Dc.install_record: unknown table " ^ table)
  | Some tbl ->
    Btree.set tbl.tree ~key ~data:(Stored_record.encode record);
    let leaf = Btree.find_leaf tbl.tree key in
    Cache.mark_dirty t.cache leaf;
    Instrument.bump t.counters "dc.installed_records"

let set_history_read t f = t.history_read <- Some f

let read_as_of t ~table ~key ~at =
  match t.history_read with
  | None ->
    invalid_arg "Dc.read_as_of: no history-read hook installed (layers off?)"
  | Some h ->
    Instrument.bump t.counters "dc.history_reads";
    h ~table ~key ~at

(* ------------------------------------------------------------------ *)
(* TC failure: cache reset (Section 5.3.2 / 6.1.2)                     *)

(* A leaf image logged by an SMO captures whole cells — including
   records whose TC-log coverage was still volatile when the image was
   taken.  After a TC failure such records are lost history: replaying
   the image verbatim would resurrect operations the TC can never
   resend.  Every complete restart on behalf of a failed TC logs a
   [Tc_restart] fence in the DC-log, so the subtraction is durable:
   during any replay, an image is subject to every fence logged after
   it, however long ago the restart itself happened. *)
type fence = { f_tc : Tc_id.t; f_stable : Lsn.t; f_dlsn : Lsn.t }

let fences_after fences dlsn =
  List.filter (fun f -> Lsn.(dlsn < f.f_dlsn)) fences

let collect_fences t =
  let fences = ref [] in
  let collect dlsn = function
    | Smo_record.Tc_restart { tc; stable_lsn } ->
      fences := { f_tc = tc; f_stable = stable_lsn; f_dlsn = dlsn } :: !fences
    | _ -> ()
  in
  Wal.iter_from t.dc_log Lsn.zero collect;
  Wal.iter_volatile t.dc_log collect;
  !fences

let image_tainted fences (img : Smo_record.page_image) =
  fences <> []
  && img.kind = Page.Leaf
  && List.exists
       (fun (_, data) ->
         let r = Stored_record.decode data in
         List.exists
           (fun f ->
             Tc_id.equal r.Stored_record.writer f.f_tc
             && Lsn.(r.Stored_record.wlsn > f.f_stable))
           fences)
       img.cells

exception Tainted_reset

(* Rebuild an affected page's reset state: its stable base (the disk
   image, which by causality holds nothing beyond the failed TC's stable
   log; or nothing, for a never-flushed page) with the DC-log's system
   transactions replayed on top under the usual dLSN test.  Without the
   replay, reverting to the raw disk image would undo structure
   modifications — resurrecting cells a split moved away and corrupting
   routing.  Any replayed image whose abstract LSN for the failed TC
   reaches past its stable log is tainted — it bakes in lost effects
   that cannot be subtracted — and forces escalation to a complete DC
   recovery.

   Soundness for never-flushed pages: such a page was created after the
   last granted checkpoint (a grant flushes every dirty page), so every
   operation below the redo scan start point in its key range is inside
   its creation image, and everything later is resent by redo. *)
let rebuild_page_from_stable t pid ~tc ~stable_lsn =
  let fences = collect_fences t in
  let base =
    match Disk.read t.disk pid with
    | Some page ->
      let meta = Page_meta.decode (Page.meta page) in
      Some (page, meta.Page_meta.ablsns, meta.Page_meta.dlsn)
    | None -> None
  in
  let found = ref base in
  let cur_dlsn () =
    match !found with Some (_, _, d) -> d | None -> Lsn.zero
  in
  let image_clean (img : Smo_record.page_image) =
    match Tc_id.Map.find_opt tc img.ablsns with
    | None -> true
    | Some ab -> Lsn.(Ablsn.max_lsn ab <= stable_lsn)
  in
  let install (img : Smo_record.page_image) dlsn =
    if Lsn.(dlsn > cur_dlsn ()) then begin
      (* Tainted w.r.t. this restart, or w.r.t. an earlier TC restart
         whose fence sits later in the log: either way the image bakes
         in lost effects this in-place rebuild cannot subtract. *)
      if
        (not (image_clean img))
        || image_tainted (fences_after fences dlsn) img
      then raise Tainted_reset;
      let page =
        Page.create ~id:pid ~kind:img.kind ~capacity:t.cfg.page_capacity
      in
      Page.replace_cells page img.cells;
      Page.set_next page img.next;
      found := Some (page, img.ablsns, dlsn)
    end
  in
  let visit dlsn = function
    | Smo_record.Create_table _ -> ()
    | Smo_record.Split { old_pid; split_key; new_image; new_root; _ } ->
      if Page_id.equal new_image.pid pid then install new_image dlsn;
      (match new_root with
      | Some img when Page_id.equal img.pid pid -> install img dlsn
      | _ -> ());
      if Page_id.equal old_pid pid && Lsn.(dlsn > cur_dlsn ()) then (
        match !found with
        | Some (page, ablsns, _) ->
          let doomed =
            List.filter_map
              (fun (k, _) ->
                if String.compare k split_key >= 0 then Some k else None)
              (Page.cells page)
          in
          List.iter (fun k -> ignore (Page.remove page k)) doomed;
          if Page.kind page = Page.Leaf then
            Page.set_next page (Some new_image.pid);
          found := Some (page, ablsns, dlsn)
        | None -> ())
    | Smo_record.Consolidate { survivor_image; freed_pid; _ } ->
      if Page_id.equal survivor_image.pid pid then
        install survivor_image dlsn;
      if Page_id.equal freed_pid pid && Lsn.(dlsn > cur_dlsn ()) then
        found := None
    | Smo_record.Tc_restart _ -> ()
  in
  Wal.iter_from t.dc_log Lsn.zero visit;
  Wal.iter_volatile t.dc_log visit;
  !found

let reset_page_for_tc t pid st ~tc ~stable_lsn =
  let multi = Tc_id.Map.cardinal st.ablsns > 1 in
  if not multi then begin
    (* All data on this page belongs to the failed TC: revert to the
       stable version wholesale.  Causality guarantees the disk image
       holds nothing beyond the TC's stable log.  A page that never
       reached the disk keeps its structure (sibling link, dLSN) but
       loses its records: redo from the scan start point refills it. *)
    (match rebuild_page_from_stable t pid ~tc ~stable_lsn with
    | Some (page, ablsns, dlsn) ->
      Cache.install t.cache page;
      Page_id.Tbl.replace t.states pid (new_state ~dlsn ~ablsns)
    | None ->
      (* No stable base and no image anywhere: the table's original
         root, never split and never flushed — all its content is at or
         above the redo scan start point. *)
      (match Cache.cached t.cache pid with
      | Some page ->
        Page.clear page;
        Cache.mark_dirty t.cache page
      | None -> ());
      st.ablsns <- Tc_id.Map.empty;
      st.pending <- Tc_id.Map.empty);
    t.pages_dropped <- t.pages_dropped + 1;
    Instrument.bump t.counters "dc.pages_dropped"
  end
  else begin
    (* Shared page: replace only the failed TC's records from the disk
       version, leaving other TCs' (possibly unflushed) updates alone. *)
    match Cache.cached t.cache pid with
    | None -> ()
    | Some page ->
      let disk_page = Disk.read t.disk pid in
      let disk_meta =
        match disk_page with
        | Some p -> Page_meta.decode (Page.meta p)
        | None -> Page_meta.empty
      in
      let disk_cells =
        match disk_page with Some p -> Page.cells p | None -> []
      in
      let owned_cached =
        List.filter_map
          (fun (k, d) ->
            if Tc_id.equal (decode_cell d).Stored_record.writer tc then Some k
            else None)
          (Page.cells page)
      in
      let disk_assoc = disk_cells in
      let owned_disk =
        List.filter_map
          (fun (k, d) ->
            if Tc_id.equal (decode_cell d).Stored_record.writer tc then Some k
            else None)
          disk_cells
      in
      let keys =
        List.sort_uniq String.compare (owned_cached @ owned_disk)
      in
      List.iter
        (fun k ->
          t.records_reset <- t.records_reset + 1;
          match List.assoc_opt k disk_assoc with
          | Some d -> Page.set page ~key:k ~data:d
          | None -> ignore (Page.remove page k))
        keys;
      st.ablsns <- Tc_id.Map.add tc (Page_meta.ablsn disk_meta tc) st.ablsns;
      st.pending <- Tc_id.Map.remove tc st.pending;
      Cache.mark_dirty t.cache page;
      Instrument.bump t.counters "dc.pages_record_reset"
  end;
  ignore stable_lsn

let reset_for_tc t ~tc ~stable_lsn =
  (* Drop memoized results for operations that no longer exist. *)
  Hashtbl.iter
    (fun (mtc, mlsn) _ ->
      if mtc = Tc_id.to_int tc && Lsn.(of_int mlsn > stable_lsn) then
        Hashtbl.remove t.memo (mtc, mlsn))
    (Hashtbl.copy t.memo);
  let affected =
    Page_id.Tbl.fold
      (fun pid st acc ->
        match Cache.cached t.cache pid with
        | None -> acc
        | Some _ ->
          let ab = ablsn_of st tc in
          if Lsn.(Ablsn.max_lsn ab > stable_lsn) then (pid, st) :: acc
          else acc)
      t.states []
  in
  List.iter (fun (pid, st) -> reset_page_for_tc t pid st ~tc ~stable_lsn)
    affected

(* ------------------------------------------------------------------ *)
(* Crash / recovery                                                    *)

let apply_fence_gate t =
  let enabled = t.fence_depth = 0 in
  Hashtbl.iter
    (fun _ tbl -> Btree.set_consolidation_enabled tbl.tree enabled)
    t.tables

let enter_fence t =
  t.fence_depth <- t.fence_depth + 1;
  apply_fence_gate t

let exit_fence t =
  t.fence_depth <- Stdlib.max 0 (t.fence_depth - 1);
  apply_fence_gate t

let crash t =
  Cache.crash t.cache;
  Page_id.Tbl.reset t.states;
  Hashtbl.reset t.memo;
  Hashtbl.reset t.ctl_sessions;
  Wal.crash t.dc_log;
  t.eosl <- Tc_id.Map.empty;
  t.lwm <- Tc_id.Map.empty

let set_state t pid st = Page_id.Tbl.replace t.states pid st

let ensure_page t pid ~kind =
  match Cache.lookup t.cache pid with
  | Some page -> page
  | None ->
    (* The page was never flushed and its creating record is gone only
       if it is a table's original root (covered by the master catalog);
       rebuild it empty — TC redo will repopulate it. *)
    let page = Page.create ~id:pid ~kind ~capacity:t.cfg.page_capacity in
    Cache.install t.cache page;
    set_state t pid (new_state ~dlsn:Lsn.zero ~ablsns:Tc_id.Map.empty);
    page

(* [reverted] replaces a tainted image's content with an older,
   consistent state of the same key range (the caller knows where it
   lives); structure (pid, kind, sibling link) still comes from the
   image.  Each fence truncates its failed TC's abstract LSN to that
   TC's stable log so it stops vouching for subtracted effects. *)
let install_image t ~fences ?reverted (img : Smo_record.page_image) dlsn =
  let newer_exists =
    match Cache.lookup t.cache img.pid with
    | None -> false
    | Some page ->
      let st = state_of t page in
      Lsn.(st.dlsn >= dlsn)
  in
  if not newer_exists then begin
    let cells, ablsns =
      match reverted with
      | Some (cells, ablsns) -> (cells, ablsns)
      | None -> (img.cells, img.ablsns)
    in
    let ablsns =
      List.fold_left
        (fun abs f ->
          Tc_id.Map.update f.f_tc
            (Option.map (Ablsn.truncate ~upto:f.f_stable))
            abs)
        ablsns fences
    in
    let page =
      Page.create ~id:img.pid ~kind:img.kind ~capacity:t.cfg.page_capacity
    in
    Page.replace_cells page cells;
    Page.set_next page img.next;
    Cache.install t.cache page;
    set_state t img.pid (new_state ~dlsn ~ablsns)
  end

let apply_smo t ~fences dlsn record =
  (* Only fences logged after this record can subtract from it. *)
  let fences = fences_after fences dlsn in
  match record with
  | Smo_record.Tc_restart _ -> ()
  | Smo_record.Create_table { table; versioned; root } ->
    if not (Hashtbl.mem t.tables table) then begin
      let tbl =
        { t_name = table; versioned; sealed = false; tree = Obj.magic () }
      in
      Hashtbl.add t.tables table tbl;
      tbl.tree <-
        Btree.attach ~cache:t.cache ~name:table
          ~page_capacity:t.cfg.page_capacity ~hooks:(hooks_for t) ~root
    end;
    let tbl = Hashtbl.find t.tables table in
    ignore (ensure_page t (Btree.root tbl.tree) ~kind:Page.Leaf)
  | Smo_record.Split
      { table; level; old_pid; split_key; new_image; parent_pid; sep_key;
        new_root; root; _ } -> (
    match Hashtbl.find_opt t.tables table with
    | None -> () (* table dropped; nothing to redo *)
    | Some tbl ->
      let old_kind = if level = 0 then Page.Leaf else Page.Inner in
      let old_page = ensure_page t old_pid ~kind:old_kind in
      let old_st = state_of t old_page in
      (* Captured before the prune below: a tainted image is replaced by
         the old page's pre-split content for the moved key range, whose
         suffix the TC redo re-applies. *)
      let reverted =
        if image_tainted fences new_image then
          Some
            ( List.filter
                (fun (k, _) -> String.compare k split_key >= 0)
                (Page.cells old_page),
              old_st.ablsns )
        else None
      in
      if Lsn.(old_st.dlsn < dlsn) then begin
        let doomed =
          List.filter_map
            (fun (k, _) ->
              if String.compare k split_key >= 0 then Some k else None)
            (Page.cells old_page)
        in
        List.iter (fun k -> ignore (Page.remove old_page k)) doomed;
        if Page.kind old_page = Page.Leaf then
          Page.set_next old_page (Some new_image.pid);
        old_st.dlsn <- dlsn;
        Cache.mark_dirty t.cache old_page
      end;
      install_image t ~fences ?reverted new_image dlsn;
      (match new_root with
      | Some root_img -> install_image t ~fences root_img dlsn
      | None ->
        let parent = ensure_page t parent_pid ~kind:Page.Inner in
        let parent_st = state_of t parent in
        if Lsn.(parent_st.dlsn < dlsn) then begin
          Page.set parent ~key:sep_key ~data:(Btree.child_data new_image.pid);
          parent_st.dlsn <- dlsn;
          Cache.mark_dirty t.cache parent
        end);
      Btree.set_root tbl.tree root)
  | Smo_record.Consolidate
      { table; survivor_image; freed_pid; parent_pid; removed_sep; new_root;
        root } -> (
    match Hashtbl.find_opt t.tables table with
    | None -> ()
    | Some tbl ->
      (* A tainted survivor image is replaced by re-merging the two
         pages' current (consistent) replayed content. *)
      let reverted =
        if image_tainted fences survivor_image then begin
          let content pid =
            match Cache.lookup t.cache pid with
            | Some page -> (Page.cells page, (state_of t page).ablsns)
            | None -> ([], Tc_id.Map.empty)
          in
          let surv_cells, surv_ablsns = content survivor_image.pid in
          let vict_cells, vict_ablsns = content freed_pid in
          let merged =
            Tc_id.Map.merge
              (fun _ a b ->
                match (a, b) with
                | Some a, Some b -> Some (Ablsn.merge a b)
                | (Some _ as one), None | None, (Some _ as one) -> one
                | None, None -> None)
              surv_ablsns vict_ablsns
          in
          Some
            ( List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                (surv_cells @ vict_cells),
              merged )
        end
        else None
      in
      install_image t ~fences ?reverted survivor_image dlsn;
      Cache.free_page t.cache freed_pid;
      Page_id.Tbl.remove t.states freed_pid;
      (match new_root with
      | Some _ ->
        Cache.free_page t.cache parent_pid;
        Page_id.Tbl.remove t.states parent_pid
      | None ->
        let parent = ensure_page t parent_pid ~kind:Page.Inner in
        let parent_st = state_of t parent in
        if Lsn.(parent_st.dlsn < dlsn) then begin
          ignore (Page.remove parent removed_sep);
          parent_st.dlsn <- dlsn;
          Cache.mark_dirty t.cache parent
        end);
      Btree.set_root tbl.tree root)

let check t =
  Hashtbl.fold
    (fun name tbl acc ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match Btree.check tbl.tree with
        | Ok () -> Ok ()
        | Error msg -> Error (name ^ ": " ^ msg)))
    t.tables (Ok ())

let recover_unlatched t =
  (* 1. Catalog from the master record. *)
  Hashtbl.reset t.tables;
  List.iter
    (fun (name, versioned, sealed, root) ->
      let tbl = { t_name = name; versioned; sealed; tree = Obj.magic () } in
      Hashtbl.add t.tables name tbl;
      tbl.tree <-
        Btree.attach ~cache:t.cache ~name ~page_capacity:t.cfg.page_capacity
          ~hooks:(hooks_for t) ~root)
    (read_master t);
  (* 2. Replay the DC-log: system transactions re-execute before any TC
     redo, out of their original order relative to TC operations.  The
     fences are gathered first — a [Tc_restart] strips images logged
     before it, so replay must know about it ahead of reaching them. *)
  let fences = collect_fences t in
  Wal.iter_from t.dc_log Lsn.zero (fun dlsn record ->
      apply_smo t ~fences dlsn record);
  (* 3. Tables created after the last master write are only in the log;
     make sure every catalogued root exists even if never flushed. *)
  Hashtbl.iter
    (fun _ tbl -> ignore (ensure_page t (Btree.root tbl.tree) ~kind:Page.Leaf))
    t.tables;
  apply_fence_gate t;
  if t.cfg.debug_checks then
    match check t with
    | Ok () -> ()
    | Error msg ->
      failwith ("Dc.recover: ill-formed index after replay: " ^ msg)

let recover t = Cache.with_operation_latch t.cache (fun () -> recover_unlatched t)

(* ------------------------------------------------------------------ *)
(* Control interface                                                   *)

let apply_eosl t tc eosl =
  t.eosl <- Tc_id.Map.add tc (Lsn.max eosl (eosl_of t tc)) t.eosl

(* O(1): page states catch up with the new generation when next read
   ({!state_of}).  The map only grows here, so a late catch-up folds in
   exactly what applying the mark to every state now would. *)
let apply_lwm t tc lwm =
  t.lwm <- Tc_id.Map.add tc (Lsn.max lwm (lwm_of t tc)) t.lwm;
  t.lwm_gen <- t.lwm_gen + 1

let control t (ctl : Wire.control) =
  match ctl with
  | Wire.Watermarks { tc; eosl; lwm } ->
    apply_eosl t tc eosl;
    apply_lwm t tc lwm;
    Wal.force t.dc_log;
    Cache.enforce_capacity t.cache;
    Wire.Ack
  | Wire.End_of_stable_log { tc; eosl } ->
    apply_eosl t tc eosl;
    (* pages pinned by causality may have become flushable; forcing the
       DC-log first releases pages whose structure modifications were
       still volatile *)
    Wal.force t.dc_log;
    Cache.enforce_capacity t.cache;
    Wire.Ack
  | Wire.Low_water_mark { tc; lwm } ->
    apply_lwm t tc lwm;
    Wal.force t.dc_log;
    Cache.enforce_capacity t.cache;
    Wire.Ack
  | Wire.Checkpoint { tc; new_rssp } ->
    flush_all t;
    Fault.hit p_checkpoint_mid;
    let granted =
      List.for_all
        (fun pid ->
          match Page_id.Tbl.find_opt t.states pid with
          | None -> true
          | Some st -> (
            match pending_lo st tc with
            | None -> true
            | Some m -> Lsn.(m >= new_rssp)))
        (Cache.dirty_pages t.cache)
    in
    if granted then begin
      (* Contract terminated below the new RSSP: memoized results for
         those operations can never be legitimately resent. *)
      Hashtbl.iter
        (fun (mtc, mlsn) _ ->
          if mtc = Tc_id.to_int tc && Lsn.(of_int mlsn < new_rssp) then
            Hashtbl.remove t.memo (mtc, mlsn))
        (Hashtbl.copy t.memo);
      ignore (self_checkpoint t)
    end;
    Wire.Checkpoint_done { granted }
  | Wire.Redo_fence_begin _ ->
    enter_fence t;
    Wire.Ack
  | Wire.Redo_fence_end _ ->
    exit_fence t;
    Wire.Ack
  | Wire.Restart_begin { tc; stable_lsn } ->
    enter_fence t;
    (* The failed TC's watermarks are void: its old low-water mark may
       cover operations that were just reset (or lost with the log tail)
       and must not absorb the coming redo.  The end-of-stable-log is
       exactly the stable LSN it reported.  This is the one place an LWM
       goes down, so every page state first catches up with the old map:
       what the mark already vouched for on a page stays vouched for, as
       if each mark had been applied to every state on arrival. *)
    Page_id.Tbl.iter (fun _ st -> sync t st) t.states;
    t.lwm <- Tc_id.Map.remove tc t.lwm;
    t.lwm_gen <- t.lwm_gen + 1;
    t.eosl <- Tc_id.Map.add tc stable_lsn t.eosl;
    (* Turn the partial failure into a complete one.  The DC-log's page
       images may bake in operations beyond the failed TC's stable log;
       the fence logged here makes replay subtract them — now and in
       every later recovery, after this restart is long forgotten. *)
    let complete_restart () =
      t.escalated <- true;
      (* This restart is driven *by* a control message, not by this DC's
         own process dying: the control sessions (this one included —
         we are mid-application of its current seq) must survive, or
         every TC's later control frames would be seen as unfillable
         gaps.  TCs that must redo learn of the escalation through
         [take_escalation] and open fresh epochs then. *)
      let sessions =
        Hashtbl.fold (fun k s acc -> (k, s) :: acc) t.ctl_sessions []
      in
      crash t;
      List.iter (fun (k, s) -> Hashtbl.replace t.ctl_sessions k s) sessions;
      ignore (Wal.append t.dc_log (Smo_record.Tc_restart { tc; stable_lsn }));
      Wal.force t.dc_log;
      recover_unlatched t
    in
    (match t.cfg.tc_reset_mode with
    | Selective -> (
      try Cache.with_operation_latch t.cache (fun () -> reset_for_tc t ~tc ~stable_lsn)
      with Tainted_reset ->
        (* A lost operation is baked into a recoverable image of some
           page: selective reset cannot subtract it in place.  Escalate
           to a complete DC recovery that strips the failed TC's
           unstable effects during image replay. *)
        Instrument.bump t.counters "dc.reset_escalations";
        complete_restart ())
    | Complete -> complete_restart ());
    Wire.Ack
  | Wire.Restart_end _ ->
    exit_fence t;
    Wire.Ack

(* ------------------------------------------------------------------ *)
(* Transport endpoints: the DC side of the serialized message plane    *)

(* An undecodable frame is dropped like a lost message: no reply, and
   the TC's resend carries it.  (The transport's checksum gate already
   rejects corruption; this guards against version or framing bugs.)

   [expect] is the link's owning TC: a deployment wires one transport
   per (TC, DC) pair, so a frame stamped with another TC's id on this
   link is a wiring bug — applying it would charge one TC's operation
   to another TC's idempotence state.  Like a misrouted partition id,
   it is refused loudly (Failed reply, counted) instead of applied. *)
let handle_request_frame ?expect t frame =
  match Wire.Verified.decode_request frame with
  | exception Invalid_argument _ ->
    Instrument.bump t.counters "dc.bad_frames";
    None
  | req
    when match expect with
         | Some tc -> not (Tc_id.equal req.Wire.tc tc)
         | None -> false ->
    Instrument.bump t.counters "dc.misattributed";
    let tid = if Trace.enabled () then Wire.Verified.tid frame else 0 in
    Some
      (Wire.encode_reply ~tid
         {
           Wire.tc = req.Wire.tc;
           lsn = req.Wire.lsn;
           result =
             Wire.Failed
               (Format.asprintf "misattributed: request from %a on %a's link"
                  Tc_id.pp req.Wire.tc Tc_id.pp (Option.get expect));
           prior = None;
         })
  | req ->
    let tid = if Trace.enabled () then Wire.Verified.tid frame else 0 in
    let t0 = Metrics.start t.counters in
    (* The idempotence table absorbs duplicates inside [perform]; the
       counter delta distinguishes a real apply from an absorbed one
       without threading the trace id through the write path. *)
    let dup_before = t.dup_absorbed in
    let reply = perform t req in
    Metrics.stop t.counters "dc.apply_ns" t0;
    Metrics.stop t.counters t.h_apply_part t0;
    if tid <> 0 then
      Trace.record ~tid ~comp:"dc"
        ~ev:(if t.dup_absorbed > dup_before then "skip" else "apply")
        [
          ("part", string_of_int t.part);
          ("lsn", Lsn.to_string req.Wire.lsn);
        ];
    Some (Wire.encode_reply ~tid reply)

let session t tc =
  let key = Tc_id.to_int tc in
  match Hashtbl.find_opt t.ctl_sessions key with
  | Some s -> s
  | None ->
    let s = Session.Receiver.create () in
    Hashtbl.add t.ctl_sessions key s;
    s

let handle_control_frame ?expect t frame =
  match Wire.Verified.decode_control frame with
  | exception Invalid_argument _ ->
    Instrument.bump t.counters "dc.bad_frames";
    None
  | m
    when match expect with
         | Some tc -> not (Tc_id.equal (Wire.control_tc m.Wire.c_ctl) tc)
         | None -> false ->
    (* A control frame speaking for another TC on this link: touching
       the named TC's session from here would let a wiring bug advance
       or stall a session its owner never sees.  Dropped (counted); the
       real sender's resend budget turns the silence into a loud
       timeout. *)
    Instrument.bump t.counters "dc.misattributed";
    None
  | m ->
    let tc = Wire.control_tc m.Wire.c_ctl in
    let s = session t tc in
    let reply seq r =
      Some
        (Wire.encode_control_reply
           { Wire.r_tc = tc; r_epoch = Session.Receiver.epoch s; r_seq = seq;
             r_reply = r })
    in
    (* [control] may run a complete restart mid-apply; the session
       record survives it (see [complete_restart]), so the receiver's
       bookkeeping lands on live state.  Duplicates are never re-applied
       — control messages are not all idempotent (a second Restart_begin
       would re-enter the fence). *)
    let apply _seq ctl = control t ctl in
    (match
       Session.Receiver.handle s ~epoch:m.Wire.c_epoch ~seq:m.Wire.c_seq
         m.Wire.c_ctl ~apply ~fallback:Wire.Ack
     with
    | Session.Receiver.Stale ->
      (* A straggler from a dead session: silently dropped — nothing on
         the TC side awaits it (the new epoch voided its pending). *)
      Instrument.bump t.counters "dc.control_stale_epoch";
      None
    | Session.Receiver.Replayed r ->
      Instrument.bump t.counters "dc.control_dups_absorbed";
      reply m.Wire.c_seq r
    | Session.Receiver.Buffered ->
      (* Ahead of its turn: parked until the TC's resend fills the gap.
         No reply — the sender's backoff keeps the buffered frame's own
         resend alive until it is applied. *)
      Instrument.bump t.counters "dc.control_buffered";
      None
    | Session.Receiver.Applied r -> reply m.Wire.c_seq r)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let dump_table t name =
  match find_table t name with
  | None -> []
  | Some tbl ->
    let acc = ref [] in
    Btree.scan tbl.tree ~from:"" (fun k d ->
        acc := (k, decode_cell d) :: !acc;
        `Continue);
    List.rev !acc

let table_root t name = Btree.root (Hashtbl.find t.tables name).tree

let table_pages t name = Btree.all_pages (Hashtbl.find t.tables name).tree

let cache t = t.cache

let disk t = t.disk

let dc_log_records t = Wal.stable_count t.dc_log + Wal.volatile_count t.dc_log

let dc_log_bytes t = Wal.appended_bytes t.dc_log

let splits t = t.total_splits

let consolidations t = t.total_consolidations

let dup_absorbed t = t.dup_absorbed

let pages_dropped t = t.pages_dropped

let records_reset t = t.records_reset

(* Proactive contract termination (Section 4.2.1: the DC "could
   spontaneously inform TC that the RSSP can advance to be after a given
   LSN"): the largest LSN such that no dirty page holds an unflushed
   operation of this TC below it. *)
let suggested_rssp t ~tc =
  List.fold_left
    (fun acc pid ->
      match Page_id.Tbl.find_opt t.states pid with
      | None -> acc
      | Some st -> (
        match pending_lo st tc with
        | None -> acc
        | Some m -> Lsn.min acc m))
    (Lsn.next (eosl_of t tc))
    (Cache.dirty_pages t.cache)

let take_escalation t =
  let e = t.escalated in
  t.escalated <- false;
  e

(* Reads the state as of the current LWM map without storing the
   catch-up, so a test observing every page cannot mask a state that
   missed one. *)
let page_meta_of t pid =
  let st =
    match Page_id.Tbl.find_opt t.states pid with
    | Some st -> Some st
    | None -> Option.map (find_state t) (Cache.lookup t.cache pid)
  in
  match st with
  | Some st -> { Page_meta.dlsn = st.dlsn; ablsns = current_ablsns t st }
  | None -> Page_meta.empty
