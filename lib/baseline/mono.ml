module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Codec = Untx_util.Codec
module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Disk = Untx_storage.Disk
module Cache = Untx_storage.Cache
module Wal = Untx_wal.Wal
module Btree = Untx_btree.Btree
module Lock_mgr = Untx_tc.Lock_mgr

type config = {
  page_capacity : int;
  cache_pages : int;
  cc_protocol : Untx_tc.Tc.cc_protocol;
  debug_checks : bool;
}

let default_config =
  {
    page_capacity = 512;
    cache_pages = 256;
    cc_protocol = Untx_tc.Tc.Key_locks;
    debug_checks = false;
  }

(* One log for everything, physiological where it matters: record
   operations carry old and new value (location is re-derived through the
   access method, whose own structure modifications are logged physically
   in the same LSN order). *)
type page_image = {
  pid : Page_id.t;
  kind : Page.kind;
  cells : (string * string) list;
  next : Page_id.t option;
  plsn : Lsn.t;
}

type log_rec =
  | Begin of { xid : int }
  | Write of {
      xid : int;
      table : string;
      key : string;
      pid : Page_id.t; (* page holding the record after the operation *)
      old_v : string option;
      new_v : string option;
    }
  | Clr of {
      xid : int;
      table : string;
      key : string;
      pid : Page_id.t;
      value : string option;
    }
  | Commit of { xid : int }
  | Abort of { xid : int }
  | Finished of { xid : int }
  | Smo_split of {
      table : string;
      old_pid : Page_id.t;
      sep_key : string;
      new_image : page_image;
      parent_pid : Page_id.t;
      new_root : page_image option;
      root : Page_id.t;
    }
  | Smo_consolidate of {
      table : string;
      survivor_image : page_image;
      freed_pid : Page_id.t;
      parent_pid : Page_id.t;
      removed_sep : string;
      new_root : Page_id.t option;
      root : Page_id.t;
    }
  | Ckpt of { rssp : Lsn.t }

let image_size img =
  List.fold_left
    (fun acc (k, d) -> acc + String.length k + String.length d + 4)
    16 img.cells

let rec_size = function
  | Begin _ | Commit _ | Abort _ | Finished _ -> 12
  | Write { table; key; old_v; new_v; _ } ->
    16 + String.length table + String.length key
    + (match old_v with Some v -> String.length v | None -> 0)
    + (match new_v with Some v -> String.length v | None -> 0)
  | Clr { table; key; value; _ } ->
    16 + String.length table + String.length key
    + (match value with Some v -> String.length v | None -> 0)
  | Smo_split { new_image; new_root; _ } ->
    32 + image_size new_image
    + (match new_root with Some i -> image_size i | None -> 0)
  | Smo_consolidate { survivor_image; _ } -> 32 + image_size survivor_image
  | Ckpt _ -> 16

type table = { t_name : string; tree : Btree.t }

type txn_state = Active | Committed | Aborted

type txn = {
  t_xid : int;
  mutable state : txn_state;
  mutable first_lsn : Lsn.t;
  mutable undo : (string * string * string option) list;
      (* (table, key, value to restore) newest first *)
}

type t = {
  cfg : config;
  counters : Instrument.t;
  disk : Disk.t;
  cache : Cache.t;
  log : log_rec Wal.t;
  tables : (string, table) Hashtbl.t;
  plsns : Lsn.t Page_id.Tbl.t;
  txns : (int, txn) Hashtbl.t;
  mutable locks : Lock_mgr.t;
  wakeups : int Queue.t;
  mutable rssp : Lsn.t;
  mutable next_xid : int;
  current_table : string ref;
  mutable in_recovery : bool;
}

type 'a outcome = [ `Ok of 'a | `Blocked | `Fail of string ]

(* ------------------------------------------------------------------ *)
(* Page LSNs                                                           *)

let plsn_of_page t page =
  match Page_id.Tbl.find_opt t.plsns (Page.id page) with
  | Some l -> l
  | None ->
    let l =
      match Page.meta page with
      | "" -> Lsn.zero
      | m -> Lsn.of_int (Codec.of_varint m)
    in
    Page_id.Tbl.replace t.plsns (Page.id page) l;
    l

let stamp t page lsn =
  Page_id.Tbl.replace t.plsns (Page.id page) lsn;
  Cache.mark_dirty t.cache page

(* ------------------------------------------------------------------ *)
(* SMO hooks: same-log physical logging, classical LSN stamping        *)

let image_of t page =
  {
    pid = Page.id page;
    kind = Page.kind page;
    cells = Page.cells page;
    next = Page.next page;
    plsn = plsn_of_page t page;
  }

let on_split t (ev : Btree.split_event) =
  let table = !(t.current_table) in
  let tbl = Hashtbl.find t.tables table in
  let record =
    Smo_split
      {
        table;
        old_pid = Page.id ev.old_page;
        sep_key = ev.sep_key;
        new_image = image_of t ev.new_page;
        parent_pid = Page.id ev.parent;
        new_root =
          (if ev.new_root then Some (image_of t ev.parent) else None);
        root = Btree.root tbl.tree;
      }
  in
  let lsn = Wal.append t.log record in
  stamp t ev.old_page lsn;
  stamp t ev.new_page lsn;
  stamp t ev.parent lsn;
  Instrument.bump t.counters "mono.smo_splits"

let on_consolidate t (ev : Btree.consolidate_event) =
  let table = !(t.current_table) in
  let tbl = Hashtbl.find t.tables table in
  let record =
    Smo_consolidate
      {
        table;
        survivor_image = image_of t ev.survivor;
        freed_pid = Page.id ev.freed_page;
        parent_pid = Page.id ev.parent;
        removed_sep = ev.removed_sep;
        new_root = ev.root_collapsed_to;
        root = Btree.root tbl.tree;
      }
  in
  let lsn = Wal.append t.log record in
  (* The victim's stable image is freed right after this hook. *)
  Wal.force t.log;
  stamp t ev.survivor lsn;
  stamp t ev.parent lsn;
  Page_id.Tbl.remove t.plsns (Page.id ev.freed_page);
  Instrument.bump t.counters "mono.smo_consolidations"

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
      disk;
      cache;
      log = Wal.create ~counters ~size:rec_size ();
      tables = Hashtbl.create 8;
      plsns = Page_id.Tbl.create 256;
      txns = Hashtbl.create 64;
      locks = Lock_mgr.create ();
      wakeups = Queue.create ();
      rssp = Lsn.next Lsn.zero;
      next_xid = 1;
      current_table = ref "";
      in_recovery = false;
    }
  in
  Cache.set_policy cache
    ~can_flush:(fun page -> Lsn.(plsn_of_page t page <= Wal.stable_lsn t.log))
    ~prepare_flush:(fun page ->
      Page.set_meta page (Codec.varint (Lsn.to_int (plsn_of_page t page))));
  t

(* The table count, then per table its name and its root page id (the
   layout in mono.mli). *)
let encode_master tables =
  let b =
    Bytes.create
      (List.fold_left
         (fun acc (name, root) ->
           acc + Codec.string_length name
           + Codec.varint_length (Page_id.to_int root))
         (Codec.varint_length (List.length tables))
         tables)
  in
  let pos = Codec.write_varint (List.length tables) b 0 in
  ignore
    (List.fold_left
       (fun pos (name, root) ->
         Codec.write_varint (Page_id.to_int root) b
           (Codec.write_string name b pos))
       pos tables);
  Bytes.unsafe_to_string b

let decode_master =
  Codec.read_all (fun r ->
      List.init (Codec.next_varint r) (fun _ ->
          let name = Codec.next_string r in
          (name, Page_id.of_int (Codec.next_varint r))))

let write_master t =
  Disk.set_master t.disk
    (encode_master
       (Hashtbl.fold
          (fun _ tbl acc -> (tbl.t_name, Btree.root tbl.tree) :: acc)
          t.tables []))

let create_table t ~name =
  if not (Hashtbl.mem t.tables name) then begin
    t.current_table := name;
    let tree =
      Btree.create ~cache:t.cache ~page_capacity:t.cfg.page_capacity
        ~hooks:(hooks_for t)
    in
    Hashtbl.add t.tables name { t_name = name; tree };
    Wal.force t.log;
    write_master t
  end

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let xid txn = txn.t_xid

let is_active txn = txn.state = Active

let begin_txn t =
  let x = t.next_xid in
  t.next_xid <- x + 1;
  let txn = { t_xid = x; state = Active; first_lsn = Lsn.zero; undo = [] } in
  txn.first_lsn <- Wal.append t.log (Begin { xid = x });
  Hashtbl.replace t.txns x txn;
  txn

let release_locks t txn =
  List.iter
    (fun owner -> Queue.add owner t.wakeups)
    (Lock_mgr.release_all t.locks ~owner:txn.t_xid)

let wakeups t =
  let out = ref [] in
  Queue.iter (fun x -> out := x :: !out) t.wakeups;
  Queue.clear t.wakeups;
  List.rev !out

let rsrc_for t table key =
  match t.cfg.cc_protocol with
  | Untx_tc.Tc.Key_locks | Untx_tc.Tc.Optimistic ->
    (* the integrated baseline has no optimistic mode; treat as key locks *)
    Lock_mgr.Record { table; key }
  | Untx_tc.Tc.Range_locks n ->
    let b0 = if String.length key > 0 then Char.code key.[0] else 0 in
    let b1 = if String.length key > 1 then Char.code key.[1] else 0 in
    Lock_mgr.Range { table; slot = ((b0 * 256) + b1) * n / 65536 }
  | Untx_tc.Tc.Table_locks -> Lock_mgr.Table table

let find_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl ->
    t.current_table := name;
    tbl
  | None -> invalid_arg ("Mono: unknown table " ^ name)

(* Forward-processing mutation: mutate first (SMOs log themselves), then
   log the operation physiologically (with its page id) and stamp the
   final page. *)
let mutate_and_log t txn tbl ~table ~key ~old_v ~new_v =
  (match new_v with
  | Some v -> Btree.set tbl.tree ~key ~data:v
  | None -> ignore (Btree.remove tbl.tree key));
  let leaf = Btree.find_leaf tbl.tree key in
  let lsn =
    Wal.append t.log
      (Write { xid = txn.t_xid; table; key; pid = Page.id leaf; old_v; new_v })
  in
  txn.undo <- (table, key, old_v) :: txn.undo;
  stamp t leaf lsn;
  Instrument.bump t.counters "mono.writes"

let read t txn ~table ~key =
  if txn.state <> Active then `Fail "transaction not active"
  else
    let tbl = find_table t table in
    match Lock_mgr.acquire t.locks ~owner:txn.t_xid (rsrc_for t table key) Lock_mgr.S with
    | `Blocked -> `Blocked
    | `Granted ->
      Instrument.bump t.counters "mono.reads";
      `Ok (Btree.find tbl.tree key)

let write t txn ~table ~key ~(mutate : string option -> (string option, string) result) =
  if txn.state <> Active then `Fail "transaction not active"
  else
    Cache.with_operation_latch t.cache @@ fun () ->
    let tbl = find_table t table in
    match Lock_mgr.acquire t.locks ~owner:txn.t_xid (rsrc_for t table key) Lock_mgr.X with
    | `Blocked -> `Blocked
    | `Granted -> (
      let old_v = Btree.find tbl.tree key in
      match mutate old_v with
      | Error msg -> `Fail msg
      | Ok new_v ->
        mutate_and_log t txn tbl ~table ~key ~old_v ~new_v;
        `Ok ())

let insert t txn ~table ~key ~value =
  write t txn ~table ~key ~mutate:(function
    | Some _ -> Error "duplicate key"
    | None -> Ok (Some value))

let update t txn ~table ~key ~value =
  write t txn ~table ~key ~mutate:(function
    | Some _ -> Ok (Some value)
    | None -> Error "no such key")

let delete t txn ~table ~key =
  if txn.state <> Active then `Fail "transaction not active"
  else
    Cache.with_operation_latch t.cache @@ fun () ->
    let tbl = find_table t table in
    match Lock_mgr.acquire t.locks ~owner:txn.t_xid (rsrc_for t table key) Lock_mgr.X with
    | `Blocked -> `Blocked
    | `Granted ->
      (match Btree.find tbl.tree key with
      | None -> ()
      | Some old ->
        mutate_and_log t txn tbl ~table ~key ~old_v:(Some old) ~new_v:None);
      `Ok ()

(* Integrated scan: the engine walks its own pages, taking key locks as
   it encounters records — no probe round-trips needed (the key-range
   locking advantage of Section 3.1's "existing systems" paragraph). *)
let scan t txn ~table ~from_key ~limit =
  if txn.state <> Active then `Fail "transaction not active"
  else begin
    let tbl = find_table t table in
    let results = ref [] in
    let taken = ref 0 in
    let blocked = ref false in
    Btree.scan tbl.tree ~from:from_key (fun k v ->
        if !taken >= limit then `Stop
        else
          match
            Lock_mgr.acquire t.locks ~owner:txn.t_xid (rsrc_for t table k)
              Lock_mgr.S
          with
          | `Blocked ->
            blocked := true;
            `Stop
          | `Granted ->
            results := (k, v) :: !results;
            incr taken;
            `Continue);
    if !blocked then `Blocked else `Ok (List.rev !results)
  end

let commit t txn =
  if txn.state <> Active then `Fail "transaction not active"
  else begin
    ignore (Wal.append t.log (Commit { xid = txn.t_xid }));
    Wal.force t.log;
    ignore (Wal.append t.log (Finished { xid = txn.t_xid }));
    release_locks t txn;
    txn.state <- Committed;
    Instrument.bump t.counters "mono.commits";
    `Ok ()
  end

let clr_and_apply t ~xid ~table ~key ~value =
  Cache.with_operation_latch t.cache @@ fun () ->
  let tbl = find_table t table in
  (match value with
  | Some v -> Btree.set tbl.tree ~key ~data:v
  | None -> ignore (Btree.remove tbl.tree key));
  let leaf = Btree.find_leaf tbl.tree key in
  let lsn = Wal.append t.log (Clr { xid; table; key; pid = Page.id leaf; value }) in
  stamp t leaf lsn

let rollback t txn =
  List.iter
    (fun (table, key, value) ->
      clr_and_apply t ~xid:txn.t_xid ~table ~key ~value)
    txn.undo

let abort t txn ~reason =
  ignore reason;
  if txn.state = Active then begin
    Lock_mgr.cancel_waits t.locks ~owner:txn.t_xid;
    ignore (Wal.append t.log (Abort { xid = txn.t_xid }));
    rollback t txn;
    ignore (Wal.append t.log (Finished { xid = txn.t_xid }));
    release_locks t txn;
    txn.state <- Aborted;
    Instrument.bump t.counters "mono.aborts"
  end

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
(* Checkpoint                                                          *)

let force_log t = Wal.force t.log

let checkpoint t =
  Wal.force t.log;
  Cache.flush_all t.cache;
  if Cache.dirty_pages t.cache = [] then begin
    let target = Wal.stable_lsn t.log in
    t.rssp <- target;
    ignore (Wal.append t.log (Ckpt { rssp = target }));
    Wal.force t.log;
    write_master t;
    let oldest_active =
      Hashtbl.fold
        (fun _ txn acc ->
          if txn.state = Active then Lsn.min acc txn.first_lsn else acc)
        t.txns target
    in
    Wal.truncate t.log (Lsn.min target oldest_active);
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Crash / recovery: everything dies together                          *)

let crash t =
  Wal.crash t.log;
  Cache.crash t.cache;
  Page_id.Tbl.reset t.plsns;
  Hashtbl.reset t.txns;
  t.locks <- Lock_mgr.create ();
  Queue.clear t.wakeups

let read_master t =
  match Disk.master t.disk with None -> [] | Some blob -> decode_master blob

let ensure_page t pid ~kind =
  match Cache.lookup t.cache pid with
  | Some page -> page
  | None ->
    let page = Page.create ~id:pid ~kind ~capacity:t.cfg.page_capacity in
    Cache.install t.cache page;
    page

let install_image t (img : page_image) lsn =
  let newer =
    match Cache.lookup t.cache img.pid with
    | None -> false
    | Some page -> Lsn.(plsn_of_page t page >= lsn)
  in
  if not newer then begin
    let page =
      Page.create ~id:img.pid ~kind:img.kind ~capacity:t.cfg.page_capacity
    in
    Page.replace_cells page img.cells;
    Page.set_next page img.next;
    Cache.install t.cache page;
    stamp t page lsn
  end

let redo t lsn record =
  match record with
  | Write { key; pid; new_v; _ } | Clr { key; pid; value = new_v; _ } ->
    (* Physiological redo: straight to the page named by the record; the
       page-LSN test is sound because in an integrated engine the LSN was
       assigned inside the page's critical section. *)
    let page = ensure_page t pid ~kind:Page.Leaf in
    if Lsn.(plsn_of_page t page < lsn) then begin
      (match new_v with
      | Some v -> Page.set page ~key ~data:v
      | None -> ignore (Page.remove page key));
      stamp t page lsn
    end
  | Smo_split { table; old_pid; sep_key; new_image; parent_pid; new_root;
                root } -> (
    match Hashtbl.find_opt t.tables table with
    | None -> ()
    | Some tbl ->
      let old_page =
        ensure_page t old_pid
          ~kind:(match new_image.kind with k -> k)
      in
      if Lsn.(plsn_of_page t old_page < lsn) then begin
        let doomed =
          List.filter_map
            (fun (k, _) ->
              if String.compare k sep_key >= 0 then Some k else None)
            (Page.cells old_page)
        in
        List.iter (fun k -> ignore (Page.remove old_page k)) doomed;
        if Page.kind old_page = Page.Leaf then
          Page.set_next old_page (Some new_image.pid);
        stamp t old_page lsn
      end;
      install_image t new_image lsn;
      (match new_root with
      | Some root_img -> install_image t root_img lsn
      | None ->
        let parent = ensure_page t parent_pid ~kind:Page.Inner in
        if Lsn.(plsn_of_page t parent < lsn) then begin
          Page.set parent ~key:sep_key ~data:(Btree.child_data new_image.pid);
          stamp t parent lsn
        end);
      Btree.set_root tbl.tree root)
  | Smo_consolidate { table; survivor_image; freed_pid; parent_pid;
                      removed_sep; new_root; root } -> (
    match Hashtbl.find_opt t.tables table with
    | None -> ()
    | Some tbl ->
      install_image t survivor_image lsn;
      Cache.free_page t.cache freed_pid;
      Page_id.Tbl.remove t.plsns freed_pid;
      (match new_root with
      | Some _ ->
        Cache.free_page t.cache parent_pid;
        Page_id.Tbl.remove t.plsns parent_pid
      | None ->
        let parent = ensure_page t parent_pid ~kind:Page.Inner in
        if Lsn.(plsn_of_page t parent < lsn) then begin
          ignore (Page.remove parent removed_sep);
          stamp t parent lsn
        end);
      Btree.set_root tbl.tree root)
  | Begin _ | Commit _ | Abort _ | Finished _ | Ckpt _ -> ()

let recover t =
  Cache.with_operation_latch t.cache @@ fun () ->
  t.in_recovery <- true;
  (* Catalog. *)
  Hashtbl.reset t.tables;
  List.iter
    (fun (name, root) ->
      let tree =
        Btree.attach ~cache:t.cache ~page_capacity:t.cfg.page_capacity
          ~hooks:(hooks_for t) ~root
      in
      Hashtbl.add t.tables name { t_name = name; tree })
    (read_master t);
  Hashtbl.iter
    (fun _ tbl -> ignore (ensure_page t (Btree.root tbl.tree) ~kind:Page.Leaf))
    t.tables;
  (* Analysis. *)
  let losers : (int, (string * string * string option) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let rssp = ref t.rssp in
  Wal.iter_from t.log Lsn.zero (fun _ record ->
      match record with
      | Begin { xid } -> Hashtbl.replace losers xid []
      | Write { xid; table; key; old_v; _ } -> (
        match Hashtbl.find_opt losers xid with
        | Some undo -> Hashtbl.replace losers xid ((table, key, old_v) :: undo)
        | None -> Hashtbl.replace losers xid [ (table, key, old_v) ])
      (* A stable Commit decides the transaction even if its Finished
         record was lost with the log tail. *)
      | Commit { xid } | Finished { xid } -> Hashtbl.remove losers xid
      | Ckpt { rssp = r } -> rssp := Lsn.max !rssp r
      | Abort _ | Clr _ | Smo_split _ | Smo_consolidate _ -> ());
  t.rssp <- !rssp;
  Hashtbl.iter (fun x _ -> if x >= t.next_xid then t.next_xid <- x + 1) losers;
  (* Redo: repeat history in original order, one log. *)
  Wal.iter_from t.log t.rssp (fun lsn record -> redo t lsn record);
  (* Undo losers with CLRs. *)
  Hashtbl.iter
    (fun x undo ->
      List.iter
        (fun (table, key, value) -> clr_and_apply t ~xid:x ~table ~key ~value)
        undo;
      ignore (Wal.append t.log (Finished { xid = x })))
    losers;
  Wal.force t.log;
  t.in_recovery <- false;
  if t.cfg.debug_checks then
    Hashtbl.iter
      (fun name tbl ->
        match Btree.check tbl.tree with
        | Ok () -> ()
        | Error msg -> failwith ("Mono.recover: " ^ name ^ ": " ^ msg))
      t.tables

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

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

let dump_table t name =
  let tbl = find_table t name in
  let acc = ref [] in
  Btree.scan tbl.tree ~from:"" (fun k v ->
      acc := (k, v) :: !acc;
      `Continue);
  List.rev !acc

let log_bytes t = Wal.appended_bytes t.log

let log_forces t = Wal.forces t.log

let lock_acquisitions t = Lock_mgr.total_acquisitions t.locks
