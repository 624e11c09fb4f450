module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault
module Op = Untx_msg.Op
module Stored_record = Untx_dc.Stored_record

(* The layered log store.  Shipped stable redo is replayed through the
   DC's record semantics at ingest time, so every entry is a
   *materialized* record state — reconstruction at an LSN is one lookup
   (newest entry at or below it), not a patch chain.  Append-ordered L0
   runs hold the fresh tail; compaction merges sealed runs into sorted,
   deduplicated L1 layers with contiguous LSN ranges, which is the
   durable half: a crash loses L0 and the store re-absorbs the
   un-compacted suffix from the retained log. *)

(* A crash between the merge and the install must lose the whole
   compaction (sealed runs kept, partial layer discarded). *)
let p_compact_mid = Fault.declare "layer.compact.mid"

(* A record transiently dropped on ingest must pin the cursor: claiming
   it absorbed would leave a silent hole under every later read. *)
let p_ingest_drop = Fault.declare "layer.ingest.drop"

exception Beyond_ingested of { wanted : Lsn.t; ingested : Lsn.t }

exception History_truncated of { wanted : Lsn.t; history_from : Lsn.t }

let () =
  Printexc.register_printer (function
    | Beyond_ingested { wanted; ingested } ->
      Some
        (Printf.sprintf
           "Layer.Beyond_ingested { wanted = %s; ingested = %s }"
           (Lsn.to_string wanted) (Lsn.to_string ingested))
    | History_truncated { wanted; history_from } ->
      Some
        (Printf.sprintf
           "Layer.History_truncated { wanted = %s; history_from = %s }"
           (Lsn.to_string wanted) (Lsn.to_string history_from))
    | _ -> None)

type entry = {
  e_tk : string * string; (* (table, key) *)
  e_lsn : Lsn.t;
  e_rec : Stored_record.t option; (* state after the op; None = absent *)
  e_op : Op.t; (* the producing operation, for layer-sourced redo *)
}

type run = {
  mutable u_entries : entry list; (* newest first *)
  mutable u_count : int;
}

type layer = {
  y_lo : Lsn.t; (* covered LSN range, inclusive; contiguous across layers *)
  y_hi : Lsn.t;
  y_entries : entry array; (* sorted by (table, key, lsn) *)
}

type t = {
  counters : Instrument.t;
  c_ingest_ops : int ref; (* "layer.ingest_ops", resolved once *)
  writer : Tc_id.t;
  versioned : string -> bool;
  l0_seal_ops : int;
  compact_runs : int;
  mutable active : run;
  mutable sealed : run list; (* newest first *)
  mutable layers : layer list; (* newest first *)
  cur : (string * string, Stored_record.t option) Hashtbl.t;
      (* materialized state at [ingested]; a None value is an explicit
         "absent" (unversioned delete), distinct from never-written *)
  mutable ingested : Lsn.t;
  mutable durable : Lsn.t;
  pins : (Lsn.t, int ref) Hashtbl.t;
      (* refcounted retention pins: {!truncate_history} never cuts
         above the lowest pinned LSN, so a live branch's fork point
         stays resolvable however often the parent rebases *)
  mutable history_from : Lsn.t;
      (* lowest [at] still answerable; reads below it raise
         {!History_truncated}.  Starts at zero (full history). *)
}

let fresh_run () = { u_entries = []; u_count = 0 }

let create ?(counters = Instrument.global) ?(l0_seal_ops = 128)
    ?(compact_runs = 4) ~writer ~versioned () =
  {
    counters;
    c_ingest_ops = Metrics.counter_cell counters "layer.ingest_ops";
    writer;
    versioned;
    l0_seal_ops;
    compact_runs;
    active = fresh_run ();
    sealed = [];
    layers = [];
    cur = Hashtbl.create 256;
    ingested = Lsn.zero;
    durable = Lsn.zero;
    pins = Hashtbl.create 4;
    history_from = Lsn.zero;
  }

let ingested_lsn t = t.ingested

let durable_lsn t = t.durable

let history_from t = t.history_from

let l0_runs t = List.length t.sealed + if t.active.u_count > 0 then 1 else 0

let l1_layers t = List.length t.layers

let l1_entries t =
  List.fold_left (fun acc y -> acc + Array.length y.y_entries) 0 t.layers

(* ------------------------------------------------------------------ *)
(* Ingest: replay through the DC's record semantics                    *)

let state_of t tk =
  match Hashtbl.find_opt t.cur tk with Some s -> s | None -> None

(* Mirror of the DC's mutation semantics (Dc.do_insert / do_update /
   do_delete / commit_version / abort_version), minus the pages: the
   materialized states must match what the primary's records hold, or
   bootstrap-installed replicas would fail the parity audit.  Returns
   the (key, new state) pairs the operation changed — failed or no-op
   operations change nothing and produce no entry. *)
let mutate t ~lsn op =
  let versioned table = t.versioned table in
  let one table key st = [ ((table, key), st) ] in
  match op with
  | Op.Read _ | Op.Scan _ | Op.Probe _ -> []
  | Op.Insert { table; key; value } -> (
    let prior = state_of t (table, key) in
    match prior with
    | Some r when Stored_record.current r <> None -> [] (* duplicate key *)
    | _ ->
      let record =
        if versioned table then
          let before =
            match prior with
            | Some r -> r.Stored_record.before (* insert over a tombstone *)
            | None -> Stored_record.Null_before
          in
          { Stored_record.value; deleted = false; before; writer = t.writer;
            wlsn = lsn }
        else Stored_record.plain ~writer:t.writer ~wlsn:lsn value
      in
      one table key (Some record))
  | Op.Update { table; key; value } -> (
    match state_of t (table, key) with
    | Some r when Stored_record.current r <> None ->
      let record =
        if versioned table then
          let before =
            match r.Stored_record.before with
            | Stored_record.Absent -> Stored_record.Value_before r.value
            | kept -> kept
          in
          { Stored_record.value; deleted = false; before; writer = t.writer;
            wlsn = lsn }
        else Stored_record.plain ~writer:t.writer ~wlsn:lsn value
      in
      one table key (Some record)
    | _ -> [] (* no such key *))
  | Op.Delete { table; key } -> (
    match state_of t (table, key) with
    | Some r when Stored_record.current r <> None ->
      if versioned table then
        let before =
          match r.Stored_record.before with
          | Stored_record.Absent -> Stored_record.Value_before r.value
          | kept -> kept
        in
        one table key
          (Some
             { Stored_record.value = r.value; deleted = true; before;
               writer = t.writer; wlsn = lsn })
      else one table key None
    | _ -> [] (* deleting an absent record is a no-op *))
  | Op.Commit_versions { table; keys } ->
    List.filter_map
      (fun key ->
        match state_of t (table, key) with
        | None -> None
        | Some r ->
          if r.Stored_record.deleted then Some ((table, key), None)
          else if r.before <> Stored_record.Absent then
            Some
              ( (table, key),
                Some { r with before = Stored_record.Absent; wlsn = lsn } )
          else None)
      keys
  | Op.Abort_versions { table; keys } ->
    List.filter_map
      (fun key ->
        match state_of t (table, key) with
        | None -> None
        | Some r -> (
          match r.Stored_record.before with
          | Stored_record.Absent -> None
          | Stored_record.Null_before -> Some ((table, key), None)
          | Stored_record.Value_before v ->
            Some
              ( (table, key),
                Some
                  {
                    Stored_record.value = v;
                    deleted = false;
                    before = Stored_record.Absent;
                    writer = r.writer;
                    wlsn = lsn;
                  } )))
      keys

let seal t =
  if t.active.u_count > 0 then begin
    t.sealed <- t.active :: t.sealed;
    t.active <- fresh_run ()
  end

let entry_compare a b =
  match compare a.e_tk b.e_tk with
  | 0 -> Lsn.compare a.e_lsn b.e_lsn
  | c -> c

let compact ?(all = false) t =
  if all then seal t;
  if t.sealed <> [] then begin
    let t0 = Metrics.start t.counters in
    let runs = List.rev t.sealed (* oldest first *) in
    let hi =
      List.fold_left
        (fun acc u ->
          match u.u_entries with
          | e :: _ -> Lsn.max acc e.e_lsn (* newest entry of the run *)
          | [] -> acc)
        t.durable runs
    in
    let merged =
      Array.of_list (List.concat_map (fun u -> List.rev u.u_entries) runs)
    in
    Array.sort entry_compare merged;
    (* A crash at this instant loses the merge wholesale: nothing is
       installed yet, the sealed runs are untouched, and [durable] has
       not moved — compaction is atomic or absent. *)
    Fault.hit p_compact_mid;
    (* Deduplicate identical (key, lsn) pairs, keeping the last. *)
    let deduped =
      let out = ref [] in
      Array.iteri
        (fun i e ->
          let last_of_pair =
            i + 1 >= Array.length merged
            || entry_compare e merged.(i + 1) <> 0
          in
          if last_of_pair then out := e :: !out)
        merged;
      Array.of_list (List.rev !out)
    in
    let layer = { y_lo = Lsn.next t.durable; y_hi = hi; y_entries = deduped } in
    t.layers <- layer :: t.layers;
    t.sealed <- [];
    t.durable <- hi;
    Instrument.bump t.counters "layer.compactions";
    Instrument.bump t.counters "layer.l1_layers";
    Metrics.stop t.counters "layer.compact_ns" t0;
    if Trace.enabled () then
      Trace.record ~tid:0 ~comp:"layer" ~ev:"compact"
        [
          ("runs", string_of_int (List.length runs));
          ("entries", string_of_int (Array.length deduped));
          ("durable", Lsn.to_string t.durable);
        ]
  end

let push_entry t e =
  t.active.u_entries <- e :: t.active.u_entries;
  t.active.u_count <- t.active.u_count + 1;
  if t.active.u_count >= t.l0_seal_ops then seal t

let absorb t ~upto feed =
  let hole = ref false in
  feed (fun lsn op ->
      if (not !hole) && Lsn.(t.ingested < lsn) && Lsn.(lsn <= upto) then begin
        match Fault.hit p_ingest_drop with
        | () ->
          List.iter
            (fun (tk, st) ->
              Hashtbl.replace t.cur tk st;
              push_entry t { e_tk = tk; e_lsn = lsn; e_rec = st; e_op = op })
            (mutate t ~lsn op);
          incr t.c_ingest_ops;
          t.ingested <- lsn
        | exception (Fault.Injected_crash _ | Fault.Io_error _) ->
          (* Transient drop: the cursor stays at the intact prefix and
             the rest of this feed is ignored (applying past a hole
             would corrupt the replay order); the next absorb re-reads
             the suffix from the log. *)
          Instrument.bump t.counters "layer.ingest_dropped";
          hole := true
      end);
  if (not !hole) && Lsn.(t.ingested < upto) then t.ingested <- upto;
  if List.length t.sealed >= t.compact_runs then compact t

(* ------------------------------------------------------------------ *)
(* Read path                                                           *)

let visible = function
  | None -> None
  | Some r -> Stored_record.current r

(* Greatest entry for [tk] with lsn <= [at]: binary search for the
   upper bound of (tk, at) in the (key, lsn)-sorted array. *)
let find_in_layer y tk at =
  let a = y.y_entries in
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let e = a.(mid) in
    let c = compare e.e_tk tk in
    if c < 0 || (c = 0 && Lsn.(e.e_lsn <= at)) then lo := mid + 1 else hi := mid
  done;
  if !lo > 0 && a.(!lo - 1).e_tk = tk then Some a.(!lo - 1) else None

let find_in_run u tk at =
  (* newest first, so the first match is the greatest lsn <= at *)
  List.find_opt (fun e -> e.e_tk = tk && Lsn.(e.e_lsn <= at)) u.u_entries

(* Newest entry for (table, key) at or below [at], shared by
   {!reconstruct} and {!lookup}.  Both raise the typed range errors:
   above the ingest watermark the store has not absorbed the history
   yet; below {!history_from} it deliberately dropped it. *)
let find_entry t ~table ~key ~at =
  if Lsn.(t.ingested < at) then
    raise (Beyond_ingested { wanted = at; ingested = t.ingested });
  if Lsn.(at < t.history_from) then
    raise (History_truncated { wanted = at; history_from = t.history_from });
  let tk = (table, key) in
  let probes = ref 0 in
  let probe_run u = incr probes; find_in_run u tk at in
  let rec l0 = function
    | [] -> None
    | u :: rest -> ( match probe_run u with Some e -> Some e | None -> l0 rest)
  in
  let rec l1 = function
    | [] -> None
    | y :: rest ->
      if Lsn.(at < y.y_lo) then l1 rest (* whole layer above the read point *)
      else begin
        incr probes;
        match find_in_layer y tk at with
        | Some e -> Some e
        | None -> l1 rest
      end
  in
  let entry =
    match l0 (t.active :: t.sealed) with Some e -> Some e | None -> l1 t.layers
  in
  Instrument.bump t.counters "layer.reconstruct_reads";
  Metrics.observe t.counters "layer.read_amp" !probes;
  entry

let reconstruct t ~table ~key ~at =
  match find_entry t ~table ~key ~at with
  | None -> None
  | Some e -> visible e.e_rec

let lookup t ~table ~key ~at =
  match find_entry t ~table ~key ~at with
  | None -> `Unwritten
  | Some e -> (
    match visible e.e_rec with Some v -> `Visible v | None -> `Gone)

let iter_current t f =
  Hashtbl.iter
    (fun (table, key) st ->
      match st with Some r -> f ~table ~key r | None -> ())
    t.cur

(* Fork-point iteration: [cur] holds the full key universe (a key once
   written stays, with an explicit None when currently absent), so
   reconstructing each member at [at] visits exactly the records visible
   there — the branch scan-materialization set. *)
let iter_at t ~at f =
  if Lsn.(t.ingested < at) then
    raise (Beyond_ingested { wanted = at; ingested = t.ingested });
  if Lsn.(at < t.history_from) then
    raise (History_truncated { wanted = at; history_from = t.history_from });
  Hashtbl.iter
    (fun (table, key) _ ->
      match reconstruct t ~table ~key ~at with
      | Some value -> f ~table ~key value
      | None -> ())
    t.cur

(* ------------------------------------------------------------------ *)
(* Retention pins + history truncation                                 *)

let pin t ~at =
  if Lsn.(t.ingested < at) then
    raise (Beyond_ingested { wanted = at; ingested = t.ingested });
  if Lsn.(at < t.history_from) then
    raise (History_truncated { wanted = at; history_from = t.history_from });
  (match Hashtbl.find_opt t.pins at with
  | Some r -> incr r
  | None -> Hashtbl.add t.pins at (ref 1));
  Instrument.bump t.counters "layer.pins"

let unpin t ~at =
  match Hashtbl.find_opt t.pins at with
  | Some r ->
    decr r;
    if !r <= 0 then Hashtbl.remove t.pins at;
    Instrument.bump t.counters "layer.unpins"
  | None ->
    invalid_arg
      (Printf.sprintf "Layer.unpin: no pin at %s" (Lsn.to_string at))

(* The lowest live pin, if any. *)
let pin_floor t =
  Hashtbl.fold
    (fun at _ acc ->
      match acc with None -> Some at | Some a -> Some (Lsn.min a at))
    t.pins None

let pin_count t = Hashtbl.fold (fun _ r acc -> acc + !r) t.pins 0

(* Rebase the store at [below]: every L1 layer wholly below the cut is
   folded into one snapshot layer holding each key's newest dropped
   entry (present or explicitly absent — the key universe and the
   written-then-deleted distinction both survive), and reads below the
   cut raise {!History_truncated} from then on.  The cut never passes
   the lowest retention pin (a live branch's fork point) nor the
   volatile L0 region, so everything a pinned reader can ask for stays
   answerable.  Returns the number of entries reclaimed. *)
let truncate_history t ~below =
  let cut =
    let c = match pin_floor t with Some p -> Lsn.min below p | None -> below in
    Lsn.min c (Lsn.next t.durable)
  in
  if Lsn.(cut <= t.history_from) then 0
  else begin
    let dropped, kept = List.partition (fun y -> Lsn.(y.y_hi < cut)) t.layers in
    let reclaimed =
      match dropped with
      | [] -> 0
      | _ ->
        let newest : (string * string, entry) Hashtbl.t = Hashtbl.create 64 in
        (* dropped is newest-first; walk oldest-first so later entries
           overwrite earlier ones *)
        List.iter
          (fun y ->
            Array.iter (fun e -> Hashtbl.replace newest e.e_tk e) y.y_entries)
          (List.rev dropped);
        let entries =
          Hashtbl.fold (fun _ e acc -> e :: acc) newest []
          |> List.sort entry_compare |> Array.of_list
        in
        let y_lo =
          List.fold_left
            (fun acc y -> Lsn.min acc y.y_lo)
            (List.hd dropped).y_lo dropped
        and y_hi =
          List.fold_left
            (fun acc y -> Lsn.max acc y.y_hi)
            (List.hd dropped).y_hi dropped
        in
        let before =
          List.fold_left (fun acc y -> acc + Array.length y.y_entries) 0 dropped
        in
        t.layers <- kept @ [ { y_lo; y_hi; y_entries = entries } ];
        before - Array.length entries
    in
    t.history_from <- cut;
    Instrument.bump t.counters "layer.history_truncations";
    Instrument.bump_by t.counters "layer.history_entries_reclaimed" reclaimed;
    if Trace.enabled () then
      Trace.record ~tid:0 ~comp:"layer" ~ev:"truncate_history"
        [
          ("cut", Lsn.to_string cut);
          ("reclaimed", string_of_int reclaimed);
        ];
    reclaimed
  end

let iter_ops t ~from ~upto f =
  if Lsn.(t.ingested < upto) then
    raise (Beyond_ingested { wanted = upto; ingested = t.ingested });
  if Lsn.(from < t.history_from) then
    raise (History_truncated { wanted = from; history_from = t.history_from });
  let collect acc e =
    if Lsn.(from <= e.e_lsn) && Lsn.(e.e_lsn <= upto) then e :: acc else acc
  in
  let acc =
    List.fold_left
      (fun acc y -> Array.fold_left collect acc y.y_entries)
      [] t.layers
  in
  let acc =
    List.fold_left
      (fun acc u -> List.fold_left collect acc u.u_entries)
      acc (t.active :: t.sealed)
  in
  let sorted =
    List.sort (fun a b -> Lsn.compare a.e_lsn b.e_lsn) acc
  in
  (* one emit per LSN: a multi-key operation produced one entry per key *)
  let last = ref Lsn.zero in
  List.iter
    (fun e ->
      if not (Lsn.equal e.e_lsn !last) then begin
        last := e.e_lsn;
        f e.e_lsn e.e_op
      end)
    sorted

(* ------------------------------------------------------------------ *)
(* Crash                                                               *)

let crash t =
  t.active <- fresh_run ();
  t.sealed <- [];
  Hashtbl.reset t.cur;
  (* Rebuild the materialized state at [durable] from L1 alone: layers
     newest first, and within a layer the reverse (key, lsn) order, so
     the first sighting of a key is its newest durable entry. *)
  List.iter
    (fun y ->
      for i = Array.length y.y_entries - 1 downto 0 do
        let e = y.y_entries.(i) in
        if not (Hashtbl.mem t.cur e.e_tk) then Hashtbl.replace t.cur e.e_tk e.e_rec
      done)
    t.layers;
  t.ingested <- t.durable;
  Instrument.bump t.counters "layer.crashes"
