module Instrument = Untx_util.Instrument
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Transport = Untx_kernel.Transport
module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Repl = Untx_repl.Repl
module Layer = Untx_layer.Layer

type parent = {
  p_label : string;
  p_high : unit -> Lsn.t;
  p_lookup :
    table:string ->
    key:string ->
    at:Lsn.t ->
    [ `Visible of string | `Gone | `Unwritten ];
  p_iter_at : at:Lsn.t -> (table:string -> key:string -> string -> unit) -> unit;
  p_pin : at:Lsn.t -> unit;
  p_unpin : at:Lsn.t -> unit;
}

let of_manager ?(label = "root") m =
  let store () =
    match Repl.Manager.layer_store m with
    | Some s -> s
    | None -> invalid_arg "Branch.of_manager: manager has no layer store"
  in
  {
    p_label = label;
    p_high =
      (fun () ->
        Repl.Manager.sync_layers m;
        Layer.ingested_lsn (store ()));
    p_lookup =
      (fun ~table ~key ~at ->
        Repl.Manager.sync_layers m;
        Layer.lookup (store ()) ~table ~key ~at);
    p_iter_at =
      (fun ~at f ->
        Repl.Manager.sync_layers m;
        Layer.iter_at (store ()) ~at f);
    p_pin = (fun ~at -> Layer.pin (store ()) ~at);
    p_unpin = (fun ~at -> Layer.unpin (store ()) ~at);
  }

type t = {
  name : string;
  fork_lsn : Lsn.t;
  parent : parent;
  counters : Instrument.t;
  tc : Tc.t;
  dc : Dc.t;
  dc_name : string;
  transport : Transport.t;
  mgr : Repl.Manager.t;
  tbls : (string * bool) list;
  materialized : (string * string, unit) Hashtbl.t;
      (* keys whose fork-point base state was faulted in (or proven
         absent there).  Lives here, not in the DC: it mirrors logged
         traffic, so it legitimately survives a branch DC crash. *)
  full_tables : (string, unit) Hashtbl.t;
  mutable closed : bool;
}

let create ?(counters = Instrument.global) ?policy ?(seed = 42) ?wrap ~name
    ~fork_lsn ~parent ~tc_id ~dc_config ~part ~tables () =
  let high = parent.p_high () in
  if Lsn.(high < fork_lsn) then
    raise (Layer.Beyond_ingested { wanted = fork_lsn; ingested = high });
  let t0 = Metrics.start counters in
  (* The pin is the whole fork: the parent's compaction/truncation may
     never drop a layer the branch still resolves through.  Nothing is
     copied — base state faults in lazily, per touched key. *)
  parent.p_pin ~at:fork_lsn;
  let tc = Tc.create ~counters (Tc.default_config tc_id) in
  let dc = Dc.create ~counters dc_config in
  Dc.set_identity dc ~part;
  let dc_name = name ^ ".dc" in
  let transport =
    Kernel.link ~counters ?policy ~label:(name ^ ":" ^ dc_name) ?wrap ~seed tc
      ~dc_name dc
  in
  List.iter
    (fun (tname, versioned) ->
      Dc.create_table dc ~name:tname ~versioned;
      Tc.map_table tc ~table:tname ~dc:dc_name ~versioned)
    tables;
  let mgr = Repl.Manager.create ~counters tc in
  Repl.Manager.enable_layers mgr;
  let t =
    {
      name;
      fork_lsn;
      parent;
      counters;
      tc;
      dc;
      dc_name;
      transport;
      mgr;
      tbls = tables;
      materialized = Hashtbl.create 64;
      full_tables = Hashtbl.create 4;
      closed = false;
    }
  in
  Instrument.bump counters "branch.creates";
  Metrics.stop counters "branch.fork_ns" t0;
  Trace.record ~tid:0 ~comp:"branch" ~ev:"create"
    [ ("name", name); ("parent", parent.p_label);
      ("fork", Lsn.to_string fork_lsn) ];
  t

let fork_lsn t = t.fork_lsn

let tc t = t.tc

let dc t = t.dc

let tables t = t.tbls

let check_open t =
  if t.closed then invalid_arg ("Branch: " ^ t.name ^ " is deleted")

let store t =
  match Repl.Manager.layer_store t.mgr with
  | Some s -> s
  | None -> assert false (* enable_layers ran in create *)

let sync t = Repl.Manager.sync_layers t.mgr

(* Combined LSN space: [0, fork] is the parent's prefix, fork + i is the
   branch's own i-th LSN. *)
let local_of t at = Lsn.of_int (Lsn.to_int at - Lsn.to_int t.fork_lsn)

let combined t local = Lsn.of_int (Lsn.to_int t.fork_lsn + Lsn.to_int local)

let durable t =
  check_open t;
  sync t;
  combined t (Layer.ingested_lsn (store t))

let materialized_count t = Hashtbl.length t.materialized

(* ------------------------------------------------------------------ *)
(* Lazy copy-on-write materialization                                  *)

(* Install one key's fork-point base state through the branch's own TC
   dispatch path, as its own committed system transaction: the install
   is ordinary logged traffic, so a branch DC crash recovers it by
   ordinary redo and the memo here never points at state the log cannot
   account for. *)
let install t ~table ~key ~value =
  let txn = Tc.begin_txn t.tc in
  match Tc.insert t.tc txn ~table ~key ~value with
  | `Ok () -> (
    match Tc.commit t.tc txn with
    | `Ok () ->
      Hashtbl.replace t.materialized (table, key) ();
      Instrument.bump t.counters "branch.materializations";
      `Ok ()
    | (`Blocked | `Fail _) as r -> r)
  | `Blocked as r ->
    Tc.abort t.tc txn ~reason:"branch-materialize";
    r
  | `Fail _ as r ->
    Tc.abort t.tc txn ~reason:"branch-materialize";
    (* a crash between an earlier install's commit and its memo leaves
       the key present but unrecorded — the present key IS the
       materialized state, so don't wedge every retry on
       insert-on-present *)
    if Tc.read_committed t.tc ~table ~key <> None then begin
      Hashtbl.replace t.materialized (table, key) ();
      `Ok ()
    end
    else r

let ensure_key t ~table ~key =
  if Hashtbl.mem t.full_tables table || Hashtbl.mem t.materialized (table, key)
  then `Ok ()
  else
    match t.parent.p_lookup ~table ~key ~at:t.fork_lsn with
    | `Gone | `Unwritten ->
      (* nothing to copy: the branch's own tier answers from here on *)
      Hashtbl.replace t.materialized (table, key) ();
      `Ok ()
    | `Visible value -> install t ~table ~key ~value

(* A scan must see every parent row, so the whole table faults in.  Each
   row is its own system transaction: a blocked install leaves the table
   partial (and unmarked), and the scan refuses rather than lie. *)
let ensure_table t ~table =
  if Hashtbl.mem t.full_tables table then true
  else begin
    let todo = ref [] in
    t.parent.p_iter_at ~at:t.fork_lsn (fun ~table:tb ~key value ->
        if
          String.equal tb table
          && not (Hashtbl.mem t.materialized (table, key))
        then todo := (key, value) :: !todo);
    let ok =
      List.for_all
        (fun (key, value) ->
          match install t ~table ~key ~value with
          | `Ok () -> true
          | `Blocked | `Fail _ -> false)
        (List.rev !todo)
    in
    if ok then Hashtbl.replace t.full_tables table ();
    ok
  end

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)

let write_op t ~table ~key k =
  check_open t;
  match ensure_key t ~table ~key with
  | `Ok () ->
    Instrument.bump t.counters "branch.writes";
    k ()
  | (`Blocked | `Fail _) as r -> r

(* The branch TC's surface, copy-on-write: every accessor checks the
   branch is open, and reads and writes materialize what they touch. *)
let engine t : (module Untx_kernel.Engine.S) =
  (module struct
    include Untx_kernel.Engine.Of_tc (struct
      let tc = t.tc
    end)

    let begin_txn () =
      check_open t;
      Tc.begin_txn t.tc

    let insert txn ~table ~key ~value =
      write_op t ~table ~key (fun () -> Tc.insert t.tc txn ~table ~key ~value)

    let update txn ~table ~key ~value =
      write_op t ~table ~key (fun () -> Tc.update t.tc txn ~table ~key ~value)

    let delete txn ~table ~key =
      write_op t ~table ~key (fun () -> Tc.delete t.tc txn ~table ~key)

    let read txn ~table ~key =
      check_open t;
      match ensure_key t ~table ~key with
      | `Ok () ->
        Instrument.bump t.counters "branch.reads";
        Tc.read t.tc txn ~table ~key
      | (`Blocked | `Fail _) as r -> (r :> string option Tc.outcome)

    let scan txn ~table ~from_key ~limit =
      check_open t;
      if not (ensure_table t ~table) then `Blocked
      else begin
        Instrument.bump t.counters "branch.reads";
        Tc.scan t.tc txn ~table ~from_key ~limit
      end

    let commit txn =
      check_open t;
      Tc.commit t.tc txn

    let abort txn ~reason =
      check_open t;
      Tc.abort t.tc txn ~reason
  end)

(* ------------------------------------------------------------------ *)
(* Point-in-time reads (combined LSN space)                            *)

let lookup_at t ~table ~key ~at =
  check_open t;
  if Lsn.(at <= t.fork_lsn) then t.parent.p_lookup ~table ~key ~at
  else begin
    sync t;
    let st = store t in
    let local = local_of t at in
    if Lsn.(Layer.ingested_lsn st < local) then
      raise
        (Layer.Beyond_ingested
           { wanted = at; ingested = combined t (Layer.ingested_lsn st) });
    match Layer.lookup st ~table ~key ~at:local with
    | (`Visible _ | `Gone) as v ->
      (* the branch logged this key at or below [local]: its own tier
         owns the answer, including a branch-side delete *)
      v
    | `Unwritten ->
      (* untouched by the branch there — the shared prefix answers.
         Note a key materialized later than [local] still reads the
         parent here, which is exactly the value the install copied. *)
      t.parent.p_lookup ~table ~key ~at:t.fork_lsn
  end

let read_as_of t ~table ~key ~at =
  Instrument.bump t.counters "branch.reads";
  match lookup_at t ~table ~key ~at with
  | `Visible v -> Some v
  | `Gone | `Unwritten -> None

let iter_merged t ~at f =
  check_open t;
  if Lsn.(at <= t.fork_lsn) then t.parent.p_iter_at ~at f
  else begin
    sync t;
    let st = store t in
    let local = local_of t at in
    if Lsn.(Layer.ingested_lsn st < local) then
      raise
        (Layer.Beyond_ingested
           { wanted = at; ingested = combined t (Layer.ingested_lsn st) });
    let rows : (string * string, string) Hashtbl.t = Hashtbl.create 64 in
    t.parent.p_iter_at ~at:t.fork_lsn (fun ~table ~key value ->
        Hashtbl.replace rows (table, key) value);
    (* every key the branch ever touched is in the memo; each one's
       3-way state at [local] decides override / delete / fall-through *)
    Hashtbl.iter
      (fun ((table, key) as tk) () ->
        match Layer.lookup st ~table ~key ~at:local with
        | `Visible v -> Hashtbl.replace rows tk v
        | `Gone -> Hashtbl.remove rows tk
        | `Unwritten -> ())
      t.materialized;
    Hashtbl.iter (fun (table, key) value -> f ~table ~key value) rows
  end

let rows_at t ~table ~at =
  let acc = ref [] in
  iter_merged t ~at (fun ~table:tb ~key value ->
      if String.equal tb table then acc := (key, value) :: !acc);
  List.sort compare !acc

let fork_rows t ~table =
  check_open t;
  let acc = ref [] in
  t.parent.p_iter_at ~at:t.fork_lsn (fun ~table:tb ~key value ->
      if String.equal tb table then acc := (key, value) :: !acc);
  List.sort compare !acc

(* ------------------------------------------------------------------ *)
(* Fault tolerance                                                     *)

let crash_dc t =
  check_open t;
  Transport.drop_in_flight t.transport;
  Dc.crash t.dc;
  Dc.recover t.dc;
  Tc.on_dc_restart t.tc ~dc:t.dc_name;
  Instrument.bump t.counters "branch.dc_crashes";
  Trace.record ~tid:0 ~comp:"branch" ~ev:"dc_crash" [ ("name", t.name) ]

let quiesce t =
  check_open t;
  Tc.quiesce t.tc;
  Tc.force_log t.tc;
  Repl.Manager.settle t.mgr;
  sync t

(* ------------------------------------------------------------------ *)
(* Nesting and teardown                                                *)

let as_parent t =
  {
    p_label = t.name;
    p_high = (fun () -> durable t);
    p_lookup = (fun ~table ~key ~at -> lookup_at t ~table ~key ~at);
    p_iter_at = (fun ~at f -> iter_merged t ~at f);
    p_pin =
      (fun ~at ->
        check_open t;
        if Lsn.(at <= t.fork_lsn) then t.parent.p_pin ~at
        else begin
          sync t;
          Layer.pin (store t) ~at:(local_of t at)
        end);
    p_unpin =
      (fun ~at ->
        check_open t;
        if Lsn.(at <= t.fork_lsn) then t.parent.p_unpin ~at
        else Layer.unpin (store t) ~at:(local_of t at));
  }

let close t =
  check_open t;
  t.closed <- true;
  t.parent.p_unpin ~at:t.fork_lsn;
  Instrument.bump t.counters "branch.deletes";
  Trace.record ~tid:0 ~comp:"branch" ~ev:"delete" [ ("name", t.name) ]
