module Mono = Untx_baseline.Mono
module Instrument = Untx_util.Instrument

type t = {
  counters : Instrument.t;
  engines : (string, Mono.t) Hashtbl.t;
  names : string array;
  mutable msgs : int;
  mutable force_count : int;
  mutable in_doubt_txns : dtxn list;
}

and dtxn = {
  owner : t;
  mutable locals : (string * Mono.txn) list; (* participant -> local txn *)
  mutable state : [ `Active | `Prepared | `Done ];
}

let create ?(counters = Instrument.global) ~partitions config =
  if partitions = [] then invalid_arg "Two_pc.create: no partitions";
  let engines = Hashtbl.create 8 in
  List.iter
    (fun name -> Hashtbl.add engines name (Mono.create ~counters config))
    partitions;
  {
    counters;
    engines;
    names = Array.of_list partitions;
    msgs = 0;
    force_count = 0;
    in_doubt_txns = [];
  }

let create_table t ~name =
  Hashtbl.iter (fun _ m -> Mono.create_table m ~name) t.engines

(* Deterministic home partition for a key (by hash). *)
let partition_of t key =
  t.names.(Hashtbl.hash key mod Array.length t.names)

let engine t name = Hashtbl.find t.engines name

let begin_dtxn t = { owner = t; locals = []; state = `Active }

let local_txn t d part =
  match List.assoc_opt part d.locals with
  | Some txn -> txn
  | None ->
    (* one message to open the branch *)
    t.msgs <- t.msgs + 1;
    let txn = Mono.begin_txn (engine t part) in
    d.locals <- (part, txn) :: d.locals;
    txn

let lift = function
  | `Ok v -> Ok v
  | `Blocked -> Error "blocked"
  | `Fail msg -> Error msg

let write t d ~table ~key ~value =
  let part = partition_of t key in
  let m = engine t part in
  let txn = local_txn t d part in
  t.msgs <- t.msgs + 1;
  match Mono.update m txn ~table ~key ~value with
  | `Ok () -> Ok ()
  | `Fail "no such key" -> lift (Mono.insert m txn ~table ~key ~value)
  | (`Blocked | `Fail _) as o -> lift o

let read t d ~table ~key =
  let part = partition_of t key in
  let m = engine t part in
  let txn = local_txn t d part in
  t.msgs <- t.msgs + 1;
  lift (Mono.read m txn ~table ~key)

let prepare t d =
  (* Phase 1: each participant forces its log and votes. *)
  List.iter
    (fun (part, _) ->
      t.msgs <- t.msgs + 2;
      (* request + vote *)
      Mono.force_log (engine t part);
      t.force_count <- t.force_count + 1)
    d.locals;
  d.state <- `Prepared

let finish t d =
  (* Phase 2: commit decision to each participant. *)
  List.iter
    (fun (part, txn) ->
      t.msgs <- t.msgs + 2;
      (match Mono.commit (engine t part) txn with
      | `Ok () -> ()
      | `Blocked | `Fail _ -> () (* decided: participants obey *));
      t.force_count <- t.force_count + 1)
    d.locals;
  d.state <- `Done

let commit t d =
  match d.state with
  | `Done -> Error "transaction already finished"
  | `Active | `Prepared ->
    prepare t d;
    (* coordinator's own decision record *)
    t.force_count <- t.force_count + 1;
    finish t d;
    Instrument.bump t.counters "twopc.commits";
    Ok ()

let abort t d =
  if d.state <> `Done then begin
    List.iter
      (fun (part, txn) ->
        t.msgs <- t.msgs + 1;
        Mono.abort (engine t part) txn ~reason:"2pc abort")
      d.locals;
    d.state <- `Done
  end

let crash_coordinator_in_doubt t d =
  prepare t d;
  (* The decision never arrives: participants keep their locks. *)
  t.in_doubt_txns <- d :: t.in_doubt_txns;
  Instrument.bump t.counters "twopc.in_doubt"

let recover_coordinator t =
  List.iter (fun d -> if d.state = `Prepared then finish t d) t.in_doubt_txns;
  t.in_doubt_txns <- []

let in_doubt t =
  List.length (List.filter (fun d -> d.state = `Prepared) t.in_doubt_txns)

let messages t = t.msgs

let forces t = t.force_count
