module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault

type 'a t = {
  size : 'a -> int;
  counters : Instrument.t;
  c_appends : int ref; (* "wal.appends", resolved once *)
  label : string;
  h_append : string; (* label-prefixed histogram names, built once *)
  h_force : string;
  p_force_begin : string;
  p_force_mid : string;
  mutable stable : 'a Lsn.Map.t;
  mutable volatile : (Lsn.t * 'a) list; (* newest first *)
  mutable next_lsn : Lsn.t;
  mutable stable_lsn : Lsn.t;
  mutable trunc : Lsn.t; (* lowest LSN the log still guarantees to hold *)
  mutable forces : int;
  mutable appended_bytes : int;
}

let create ?(counters = Instrument.global) ?(label = "wal") ~size () =
  {
    size;
    counters;
    c_appends = Metrics.counter_cell counters "wal.appends";
    label;
    h_append = label ^ ".append_ns";
    h_force = label ^ ".force_ns";
    p_force_begin = Fault.declare (label ^ ".force.begin");
    p_force_mid = Fault.declare (label ^ ".force.mid");
    stable = Lsn.Map.empty;
    volatile = [];
    next_lsn = Lsn.next Lsn.zero;
    stable_lsn = Lsn.zero;
    trunc = Lsn.next Lsn.zero;
    forces = 0;
    appended_bytes = 0;
  }

let fresh_lsn t =
  let lsn = t.next_lsn in
  t.next_lsn <- Lsn.next lsn;
  lsn

let append t record =
  let t0 = Metrics.start t.counters in
  let lsn = fresh_lsn t in
  t.volatile <- (lsn, record) :: t.volatile;
  t.appended_bytes <- t.appended_bytes + t.size record;
  incr t.c_appends;
  Metrics.stop t.counters t.h_append t0;
  lsn

let reserve t = fresh_lsn t

let force t =
  let t0 = Metrics.start t.counters in
  Fault.hit t.p_force_begin;
  t.forces <- t.forces + 1;
  Instrument.bump t.counters "wal.forces";
  let batch = List.length t.volatile in
  (* Records stabilize oldest-first, one at a time, with a fault point
     between them: a crash mid-force leaves a stable *prefix* of the
     batch (the torn-log-tail scenario), which the subsequent [crash]
     preserves because stable state is never rolled back. *)
  List.iter
    (fun (lsn, record) ->
      t.stable <- Lsn.Map.add lsn record t.stable;
      if Lsn.(t.stable_lsn < lsn) then t.stable_lsn <- lsn;
      Fault.hit t.p_force_mid)
    (List.rev t.volatile);
  t.volatile <- [];
  (* Even when the highest records were [reserve]d (no payload), every
     assigned LSN below [next_lsn] is now covered by stable state. *)
  t.stable_lsn <- Lsn.prev t.next_lsn;
  Metrics.stop t.counters t.h_force t0;
  (* Forces are not per-operation work, so the span carries the
     reserved untraced id; it still lands in the cycle's timeline dump. *)
  if Trace.enabled () then
    Trace.record ~tid:0 ~comp:"wal" ~ev:"force"
      [
        ("wal", t.label);
        ("batch", string_of_int batch);
        ("stable", Lsn.to_string t.stable_lsn);
      ]

let force_through t lsn = if Lsn.(t.stable_lsn < lsn) then force t

let stable_lsn t = t.stable_lsn

let last_lsn t = Lsn.prev t.next_lsn

let crash t = t.volatile <- []
(* next_lsn keeps counting: LSNs stay unique across the crash, and the
   restart protocol tells the DC to forget everything above stable_lsn. *)

let truncate t lsn =
  if Lsn.(t.trunc < lsn) then t.trunc <- lsn;
  t.stable <- Lsn.Map.filter (fun l _ -> Lsn.(l >= lsn)) t.stable

let retained_from t = t.trunc

(* Seek, then walk only the tail: O(log n) to find the start and O(1)
   amortized per record visited, against the whole-map filtering scan
   this used to be.  Continuous log shipping reads the suffix past each
   replica's cursor on every pump, so the full-scan version would make
   shipping quadratic in log length. *)
let iter_from t lsn f =
  Seq.iter (fun (l, record) -> f l record) (Lsn.Map.to_seq_from lsn t.stable)

exception Truncated of { wanted : Lsn.t; retained : Lsn.t }

let iter_retained t lsn f =
  (* Only an actual truncation can have discarded records; the initial
     floor (Lsn.next Lsn.zero) rejects nothing, so legal from-zero scans
     over an untruncated log stay legal. *)
  if Lsn.(lsn < t.trunc) && Lsn.(t.trunc > Lsn.next Lsn.zero) then
    raise (Truncated { wanted = lsn; retained = t.trunc });
  iter_from t lsn f

let iter_volatile t f =
  List.iter (fun (lsn, record) -> f lsn record) (List.rev t.volatile)

let find t lsn =
  match Lsn.Map.find_opt lsn t.stable with
  | Some r -> Some r
  | None ->
    List.find_map
      (fun (l, r) -> if Lsn.equal l lsn then Some r else None)
      t.volatile

let stable_count t = Lsn.Map.cardinal t.stable

let volatile_count t = List.length t.volatile

let forces t = t.forces

let appended_bytes t = t.appended_bytes
