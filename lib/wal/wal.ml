module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault

type 'a t = {
  size : 'a -> int;
  counters : Instrument.t;
  c_appends : int ref; (* "wal.appends", resolved once *)
  c_forces : int ref; (* "wal.forces" *)
  label : string;
  h_append : string; (* label-prefixed histogram names, built once *)
  h_force : string;
  p_force_begin : string;
  p_force_mid : string;
  (* The stable log: records [head, len) of [recs], in LSN order, each
     with its LSN at the same index of [lsns].  Slots below [len] are
     never written again: growth and compaction copy into fresh arrays.
     A scan that captured the arrays and [len] therefore visits exactly
     the records stable when it began, whatever forces and truncations
     its callback runs. *)
  mutable lsns : Lsn.t array;
  mutable recs : 'a array;
  mutable head : int;
  mutable len : int;
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
    c_forces = Metrics.counter_cell counters "wal.forces";
    label;
    h_append = label ^ ".append_ns";
    h_force = label ^ ".force_ns";
    p_force_begin = Fault.declare (label ^ ".force.begin");
    p_force_mid = Fault.declare (label ^ ".force.mid");
    lsns = [||];
    recs = [||];
    head = 0;
    len = 0;
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

(* Move the live records [head, len) into fresh arrays of [cap] slots,
   the spare ones filled with [fill] (a live record, so no slot keeps a
   truncated one reachable). *)
let relocate t ~cap lsn fill =
  let live = t.len - t.head in
  let lsns = Array.make cap lsn and recs = Array.make cap fill in
  Array.blit t.lsns t.head lsns 0 live;
  Array.blit t.recs t.head recs 0 live;
  t.lsns <- lsns;
  t.recs <- recs;
  t.head <- 0;
  t.len <- live

(* Amortized O(1): a full store doubles its live records' room, dropping
   the truncated prefix on the way. *)
let push t lsn record =
  if t.len = Array.length t.recs then
    relocate t ~cap:(max 16 (2 * (t.len - t.head + 1))) lsn record;
  t.lsns.(t.len) <- lsn;
  t.recs.(t.len) <- record;
  t.len <- t.len + 1

(* The first index in [lo, hi) whose LSN is >= [lsn], or [hi]. *)
let seek lsns lsn lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Lsn.(lsns.(mid) < lsn) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Records stabilize oldest-first, one at a time, with a fault point
   between them: a crash mid-force leaves a stable *prefix* of the batch
   (the torn-log-tail scenario), which the subsequent [crash] preserves
   because stable state is never rolled back.  A record at or below
   [stable_lsn] already stabilized in a force cut short by that fault;
   forcing again does not append it twice.  Every assigned LSN below
   [next_lsn] ends up covered by stable state, even when the highest
   ones were [reserve]d (no payload).  With nothing volatile that is all
   a force does: it writes nothing, so it counts no force, takes no
   [force_ns] sample and records no span. *)
let force t =
  Fault.hit t.p_force_begin;
  match t.volatile with
  | [] -> t.stable_lsn <- Lsn.prev t.next_lsn
  | volatile ->
    let t0 = Metrics.start t.counters in
    t.forces <- t.forces + 1;
    incr t.c_forces;
    List.iter
      (fun (lsn, record) ->
        if Lsn.(t.stable_lsn < lsn) then begin
          push t lsn record;
          t.stable_lsn <- lsn
        end;
        Fault.hit t.p_force_mid)
      (List.rev volatile);
    t.volatile <- [];
    t.stable_lsn <- Lsn.prev t.next_lsn;
    Metrics.stop t.counters t.h_force t0;
    (* Forces are not per-operation work, so the span carries the
       reserved untraced id; it still lands in the cycle's timeline
       dump. *)
    if Trace.enabled () then
      Trace.record ~tid:0 ~comp:"wal" ~ev:"force"
        [
          ("wal", t.label);
          ("batch", string_of_int (List.length volatile));
          ("stable", Lsn.to_string t.stable_lsn);
        ]

let force_through t lsn = if Lsn.(t.stable_lsn < lsn) then force t

let stable_lsn t = t.stable_lsn

let last_lsn t = Lsn.prev t.next_lsn

let crash t = t.volatile <- []
(* next_lsn keeps counting: LSNs stay unique across the crash, and the
   restart protocol tells the DC to forget everything above stable_lsn. *)

(* The head moves past the dropped prefix; once dead slots outnumber
   live ones, the live records move to fresh arrays and the old ones,
   truncated records with them, become garbage.  A compaction copies
   fewer records than it drops, so truncation costs amortized O(1) per
   dropped record on top of the O(log n) seek. *)
let truncate t lsn =
  if Lsn.(t.trunc < lsn) then t.trunc <- lsn;
  t.head <- seek t.lsns lsn t.head t.len;
  let live = t.len - t.head in
  if t.head > live then
    if live = 0 then begin
      t.lsns <- [||];
      t.recs <- [||];
      t.head <- 0;
      t.len <- 0
    end
    else relocate t ~cap:(2 * live) t.lsns.(t.head) t.recs.(t.head)

let retained_from t = t.trunc

(* Seek, then walk only the tail: O(log n) to find the start and O(1)
   per record visited.  Continuous log shipping reads the suffix past
   each replica's cursor on every pump, so a full scan would make
   shipping quadratic in log length. *)
let iter_from t lsn f =
  let lsns = t.lsns and recs = t.recs and stop = t.len in
  for i = seek lsns lsn t.head stop to stop - 1 do
    f lsns.(i) recs.(i)
  done

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
  let i = seek t.lsns lsn t.head t.len in
  if i < t.len && Lsn.equal t.lsns.(i) lsn then Some t.recs.(i)
  else
    List.find_map
      (fun (l, r) -> if Lsn.equal l lsn then Some r else None)
      t.volatile

let stable_count t = t.len - t.head

let volatile_count t = List.length t.volatile

let forces t = t.forces

let appended_bytes t = t.appended_bytes
