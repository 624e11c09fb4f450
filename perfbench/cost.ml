(* Exact work counts.  A reading is a named list of counts: the TCs' and
   DCs' own accessors (summed over every TC and DC of a deployment)
   plus the counter registry the components share.  The difference of
   two readings is the cost of the work in between. *)

module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Disk = Untx_storage.Disk
module Instrument = Untx_util.Instrument

type t = (string * int) list

let read ~tcs ~dcs counters : t =
  let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  [
    ("msgs", sum Tc.messages_sent tcs);
    ("locks", sum Tc.lock_acquisitions tcs);
    ("log.records", sum Tc.log_records tcs);
    ("log.forces", sum Tc.log_forces tcs);
    ("log.bytes", sum Tc.log_bytes tcs);
    ("dc_log.bytes", sum Dc.dc_log_bytes dcs);
    ("page.bytes", sum (fun dc -> Disk.bytes_written (Dc.disk dc)) dcs);
  ]
  @ Instrument.snapshot counters

let get (c : t) name = Option.value ~default:0 (List.assoc_opt name c)

let delta (before : t) (after : t) : t =
  List.map (fun (name, v) -> (name, v - get before name)) after

let add (a : t) (b : t) : t = List.map (fun (name, v) -> (name, v + get a name)) b

let wire_bytes c =
  get c "transport.data_bytes" + get c "transport.control_bytes"
  + get c "transport.repl_bytes"

(* Log forces (TC and DC logs) plus page writes and page reads. *)
let storage_ios c =
  get c "wal.forces" + get c "disk.page_writes" + get c "disk.page_reads"

let storage_bytes c = get c "log.bytes" + get c "dc_log.bytes" + get c "page.bytes"

(* The per-layer counts every workload reports, per unit of work. *)
let report_layers out c ~units =
  let per name = Report.per (get c name) units in
  let m = Report.metric out in
  m "tc.locks_per_txn" "count" (per "locks");
  m "tc.lock_waits_per_txn" "count" (per "tc.lock_waits");
  m "wal.appends_per_txn" "count" (per "log.records");
  m "wal.forces_per_txn" "count" (per "log.forces");
  m "wal.log_bytes_per_txn" "B" (per "log.bytes");
  m "transport.msgs_per_txn" "count" (per "msgs");
  m "transport.control_per_txn" "count" (per "tc.control_sent");
  m "transport.frames_per_batch" "count"
    (Report.per (get c "transport.batched_frames") (get c "transport.batches"));
  m "wire.data_bytes_per_txn" "B" (per "transport.data_bytes");
  m "wire.control_bytes_per_txn" "B" (per "transport.control_bytes");
  m "wire.repl_bytes_per_txn" "B" (per "transport.repl_bytes");
  m "btree.splits_per_ktxn" "count" (1000. *. per "dc.smo_splits");
  m "cache.misses_per_txn" "count" (per "cache.misses");
  m "cache.evictions_per_txn" "count" (per "cache.evictions");
  m "cache.scan_per_eviction" "count"
    (Report.per (get c "cache.evict_scan_steps") (get c "cache.evictions"));
  m "cache.flush_stalls_per_txn" "count" (per "cache.flush_stalls");
  m "disk.page_writes_per_txn" "count" (per "disk.page_writes");
  m "storage.bytes_per_txn" "B" (Report.per (storage_bytes c) units)

(* Each repeat of the same inputs must cost exactly the same. *)
let check_repeat out ~what first c =
  match first with
  | None -> Some c
  | Some c0 ->
    Report.check out (c0 = c) "%s: a repeat of the same inputs counted differently"
      what;
    first
