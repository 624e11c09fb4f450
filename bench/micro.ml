(* Bechamel micro-benchmarks: the hot paths under each experiment.

   One Test.make per operation class; all grouped in one run.  These
   complement the experiment tables with per-operation costs measured
   by OLS over monotonic-clock samples.  Tests build their fixtures when
   called, so the gates-only mode pays for none of them. *)

open Bechamel
open Toolkit
module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc
module Ablsn = Untx_dc.Ablsn
module Lsn = Untx_util.Lsn
module Btree = Untx_btree.Btree
module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Disk = Untx_storage.Disk
module Cache = Untx_storage.Cache
module Mono = Untx_baseline.Mono
module Layer = Untx_layer.Layer
module Op = Untx_msg.Op
module Wire = Untx_msg.Wire
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Stored_record = Untx_dc.Stored_record
module Lock_mgr = Untx_tc.Lock_mgr
module Wal = Untx_wal.Wal
module Transport = Untx_kernel.Transport

let ok = function
  | `Ok v -> v
  | `Blocked -> failwith "blocked"
  | `Fail m -> failwith m

let kernel_txn_test () =
  let k = Bench_util.make_kernel () in
  let txn0 = Tc.begin_txn (Kernel.tc k) in
  for j = 0 to 1_999 do
    ok (Tc.insert (Kernel.tc k) txn0 ~table:"kv" ~key:(Printf.sprintf "k%06d" j) ~value:"v")
  done;
  ok (Tc.commit (Kernel.tc k) txn0);
  let i = ref 0 in
  Test.make ~name:"unbundled: 1-write txn (commit+force)"
    (Staged.stage (fun () ->
         incr i;
         let key = Printf.sprintf "k%06d" (!i mod 2_000) in
         let txn = Tc.begin_txn (Kernel.tc k) in
         ok (Tc.update (Kernel.tc k) txn ~table:"kv" ~key ~value:"v");
         ok (Tc.commit (Kernel.tc k) txn)))

let kernel_read_test () =
  let k = Bench_util.make_kernel () in
  let txn0 = Tc.begin_txn (Kernel.tc k) in
  for j = 0 to 999 do
    ok (Tc.insert (Kernel.tc k) txn0 ~table:"kv" ~key:(Printf.sprintf "k%04d" j) ~value:"v")
  done;
  ok (Tc.commit (Kernel.tc k) txn0);
  let i = ref 0 in
  Test.make ~name:"unbundled: point read (lock+message)"
    (Staged.stage (fun () ->
         incr i;
         let txn = Tc.begin_txn (Kernel.tc k) in
         ignore
           (ok
              (Tc.read (Kernel.tc k) txn ~table:"kv"
                 ~key:(Printf.sprintf "k%04d" (!i mod 1000))));
         ok (Tc.commit (Kernel.tc k) txn)))

let mono_txn_test () =
  let m = Bench_util.make_mono () in
  let txn0 = Mono.begin_txn m in
  for j = 0 to 1_999 do
    ok (Mono.insert m txn0 ~table:"kv" ~key:(Printf.sprintf "k%06d" j) ~value:"v")
  done;
  ok (Mono.commit m txn0);
  let i = ref 0 in
  Test.make ~name:"monolith: 1-write txn (commit+force)"
    (Staged.stage (fun () ->
         incr i;
         let key = Printf.sprintf "k%06d" (!i mod 2_000) in
         let txn = Mono.begin_txn m in
         ok (Mono.update m txn ~table:"kv" ~key ~value:"v");
         ok (Mono.commit m txn)))

let ablsn_test () =
  let i = ref 0 in
  let ab = ref Ablsn.empty in
  Test.make ~name:"abLSN: add + included test"
    (Staged.stage (fun () ->
         incr i;
         ab := Ablsn.add (Lsn.of_int !i) !ab;
         if !i mod 64 = 0 then ab := Ablsn.advance ~lwm:(Lsn.of_int !i) !ab;
         ignore (Ablsn.included (Lsn.of_int (!i / 2)) !ab)))

let btree_test () =
  let disk = Disk.create () in
  let cache = Cache.create ~disk ~capacity:4096 () in
  let tree =
    Btree.create ~cache ~page_capacity:512 ~hooks:Btree.null_hooks
  in
  let i = ref 0 in
  Test.make ~name:"B-tree: set (with splits)"
    (Staged.stage (fun () ->
         incr i;
         Btree.set tree
           ~key:(Printf.sprintf "k%08d" (!i * 2654435761 land 0xFFFFF))
           ~data:"0123456789abcdef"))

let page_test () =
  let page = Page.create ~id:(Page_id.of_int 1) ~kind:Page.Leaf ~capacity:100_000 in
  let i = ref 0 in
  Test.make ~name:"page: set/find"
    (Staged.stage (fun () ->
         incr i;
         let key = Printf.sprintf "k%03d" (!i mod 500) in
         Page.set page ~key ~data:"payload";
         ignore (Page.find page key)))

(* A compacted layer store shared by the Bechamel test and the ns/op
   gate below: 20k ops over 200 keys, split into a handful of L1
   layers so lookups pay a realistic newest-first probe. *)
let layer_store =
  lazy
    (let s =
       Layer.create ~compact_runs:max_int ~writer:(Tc_id.of_int 1)
         ~versioned:(fun _ -> false)
         ()
     in
     let n = 20_000 in
     let op i =
       let key = Printf.sprintf "k%03d" (i mod 200) in
       if i < 200 then Op.Insert { table = "kv"; key; value = "v" }
       else Op.Update { table = "kv"; key; value = Printf.sprintf "v%d" i }
     in
     List.iter
       (fun chunk ->
         Layer.absorb s
           ~upto:(Lsn.of_int (chunk * (n / 4)))
           (fun emit ->
             for i = 1 to n do
               emit (Lsn.of_int i) (op (i - 1))
             done);
         Layer.compact ~all:true s)
       [ 1; 2; 3; 4 ];
     s)

let layer_reconstruct_test () =
  let s = Lazy.force layer_store in
  let i = ref 0 in
  Test.make ~name:"layer: reconstruct (point@LSN)"
    (Staged.stage (fun () ->
         incr i;
         let key = Printf.sprintf "k%03d" (!i * 7 mod 200) in
         let at = Lsn.of_int (1 + (!i * 2654435761 land 0x3FFF)) in
         ignore (Layer.reconstruct s ~table:"kv" ~key ~at)))

(* --- ns/op gates ------------------------------------------------------ *)

(* Each gate prints its figure and whether it holds; [run_gates] fails
   the process once all have printed. *)

let ns_per_op n f =
  let (), sec = Bench_util.time (fun () -> for i = 1 to n do f i done) in
  sec *. 1e9 /. float_of_int n

let gate_line name ns ~ceiling =
  Printf.printf "%-45s %12.0f  (gate <= %.0f)\n" name ns ceiling;
  ns <= ceiling

(* Reconstruct is the read path every branch fork-point lookup and
   point-in-time read rides, so hold it to a generous ceiling — a
   regression to scanning history linearly fails loudly here long
   before the experiment tables notice. *)
let gate_reconstruct () =
  let s = Lazy.force layer_store in
  let ns =
    ns_per_op 50_000 (fun i ->
        let key = Printf.sprintf "k%03d" (i * 7 mod 200) in
        let at = Lsn.of_int (1 + (i * 2654435761 land 0x3FFF)) in
        ignore (Layer.reconstruct s ~table:"kv" ~key ~at))
  in
  gate_line "layer: reconstruct, direct" ns ~ceiling:50_000.

let tc1 = Tc_id.of_int 1

let write_req lsn op = { Wire.tc = tc1; lsn = Lsn.of_int lsn; part = 0; op }

let key_of i = Printf.sprintf "k%08d" i

(* A DC whose table spans at least [pages] pages, every one of them
   holding a page state and resident; returns the DC and the last LSN
   used. *)
let dc_with_pages pages =
  let dc =
    Dc.create
      { Dc.default_config with page_capacity = 128; cache_pages = 4 * pages }
  in
  Dc.create_table dc ~name:"kv" ~versioned:false;
  let lsn = ref 0 in
  while List.length (Dc.table_pages dc "kv") < pages do
    for _ = 1 to 250 do
      incr lsn;
      ignore
        (Dc.perform dc
           (write_req !lsn
              (Op.Insert { table = "kv"; key = key_of !lsn; value = "v" })))
    done;
    (* marks keep {LSNin} sets, which splits copy and log, small *)
    let mark = Lsn.of_int !lsn in
    ignore (Dc.control dc (Wire.Watermarks { tc = tc1; eosl = mark; lwm = mark }))
  done;
  (dc, !lsn)

(* A low-water mark must cost the same however many page states the DC
   holds: page states catch up with it when next read, never all at
   once.  Each push's mark rises (one that does not changes nothing),
   from just above the last LSN the pages hold.  Best of five rounds of
   [n] marks each, to shed timer noise. *)
let lwm_ns (dc, top) =
  let n = 20_000 in
  let round r =
    ns_per_op n (fun i ->
        let lwm = Lsn.of_int (top + 1 + (r * n) + i) in
        ignore
          (Dc.control dc (Wire.Watermarks { tc = tc1; eosl = Lsn.zero; lwm })))
  in
  List.fold_left min infinity (List.init 5 round)

let lwm_flatness_bound = 3.

let gate_lwm_flat () =
  let small = lwm_ns (dc_with_pages 500) in
  let large = lwm_ns (dc_with_pages 5_000) in
  Printf.printf "%-45s %12.0f\n" "DC: low-water mark, 500 page states" small;
  Printf.printf "%-45s %12.0f\n" "DC: low-water mark, 5000 page states" large;
  let ratio = large /. small in
  Printf.printf "%-45s %12.2f  (gate <= %.1f)\n" "DC: low-water mark cost 5000 / 500"
    ratio lwm_flatness_bound;
  ratio <= lwm_flatness_bound

(* The DC side of one data message: idempotence test, B-tree update,
   abLSN and pending bookkeeping, with a low-water mark every 16
   operations as the TC sends them.  The ceiling is ~5x the cost
   measured on a 2-core x86 container (6-9 us), above machine-speed
   drift; an O(resident pages) scan per operation lands far beyond
   it. *)
let dc_apply_keys = 2_000

let dc_apply_fixture () =
  let dc = Dc.create { Dc.default_config with cache_pages = 4096 } in
  Dc.create_table dc ~name:"kv" ~versioned:false;
  for i = 1 to dc_apply_keys do
    ignore
      (Dc.perform dc
         (write_req i (Op.Insert { table = "kv"; key = key_of i; value = "v" })))
  done;
  dc

(* The [i]th update after the fixture's inserts. *)
let dc_apply dc i =
  let lsn = dc_apply_keys + i in
  ignore
    (Dc.perform dc
       (write_req lsn
          (Op.Update
             {
               table = "kv";
               key = key_of (1 + (i * 7919 mod dc_apply_keys));
               value = "w";
             })));
  if i mod 16 = 0 then
    ignore
      (Dc.control dc
         (Wire.Watermarks
            { tc = tc1; eosl = Lsn.zero; lwm = Lsn.of_int (lsn - 8) }))

let gate_dc_apply () =
  let dc = dc_apply_fixture () in
  let ns = ns_per_op 20_000 (dc_apply dc) in
  gate_line "DC: apply one update (with LWM every 16)" ns ~ceiling:40_000.

(* The TC side of the data path: one pipelined update plus the reply to
   the previous one, through a reliable 1x1 kernel.  Updates go to one
   key, so each waits for its predecessor's reply: lock (held),
   conflict wait and pump, log append, request encode, transport, DC
   apply, reply decode.  A transaction commits every 1000 updates, so
   its write set stays bounded. *)
let tc_dispatch_fixture () =
  let k = Bench_util.make_kernel () in
  let txn0 = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.insert (Kernel.tc k) txn0 ~table:"kv" ~key:"k" ~value:"v");
  ok (Tc.commit (Kernel.tc k) txn0);
  let txn = ref (Tc.begin_txn (Kernel.tc k)) in
  fun i ->
    ok (Tc.update (Kernel.tc k) !txn ~table:"kv" ~key:"k" ~value:"w");
    if i mod 1000 = 0 then begin
      ok (Tc.commit (Kernel.tc k) !txn);
      txn := Tc.begin_txn (Kernel.tc k)
    end

(* As for DC apply, the ceiling is ~5x the cost measured on a 2-core
   x86 container (6.5-7.5 us; 7.4-8.4 us before this path was trimmed,
   which the words gate below tells apart). *)
let gate_tc_dispatch () =
  let ns = ns_per_op 20_000 (tc_dispatch_fixture ()) in
  gate_line "TC: dispatch one pipelined update + reply" ns ~ceiling:40_000.

(* --- codec gates --------------------------------------------------- *)

(* One frame of each shape the data path sends most: an update request,
   and the reply to a 10-row scan. *)
let update_req =
  Wire.Request
    (write_req 123_456
       (Op.Update { table = "kv"; key = key_of 42; value = "value-0042" }))

let scan_reply =
  Wire.Reply
    {
      Wire.tc = tc1;
      lsn = Lsn.of_int 123_457;
      result =
        Wire.Pairs
          (List.init 10 (fun i ->
               (key_of (100 + i), Printf.sprintf "value-%04d" i)));
    }

(* The update request's [Done] reply, and the reply to a 10-key
   fetch-ahead probe over consecutive keys. *)
let done_reply =
  Wire.Reply { Wire.tc = tc1; lsn = Lsn.of_int 123_456; result = Wire.Done }

let probe_reply =
  Wire.Reply
    {
      Wire.tc = tc1;
      lsn = Lsn.of_int 123_458;
      result = Wire.Next_keys (List.init 10 (fun i -> key_of (100 + i)));
    }

(* The reply to the fetch that follows that probe once its keys are
   locked: the window's 10 rows, every one visible, so no hidden key. *)
let window_reply =
  Wire.Reply
    {
      Wire.tc = tc1;
      lsn = Lsn.of_int 123_459;
      result =
        Wire.Window
          {
            rows =
              List.init 10 (fun i ->
                  (key_of (100 + i), Printf.sprintf "value-%04d" i));
            hidden = [];
          };
    }

(* A redo batch of [Tc.redo_batch_cap] logged writes, as a restarted DC
   receives them. *)
let redo_batch =
  Wire.Redo_batch
    {
      tc = tc1;
      part = 0;
      ops =
        List.init Tc.redo_batch_cap (fun i ->
            let key = key_of (i * 7) in
            ( Lsn.of_int (123_456 + i),
              if i mod 4 = 0 then Op.Update { table = "kv"; key; value = "w" }
              else Op.Insert { table = "kv"; key; value = "v" } ));
    }

let record =
  {
    Stored_record.value = "value-0042";
    deleted = false;
    before = Stored_record.Value_before "value-0041";
    writer = tc1;
    wlsn = Lsn.of_int 123_456;
  }

(* Minor-heap words one call allocates: exact and independent of
   machine speed.  The wire's binary frames encode the update request in
   6 words (the frame itself) and the scan reply in 22, and decode the
   request in 23; a 64-op redo batch's encode and decode take 1251.
   With fixed 4-byte frame headers and whole keys they took 7, 30, 23
   and 1252; the decimal-text field lists before those took 36, 108, 63
   and 3163, and the Buffer and string_of_int encoder before those took
   86 and 436 to encode.  The record's ceilings sit below what its text cell cost, 29
   words to encode and 22 to decode, against one 26-byte binary cell
   now. *)
let words_per_op f =
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let alloc_line name f ~ceiling =
  let words = words_per_op f in
  Printf.printf "%-45s %12.1f  (gate <= %.0f words)\n" name words ceiling;
  words <= ceiling

(* One X lock on a record nobody holds, then its release: the lock
   entry and the owner's index are built and dropped each time.  Before
   lock entries held their holders and waiters inline, point writes took
   one B-tree descent and delivered frames were checksummed once, these
   fixtures allocated 144, 725 and 994 words; the DC apply allocated
   218.6 while every write memoized its whole reply and stored a text
   record cell.  TC dispatch takes 444.6 words since its pending record
   is the TC's only record of a request in flight; it took 460.7 while
   LSN sets and a table of parked replies shadowed the pendings,
   and 553.3 while the stable log was an LSN-keyed map, copying its
   insertion path on every force. *)
let gate_hot_path_alloc () =
  let lm = Lock_mgr.create () in
  let rsrc = Lock_mgr.Record { table = "kv"; key = key_of 42 } in
  let lock =
    alloc_line "Lock_mgr: X acquire + release_all, words" ~ceiling:100.
      (fun () ->
        ignore (Lock_mgr.acquire lm ~owner:7 rsrc Lock_mgr.X);
        Lock_mgr.release_all lm ~owner:7)
  in
  let dc = dc_apply_fixture () in
  let i = ref 0 in
  let apply =
    alloc_line "DC: apply one update (LWM every 16), words" ~ceiling:200.
      (fun () ->
        incr i;
        dc_apply dc !i)
  in
  let step = tc_dispatch_fixture () in
  let i = ref 0 in
  let dispatch =
    alloc_line "TC: dispatch one update + reply, words" ~ceiling:460.
      (fun () ->
        incr i;
        step !i)
  in
  lock && apply && dispatch

(* The DC-restart redo path, end to end: a kernel whose log holds 1200
   inserts committed eight to a transaction and 400 updates, its DC
   crashed and restarted.  Words per operation the TC resends, over the
   whole restart (DC recovery included); the first restart is a warm-up.
   Redo that sent each operation in its own request and reply frames
   allocated 549 words per resent operation here, batched redo 310, 242
   once replies dropped their prior and record cells went binary, and
   200.4 with binary frames; 175.2 since the stable logs are arrays (the
   LSN-keyed map copied a path per record forced) and counters are
   cells. *)
let redo_fixture () =
  let counters = Untx_util.Instrument.create () in
  let k = Bench_util.make_kernel ~counters ~cache_pages:4096 () in
  for t = 0 to 149 do
    let txn = Tc.begin_txn (Kernel.tc k) in
    for j = 0 to 7 do
      ok (Tc.insert (Kernel.tc k) txn ~table:"kv" ~key:(key_of ((t * 8) + j)) ~value:"v")
    done;
    ok (Tc.commit (Kernel.tc k) txn)
  done;
  for t = 0 to 99 do
    let txn = Tc.begin_txn (Kernel.tc k) in
    for j = 0 to 3 do
      ok
        (Tc.update (Kernel.tc k) txn ~table:"kv"
           ~key:(key_of (((t * 4) + j) * 3 mod 1200))
           ~value:"w")
    done;
    ok (Tc.commit (Kernel.tc k) txn)
  done;
  Kernel.quiesce k;
  Kernel.crash_dc k;
  (k, counters)

let gate_redo_alloc () =
  let k, counters = redo_fixture () in
  let sent () = Untx_util.Instrument.get counters "tc.requests_sent" in
  let sent0 = sent () and before = Gc.minor_words () in
  Kernel.crash_dc k;
  let words = (Gc.minor_words () -. before) /. float_of_int (sent () - sent0) in
  let ceiling = 200. in
  Printf.printf "%-45s %12.1f  (gate <= %.0f words)\n"
    "TC+DC: redo one logged op (DC restart), words" words ceiling;
  words <= ceiling

(* The stable log's append path: one record appended and forced on a
   log that already holds 100k stable records, as a TC's log does
   between checkpoints.  An array append takes 14 words and 235-280 ns
   (dev build, 2-core x86 container); the LSN-keyed map the stable log
   was before took 136 words and 565-655 ns, copying its ~17-node
   insertion path on every force.  The ns ceiling is ~5x the measured
   cost; the words gate is what tells the two apart. *)
let wal_fixture () =
  let w =
    Wal.create ~counters:(Untx_util.Instrument.create ()) ~size:String.length ()
  in
  for _ = 1 to 100_000 do
    ignore (Wal.append w "r")
  done;
  Wal.force w;
  fun () ->
    ignore (Wal.append w "r");
    Wal.force w

let gate_wal () =
  let step = wal_fixture () in
  let words =
    alloc_line "Wal: append + force on 100k-record log, words" ~ceiling:16.
      step
  in
  let ns = ns_per_op 50_000 (fun _ -> step ()) in
  let time =
    gate_line "Wal: append + force on 100k-record log" ns ~ceiling:1_250.
  in
  words && time

let gate_codec_alloc () =
  let req =
    alloc_line "Wire: encode update request, words" ~ceiling:8. (fun () ->
        Wire.encode_request update_req)
  in
  let rep =
    alloc_line "Wire: encode 10-pair scan reply, words" ~ceiling:32.
      (fun () -> Wire.encode_reply scan_reply)
  in
  let req_bytes = Wire.encode_request update_req in
  let req_dec =
    alloc_line "Wire: decode update request, words" ~ceiling:25. (fun () ->
        Wire.decode_request req_bytes)
  in
  let batch =
    alloc_line "Wire: encode + decode 64-op redo batch, words" ~ceiling:1_300.
      (fun () -> Wire.decode_request (Wire.encode_request redo_batch))
  in
  let rcd =
    alloc_line "Stored_record: encode, words" ~ceiling:8. (fun () ->
        Stored_record.encode record)
  in
  let cell = Stored_record.encode record in
  let rcd_dec =
    alloc_line "Stored_record: decode, words" ~ceiling:16. (fun () ->
        Stored_record.decode cell)
  in
  req && rep && req_dec && batch && rcd && rcd_dec

(* Frame bytes, exact: each gate sits at the size the layout in
   wire.mli gives, so a change that grows a frame fails it.  With fixed
   4-byte trace ids and lengths and whole keys the update request and
   its reply took 44 + 19 bytes, the probe reply 120 and the scan reply
   230.  A fetch window with every row visible costs the scan reply's
   bytes plus its empty hidden-key list's count. *)
let gate_codec_bytes () =
  let line name bytes ~ceiling =
    Printf.printf "%-45s %12d  (gate <= %d bytes)\n" name bytes ceiling;
    bytes <= ceiling
  in
  let size = String.length in
  let update =
    line "Wire: update request + Done reply, bytes" ~ceiling:51
      (size (Wire.encode_request update_req) + size (Wire.encode_reply done_reply))
  in
  let probe =
    line "Wire: 10-key probe reply, bytes" ~ceiling:52
      (size (Wire.encode_reply probe_reply))
  in
  let scan =
    line "Wire: 10-pair scan reply, bytes" ~ceiling:163
      (size (Wire.encode_reply scan_reply))
  in
  let window =
    line "Wire: 10-row fetch window, all visible, bytes" ~ceiling:164
      (size (Wire.encode_reply window_reply))
  in
  update && probe && scan && window

(* One data round trip through a reliable [Transport]: a request frame
   sent, then one drain that delivers it to a DC stand-in and surfaces
   the reply.  The stand-ins are the transport suite's echo handlers:
   the data one decodes the request and answers [Done] under its LSN,
   the control one acks.  The words include that decode and reply
   encode; the rest is the plane's own queue handling. *)
let echo_data frame =
  match Wire.decode_request frame with
  | Wire.Request r ->
    Some
      (Wire.encode_reply
         (Wire.Reply { Wire.tc = r.Wire.tc; lsn = r.Wire.lsn; result = Wire.Done }))
  | Wire.Redo_batch _ -> None

let echo_control frame =
  let m = Wire.decode_control frame in
  Some
    (Wire.encode_control_reply
       { Wire.r_tc = Wire.control_tc m.Wire.c_ctl; r_epoch = m.Wire.c_epoch;
         r_seq = m.Wire.c_seq; r_reply = Wire.Ack })

let gate_transport_alloc () =
  let t =
    Transport.create ~counters:(Untx_util.Instrument.create ()) ~seed:1
      ~data:echo_data ~control:echo_control ()
  in
  let frame = Wire.encode_request update_req in
  alloc_line "Transport: send + drain one data round trip (reliable), words"
    ~ceiling:122. (fun () ->
      Transport.send t frame;
      Transport.drain t)

(* Frame encode and decode.  As for DC apply, each ceiling is ~5x the
   cost measured on a 2-core x86 container: 0.11-0.24 us for the update
   request either way, 0.60-1.05 us to encode the scan reply and
   0.70-1.26 us to decode it.  The decimal-text field lists took
   0.22-0.60, 0.83-1.73 and 0.90-1.8 us in the same runs, and the Buffer
   and string_of_int encoder before them 3.5x as long to encode. *)
let gate_codec_ns () =
  let req_bytes = Wire.encode_request update_req in
  let rep_bytes = Wire.encode_reply scan_reply in
  let line name ~ceiling f =
    let ns = ns_per_op 50_000 (fun _ -> ignore (Sys.opaque_identity (f ()))) in
    gate_line name ns ~ceiling
  in
  let enc_req =
    line "Wire: encode update request" ~ceiling:1_000. (fun () ->
        Wire.encode_request update_req)
  in
  let dec_req =
    line "Wire: decode update request" ~ceiling:1_000. (fun () ->
        Wire.decode_request req_bytes)
  in
  let enc_rep =
    line "Wire: encode 10-pair scan reply" ~ceiling:4_000. (fun () ->
        Wire.encode_reply scan_reply)
  in
  let dec_rep =
    line "Wire: decode 10-pair scan reply" ~ceiling:5_000. (fun () ->
        Wire.decode_reply rep_bytes)
  in
  enc_req && dec_req && enc_rep && dec_rep

(* Index density: the pages of a B-tree of 256-byte pages after 10k
   inserts of front_ingest-shaped keys (["u%08x-%08d"], a random 30-bit
   prefix, then a counter) with 21-byte data, the size of a 16-byte
   value's record cell.  The counts are deterministic.  A leaf cell
   takes 56 bytes, so a leaf holds four; splits that balance the bytes
   with the incoming cell counted leave 3454 leaves and 502 inner
   pages.  Cutting only the page's own cells, just past half its bytes,
   split a full leaf 4/1 or 3/2: 4410 leaves and 657 inner pages.
   Inner pages that post whole 18-byte first moved keys numbered 1353,
   with decimal-text child ids 735.  The ceilings sit at the counts. *)
let density_keys () =
  let rng = Untx_util.Rng.create ~seed:25 in
  Array.init 10_000 (fun n ->
      Printf.sprintf "u%08x-%08d" (Untx_util.Rng.int rng 0x3fffffff) (n + 1))

let ingest ?counters ~cache_pages keys =
  let disk = Disk.create () in
  let cache = Cache.create ?counters ~disk ~capacity:cache_pages () in
  let tree =
    Btree.create ~cache ~page_capacity:256
      ~hooks:Btree.null_hooks
  in
  Array.iter (fun key -> Btree.set tree ~key ~data:(String.make 21 'v')) keys;
  tree

let count_line name count ~ceiling =
  Printf.printf "%-45s %12d  (gate <= %d)\n" name count ceiling;
  count <= ceiling

let gate_index_density tree =
  let leaves = List.length (Btree.leaf_pages tree) in
  let inner = List.length (Btree.all_pages tree) - leaves in
  let leaf_gate =
    count_line "B-tree: leaf pages, 10k ingest keys" leaves ~ceiling:3454
  in
  count_line "B-tree: inner pages, 10k ingest keys" inner ~ceiling:502
  && leaf_gate

(* The data requests one key-locked scan of 10 rows sends through a
   reliable 1x1 [Kernel]: fetch-ahead's probe, then one fetch of the
   locked keys' window.  With a second probe to verify the first before
   a visible-rows scan it sent 3. *)
let gate_scan_requests () =
  let k = Bench_util.make_kernel () in
  let tc = Kernel.tc k in
  let txn = Tc.begin_txn tc in
  for j = 0 to 19 do
    ok (Tc.insert tc txn ~table:"kv" ~key:(key_of j) ~value:"v")
  done;
  ok (Tc.commit tc txn);
  let txn = Tc.begin_txn tc in
  let before = Tc.messages_sent tc in
  let rows = ok (Tc.scan tc txn ~table:"kv" ~from_key:"" ~limit:10) in
  let sent = Tc.messages_sent tc - before in
  ok (Tc.commit tc txn);
  if List.length rows <> 10 then failwith "the scan missed rows";
  count_line "fetch-ahead 10-key scan, requests" sent ~ceiling:2

(* The same inserts through a 64-page cache, a front_ingest DC's size,
   with no operation latch: every miss is a page read.  Leaves-first
   eviction keeps the inner pages every descent needs resident, and
   room is made before a page enters, so a faulted-in leaf is not its
   own victim: 20902 misses.  With room made after it entered, the lone
   leaf in its ring was evicted as it came in: 24948.  One clock over
   both kinds of page missed 23852 times, 22292 with balanced splits. *)
let gate_ingest_misses keys =
  let counters = Untx_util.Instrument.create () in
  ignore (ingest ~counters ~cache_pages:64 keys);
  count_line "Cache: misses, 10k ingest keys, 64 pages"
    (Untx_util.Instrument.get counters "cache.misses")
    ~ceiling:20902

(* One point descent ([Btree.find_leaf], the lookup every DC write and
   read starts with) over that tree, its keys taken in turn: it reads a
   child id at each inner level and allocates nothing, with decimal-text
   ids as with varint ones.  Reading each id through a [Codec.reader]
   took 16 words here (4 a level) and put the DC-apply and redo word
   lines at 176.2 and 177.7, under their 200-word ceilings. *)
let gate_descent_alloc tree keys =
  let i = ref 0 in
  alloc_line "B-tree: find_leaf, 10k ingest keys, words" ~ceiling:0.
    (fun () ->
      i := (!i + 1) mod Array.length keys;
      Btree.find_leaf tree (Array.unsafe_get keys !i))

let run_gates () =
  Printf.printf "\nMicro gates (ns/op)\n";
  let reconstruct = gate_reconstruct () in
  let lwm_flat = gate_lwm_flat () in
  let dc_apply = gate_dc_apply () in
  let tc_dispatch = gate_tc_dispatch () in
  let codec_ns = gate_codec_ns () in
  let codec_alloc = gate_codec_alloc () in
  let codec_bytes = gate_codec_bytes () in
  let hot_alloc = gate_hot_path_alloc () in
  let redo_alloc = gate_redo_alloc () in
  let wal = gate_wal () in
  let transport = gate_transport_alloc () in
  let keys = density_keys () in
  let tree = ingest ~cache_pages:16_384 keys in
  let density = gate_index_density tree in
  let descent = gate_descent_alloc tree keys in
  let misses = gate_ingest_misses keys in
  let scan_requests = gate_scan_requests () in
  if
    not
      (reconstruct && lwm_flat && dc_apply && tc_dispatch && codec_ns
     && codec_alloc && codec_bytes && hot_alloc && redo_alloc && wal && transport && density
     && descent && misses && scan_requests)
  then begin
    Printf.printf "MICRO FAILED: a gate above is over its bound\n";
    exit 1
  end

let benchmark () =
  let tests =
    Test.make_grouped ~name:"untx"
      [
        kernel_txn_test (); kernel_read_test (); mono_txn_test (); ablsn_test ();
        btree_test (); page_test (); layer_reconstruct_test ();
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\nMicro-benchmarks (ns/op, OLS on monotonic clock)\n";
  Printf.printf "%-45s %12s\n" "operation" "ns/op";
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-45s %12.0f\n" name est
      | _ -> Printf.printf "%-45s %12s\n" name "-")
    results

let run () =
  benchmark ();
  run_gates ()
