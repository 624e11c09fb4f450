(* E9 — System-transaction logging and reordered replay (Section 5.2.2).

   Splits are logged with a logical record for the pre-split page (just
   the separator) plus a physical image of the new page; page deletes
   log the consolidated survivor physically with merged abstract LSNs —
   "more costly in log space... but page deletes are rare".

   We drive a split-heavy phase then a delete-heavy phase, report
   per-SMO modeled log bytes for each kind ([Smo_record.size]: the
   DC-log holds values, not encoded records), and verify that DC recovery (which
   replays these records before any TC redo, out of their original
   order relative to TC operations) rebuilds well-formed trees. *)

open Bench_util
module Kernel = Untx_kernel.Kernel
module Dc = Untx_dc.Dc

let table = "kv"

let ok = function
  | `Ok v -> v
  | `Blocked -> failwith "blocked"
  | `Fail m -> failwith m

let run () =
  let k = make_kernel ~page_capacity:384 ~seed:91 () in
  let dc = Kernel.dc k in
  let n = 4_000 in
  (* phase 1: inserts -> splits *)
  let bytes0 = Dc.dc_log_bytes dc in
  let rec fill i =
    if i < n then begin
      let txn = Tc.begin_txn (Kernel.tc k) in
      let hi = min n (i + 50) in
      for j = i to hi - 1 do
        ok
          (Tc.insert (Kernel.tc k) txn ~table
             ~key:(Printf.sprintf "k%06d" j)
             ~value:(String.make 24 'v'))
      done;
      ok (Tc.commit (Kernel.tc k) txn);
      fill hi
    end
  in
  fill 0;
  Kernel.quiesce k;
  let splits = Dc.splits dc in
  let split_bytes = Dc.dc_log_bytes dc - bytes0 in
  (* phase 2: deletes -> consolidations *)
  let bytes1 = Dc.dc_log_bytes dc in
  let rec drain i =
    if i < n then begin
      let txn = Tc.begin_txn (Kernel.tc k) in
      let hi = min n (i + 50) in
      for j = i to hi - 1 do
        if j mod 8 <> 0 then
          ok (Tc.delete (Kernel.tc k) txn ~table ~key:(Printf.sprintf "k%06d" j))
      done;
      ok (Tc.commit (Kernel.tc k) txn);
      drain hi
    end
  in
  drain 0;
  Kernel.quiesce k;
  let consolidations = Dc.consolidations dc in
  let consolidate_bytes = Dc.dc_log_bytes dc - bytes1 in
  (* What the traditional *logical* delete record would cost: survivor
     id, freed id, parent id, separator key — no page image. *)
  let logical_delete_bytes = consolidations * 40 in
  print_table
    ~title:
      (Printf.sprintf
         "E9  System-transaction log volume (%d inserts then %d deletes, \
          384B pages)"
         n (n * 7 / 8))
    ~header:[ "SMO kind"; "count"; "modeled log bytes"; "bytes/SMO" ]
    [
      [
        "page split (separator + new-page image)"; string_of_int splits;
        string_of_int split_bytes; fmt_f (per split_bytes splits);
      ];
      [
        "page delete, physical (as required)"; string_of_int consolidations;
        string_of_int consolidate_bytes;
        fmt_f (per consolidate_bytes consolidations);
      ];
      [
        "page delete, logical (unsound here)"; string_of_int consolidations;
        string_of_int logical_delete_bytes;
        fmt_f (per logical_delete_bytes consolidations);
      ];
    ];
  (* reordered replay correctness *)
  Kernel.crash_dc k;
  (match Dc.check dc with
  | Ok () -> print_endline "replay check: DC-log replayed before TC redo; trees well-formed: OK"
  | Error m -> failwith ("E9 replay produced ill-formed tree: " ^ m));
  let rows = List.length (Dc.dump_table dc table) in
  Printf.printf
    "claim check: physically logging the consolidated page costs ~%.0fx \
     what the traditional logical\ndelete record would — the price \
     (Section 5.2.2) of letting deletes replay before TC redo while\n\
     keeping their order against TC operations.  'Page deletes are rare, \
     so the extra cost should\nnot be significant.'  %d surviving records \
     were intact after a crash whose recovery replayed\nevery SMO out of \
     its original order.\n"
    (per consolidate_bytes (max 1 logical_delete_bytes) *. float_of_int 1)
    rows
