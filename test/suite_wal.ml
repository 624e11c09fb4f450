(* Unit tests for the write-ahead log: volatile tail semantics, forcing,
   crash, truncation, LSN reservation. *)

module Wal = Untx_wal.Wal
module Lsn = Untx_util.Lsn
module Fault = Untx_fault.Fault

let mk () = Wal.create ~size:String.length ()

let lsn i = Lsn.of_int i

let test_append_assigns_lsns () =
  let w = mk () in
  let a = Wal.append w "one" in
  let b = Wal.append w "two" in
  Alcotest.(check int) "first lsn" 1 (Lsn.to_int a);
  Alcotest.(check int) "second lsn" 2 (Lsn.to_int b);
  Alcotest.(check int) "last" 2 (Lsn.to_int (Wal.last_lsn w));
  Alcotest.(check int) "nothing stable" 0 (Lsn.to_int (Wal.stable_lsn w))

let test_force_moves_tail () =
  let w = mk () in
  ignore (Wal.append w "a");
  ignore (Wal.append w "b");
  Wal.force w;
  Alcotest.(check int) "stable covers tail" 2 (Lsn.to_int (Wal.stable_lsn w));
  Alcotest.(check int) "stable count" 2 (Wal.stable_count w);
  Alcotest.(check int) "volatile empty" 0 (Wal.volatile_count w)

let test_crash_loses_unforced () =
  let w = mk () in
  ignore (Wal.append w "keep");
  Wal.force w;
  ignore (Wal.append w "lose1");
  ignore (Wal.append w "lose2");
  Wal.crash w;
  Alcotest.(check int) "stable intact" 1 (Wal.stable_count w);
  Alcotest.(check int) "tail gone" 0 (Wal.volatile_count w);
  (* LSNs remain unique after the crash *)
  let next = Wal.append w "after" in
  Alcotest.(check bool) "no LSN reuse" true (Lsn.to_int next > 3)

let test_reserve () =
  let w = mk () in
  let a = Wal.append w "op" in
  let r = Wal.reserve w in
  let b = Wal.append w "op2" in
  Alcotest.(check bool) "reserved between" true
    (Lsn.to_int r = Lsn.to_int a + 1 && Lsn.to_int b = Lsn.to_int r + 1);
  Wal.force w;
  (* the reserved gap is covered by stability *)
  Alcotest.(check int) "stable covers reserve" (Lsn.to_int b)
    (Lsn.to_int (Wal.stable_lsn w));
  Alcotest.(check (option string)) "no record at reserved" None
    (Wal.find w r)

let test_iter_from () =
  let w = mk () in
  for i = 1 to 5 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  let seen = ref [] in
  Wal.iter_from w (lsn 3) (fun l r -> seen := (Lsn.to_int l, r) :: !seen);
  Alcotest.(check (list (pair int string)))
    "from lsn 3"
    [ (3, "3"); (4, "4"); (5, "5") ]
    (List.rev !seen)

let test_truncate () =
  let w = mk () in
  for i = 1 to 5 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  Wal.truncate w (lsn 4);
  Alcotest.(check int) "records dropped" 2 (Wal.stable_count w);
  Alcotest.(check (option string)) "old gone" None (Wal.find w (lsn 2));
  Alcotest.(check (option string)) "kept" (Some "4") (Wal.find w (lsn 4))

(* Truncation boundaries: the checkpoint path truncates exactly at
   watermarks, so the edge cases (at stable, repeated, across a crash)
   must hold bit-for-bit. *)
let test_truncate_at_stable () =
  let w = mk () in
  for i = 1 to 5 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  Wal.truncate w (Wal.stable_lsn w);
  Alcotest.(check int) "only the stable head survives" 1 (Wal.stable_count w);
  Alcotest.(check (option string)) "head kept" (Some "5") (Wal.find w (lsn 5));
  Alcotest.(check int) "retained_from is the head" 5
    (Lsn.to_int (Wal.retained_from w))

let test_truncate_repeated () =
  let w = mk () in
  for i = 1 to 5 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  Wal.truncate w (lsn 3);
  let count = Wal.stable_count w in
  Wal.truncate w (lsn 3);
  Alcotest.(check int) "re-truncating to the same point is a no-op" count
    (Wal.stable_count w);
  Alcotest.(check int) "retained_from unchanged" 3
    (Lsn.to_int (Wal.retained_from w));
  (* truncating backwards must not resurrect anything either *)
  Wal.truncate w (lsn 2);
  Alcotest.(check (option string)) "dropped records stay dropped" None
    (Wal.find w (lsn 2));
  Alcotest.(check int) "floor never regresses" 3
    (Lsn.to_int (Wal.retained_from w))

let test_truncate_then_crash () =
  let w = mk () in
  for i = 1 to 4 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  Wal.truncate w (lsn 3);
  ignore (Wal.append w "tail");
  Wal.crash w;
  Alcotest.(check int) "retained_from survives the crash" 3
    (Lsn.to_int (Wal.retained_from w));
  Alcotest.(check int) "stable suffix intact" 2 (Wal.stable_count w);
  Alcotest.(check (option string)) "kept" (Some "3") (Wal.find w (lsn 3))

let test_iter_retained () =
  let w = mk () in
  for i = 1 to 5 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  Wal.truncate w (lsn 4);
  Alcotest.check_raises "cursor below the retained head raises"
    (Wal.Truncated { wanted = lsn 2; retained = lsn 4 })
    (fun () -> Wal.iter_retained w (lsn 2) (fun _ _ -> ()));
  let seen = ref [] in
  Wal.iter_retained w (lsn 4) (fun l _ -> seen := Lsn.to_int l :: !seen);
  Alcotest.(check (list int)) "at the head is fine" [ 4; 5 ] (List.rev !seen);
  (* an untruncated log accepts any cursor, including the legal
     from-zero full scan recovery uses *)
  let fresh = mk () in
  ignore (Wal.append fresh "a");
  Wal.force fresh;
  let n = ref 0 in
  Wal.iter_retained fresh Lsn.zero (fun _ _ -> incr n);
  Alcotest.(check int) "fresh log scans from zero" 1 !n

let test_force_through () =
  let w = mk () in
  let a = Wal.append w "a" in
  Wal.force_through w a;
  Alcotest.(check int) "forced" 1 (Lsn.to_int (Wal.stable_lsn w));
  let forces = Wal.forces w in
  Wal.force_through w a;
  Alcotest.(check int) "no redundant force" forces (Wal.forces w)

let test_find_volatile () =
  let w = mk () in
  let a = Wal.append w "tail" in
  Alcotest.(check (option string)) "find in tail" (Some "tail") (Wal.find w a)

(* A scan visits exactly the records stable when it began: a force from
   inside the callback adds none, and a truncation (even one that drops
   every record and so compacts the store) drops none. *)
let test_scan_is_snapshot () =
  let w = mk () in
  for i = 1 to 40 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  let seen = ref [] in
  Wal.iter_from w (lsn 30) (fun l r ->
      seen := (Lsn.to_int l, r) :: !seen;
      if Lsn.to_int l = 30 then begin
        for i = 41 to 80 do
          ignore (Wal.append w (string_of_int i))
        done;
        Wal.force w
      end;
      if Lsn.to_int l = 35 then Wal.truncate w (lsn 81));
  Alcotest.(check (list (pair int string)))
    "visited exactly 30..40"
    (List.init 11 (fun i -> (30 + i, string_of_int (30 + i))))
    (List.rev !seen);
  Alcotest.(check int) "the truncation took effect" 0 (Wal.stable_count w);
  let n = ref 0 in
  Wal.iter_retained w (lsn 81) (fun _ _ -> incr n);
  Alcotest.(check int) "a later scan sees the truncated log" 0 !n

(* Truncated records are released once the stable store compacts, not
   held for the life of the log.  The record is built out of line, so no
   stack slot of this function keeps it reachable. *)
let test_truncated_record_is_released () =
  let w = mk () in
  let weak = Weak.create 1 in
  let append_tracked () =
    let r = String.make 64 'x' in
    Weak.set weak 0 (Some r);
    ignore (Wal.append w r)
  in
  (Sys.opaque_identity append_tracked) ();
  for i = 2 to 10 do
    ignore (Wal.append w (string_of_int i))
  done;
  Wal.force w;
  Gc.full_major ();
  Alcotest.(check bool) "held while retained" true (Weak.check weak 0);
  Wal.truncate w (lsn 8);
  Gc.full_major ();
  Alcotest.(check bool) "released after compaction" false (Weak.check weak 0);
  Alcotest.(check (list string)) "the survivors" [ "8"; "9"; "10" ]
    (let seen = ref [] in
     Wal.iter_from w Lsn.zero (fun _ r -> seen := r :: !seen);
     List.rev !seen)

(* A force cut short by its mid-force fault point leaves a stable prefix
   with the whole batch still in the tail; forcing again stabilizes the
   rest without appending the prefix a second time. *)
let test_force_again_after_cut () =
  let w = Wal.create ~label:"wal.reforce" ~size:String.length () in
  List.iter (fun r -> ignore (Wal.append w r)) [ "a"; "b"; "c" ];
  Fault.arm [ Fault.crash_at "wal.reforce.force.mid" 2 ];
  (try
     Wal.force w;
     Alcotest.fail "expected crash"
   with Fault.Injected_crash _ -> ());
  Fault.disarm ();
  Alcotest.(check int) "stable prefix" 2 (Wal.stable_count w);
  Wal.force w;
  let seen = ref [] in
  Wal.iter_from w Lsn.zero (fun l r -> seen := (Lsn.to_int l, r) :: !seen);
  Alcotest.(check (list (pair int string)))
    "each record once"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !seen)

let test_bytes_accounting () =
  let w = mk () in
  ignore (Wal.append w "12345");
  ignore (Wal.append w "123");
  Alcotest.(check int) "bytes" 8 (Wal.appended_bytes w)

(* A force with nothing volatile writes nothing: it counts no force and
   takes no timing sample, but still fires its begin fault point and
   makes reserved LSNs stable. *)
let test_empty_force_counts_nothing () =
  let counters = Untx_obs.Metrics.create () in
  Untx_obs.Metrics.set_timed counters true;
  let w = Wal.create ~counters ~label:"wal.empty" ~size:String.length () in
  let samples () =
    match Untx_obs.Metrics.hist_snapshot counters "wal.empty.force_ns" with
    | Some h -> h.Untx_obs.Metrics.s_count
    | None -> 0
  in
  Fault.arm [];
  ignore (Wal.append w "a");
  Wal.force w;
  let r = Wal.reserve w in
  Wal.force w;
  Wal.force w;
  let begins = Fault.hits "wal.empty.force.begin" in
  Fault.disarm ();
  Alcotest.(check int) "one force counted" 1 (Wal.forces w);
  Alcotest.(check int) "one wal.forces" 1
    (Untx_obs.Metrics.get_counter counters "wal.forces");
  Alcotest.(check int) "one force_ns sample" 1 (samples ());
  Alcotest.(check int) "every force fires force.begin" 3 begins;
  Alcotest.(check int) "the reserved LSN is stable" (Lsn.to_int r)
    (Lsn.to_int (Wal.stable_lsn w))

let suite =
  [
    Alcotest.test_case "append assigns LSNs" `Quick test_append_assigns_lsns;
    Alcotest.test_case "force moves tail" `Quick test_force_moves_tail;
    Alcotest.test_case "crash loses unforced tail" `Quick
      test_crash_loses_unforced;
    Alcotest.test_case "reserve" `Quick test_reserve;
    Alcotest.test_case "iter_from" `Quick test_iter_from;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "truncate at stable_lsn" `Quick test_truncate_at_stable;
    Alcotest.test_case "repeated truncation" `Quick test_truncate_repeated;
    Alcotest.test_case "truncate then crash" `Quick test_truncate_then_crash;
    Alcotest.test_case "iter_retained checks the floor" `Quick
      test_iter_retained;
    Alcotest.test_case "force_through" `Quick test_force_through;
    Alcotest.test_case "find in volatile tail" `Quick test_find_volatile;
    Alcotest.test_case "byte accounting" `Quick test_bytes_accounting;
    Alcotest.test_case "a scan is a snapshot" `Quick test_scan_is_snapshot;
    Alcotest.test_case "forcing again after a cut force" `Quick
      test_force_again_after_cut;
    Alcotest.test_case "truncated records are released" `Quick
      test_truncated_record_is_released;
    Alcotest.test_case "a force with nothing volatile counts nothing" `Quick
      test_empty_force_counts_nothing;
  ]
