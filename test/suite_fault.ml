(* The fault-injection layer itself: plan determinism, rule semantics,
   and the storage/WAL failure models built on top of it (torn page
   writes, transient I/O errors, partial log force). *)

module Fault = Untx_fault.Fault
module Instrument = Untx_util.Instrument
module Lsn = Untx_util.Lsn
module Page = Untx_storage.Page
module Disk = Untx_storage.Disk
module Wal = Untx_wal.Wal

let teardown () = Fault.disarm ()

let hits_crash point = try Fault.hit point; false with Fault.Injected_crash p ->
  Alcotest.(check string) "crash payload names the point" point p;
  true

let test_nth_fires_once () =
  Fault.arm [ Fault.crash_at "t.point" 3 ];
  Alcotest.(check bool) "hit 1 passes" false (hits_crash "t.point");
  Alcotest.(check bool) "hit 2 passes" false (hits_crash "t.point");
  Alcotest.(check bool) "hit 3 fires" true (hits_crash "t.point");
  (* Nth rules are consumed: the plan stays armed but the rule is spent. *)
  Alcotest.(check bool) "hit 4 passes" false (hits_crash "t.point");
  Alcotest.(check (list string)) "fired log" [ "t.point" ] (Fault.fired_points ());
  Alcotest.(check int) "hits counted" 4 (Fault.hits "t.point");
  teardown ()

let test_prob_deterministic () =
  let run () =
    Fault.arm ~seed:11 [ Fault.crash_with_prob "t.p" 0.3 ];
    let fires = ref [] in
    for i = 1 to 100 do
      if hits_crash "t.p" then fires := i :: !fires
    done;
    List.rev !fires
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "prob rule fired at all" true (a <> []);
  Alcotest.(check (list int)) "same seed, same firing instants" a b;
  Fault.arm ~seed:12 [ Fault.crash_with_prob "t.p" 0.3 ];
  let fires = ref [] in
  for i = 1 to 100 do
    if hits_crash "t.p" then fires := i :: !fires
  done;
  Alcotest.(check bool) "different seed, different instants" true
    (List.rev !fires <> a);
  teardown ()

let test_disarm_and_io_error () =
  Fault.arm [ Fault.io_error_at "t.io" 1 ];
  (try Fault.hit "t.io"; Alcotest.fail "expected Io_error"
   with Fault.Io_error p -> Alcotest.(check string) "payload" "t.io" p);
  Fault.disarm ();
  Alcotest.(check bool) "disarmed hit is a no-op" false (hits_crash "t.io");
  Alcotest.(check (list string)) "fired log survives disarm" [ "t.io" ]
    (Fault.fired_points ());
  Alcotest.(check bool) "points enumerable" true
    (List.mem "disk.page_write.torn" (Fault.declared ()))

let page ~id v =
  let p =
    Page.create ~id:(Untx_storage.Page_id.of_int id) ~kind:Page.Leaf
      ~capacity:256
  in
  Page.set p ~key:"k" ~data:v;
  p

let test_torn_write () =
  let counters = Instrument.create () in
  let d = Disk.create ~counters () in
  let pid = Disk.alloc d in
  let id = Untx_storage.Page_id.to_int pid in
  Disk.write d (page ~id "old");
  Fault.arm ~seed:1 [ Fault.crash_at "disk.page_write.torn" 1 ];
  (try Disk.write d (page ~id "new"); Alcotest.fail "expected crash"
   with Fault.Injected_crash _ -> ());
  Fault.disarm ();
  (* The torn image persisted only a prefix: its checksum fails on read
     and the last fully written image is served instead. *)
  let back = Option.get (Disk.read d pid) in
  Alcotest.(check (option string)) "reader sees the pre-crash image"
    (Some "old") (Page.find back "k");
  Alcotest.(check int) "torn write counted" 1 (Disk.torn_writes d);
  Alcotest.(check int) "torn image detected" 1 (Disk.torn_detected d);
  Alcotest.(check int) "counter mirrored" 1
    (Instrument.get counters "disk.torn_pages_detected")

let test_transient_io_retried () =
  let d = Disk.create () in
  let pid = Disk.alloc d in
  Fault.arm ~seed:1 [ Fault.io_error_at "disk.page_write.io" 1 ];
  (* A single transient error is absorbed by the bounded retry. *)
  Disk.write d (page ~id:(Untx_storage.Page_id.to_int pid) "v");
  Fault.disarm ();
  Alcotest.(check int) "retry recorded" 1 (Disk.io_retries d);
  Alcotest.(check bool) "write took effect" true (Disk.read d pid <> None);
  (* Persistent errors exhaust the retries and propagate. *)
  Fault.arm ~seed:1 [ Fault.io_error_with_prob "disk.page_read.io" 1.0 ];
  (try ignore (Disk.read d pid); Alcotest.fail "expected Io_error"
   with Fault.Io_error _ -> ());
  teardown ()

let test_wal_partial_force () =
  let w = Wal.create ~label:"wal.test" ~size:String.length () in
  let l1 = Wal.append w "a" in
  let _l2 = Wal.append w "b" in
  let l3 = Wal.append w "c" in
  Fault.arm [ Fault.crash_at "wal.test.force.mid" 2 ];
  (try Wal.force w; Alcotest.fail "expected crash"
   with Fault.Injected_crash _ -> ());
  Fault.disarm ();
  Wal.crash w;
  (* The crash hit after the second record stabilized: the stable log is
     a strict prefix of the forced batch, and the tail is gone. *)
  Alcotest.(check int) "stable prefix" 2 (Wal.stable_count w);
  Alcotest.(check int) "tail lost" 0 (Wal.volatile_count w);
  Alcotest.(check (option string)) "first record stable" (Some "a")
    (Wal.find w l1);
  Alcotest.(check (option string)) "third record lost" None (Wal.find w l3);
  (* LSNs are never reused after the crash. *)
  Alcotest.(check bool) "fresh lsn above the lost tail" true
    Lsn.(Wal.append w "d" > l3)

(* Taken at link time, before any test arms a plan or builds a log:
   exactly the points the library's modules declare as they
   initialize. *)
let points_at_init = Fault.declared ()

(* Every fault point's owner, decided here: a new point fails the test
   below until someone decides which process it dies with, instead of
   inheriting an owner from its name prefix. *)
let owners =
  [
    ("dc.checkpoint.mid", `Dc);
    ("dc.flush.after_page_write", `Dc);
    ("dc.flush.before_page_write", `Dc);
    ("dc.redo.batch", `Dc);
    ("dc.smo.consolidate.before_force", `Dc);
    ("dc.smo.split.mid", `Dc);
    ("disk.page_read.io", `Dc);
    ("disk.page_write.io", `Dc);
    ("disk.page_write.torn", `Dc);
    ("layer.compact.mid", `Dc);
    ("layer.ingest.drop", `Dc);
    ("repl.lease.expire", `Dc);
    ("repl.ship.batch", `Dc);
    ("tc.commit.after_force", `Tc);
    ("tc.commit.before_force", `Tc);
    ("tc.recover.mid", `Tc);
    ("transport.frame.corrupt", `Dc);
    ("wal.dc.force.begin", `Dc);
    ("wal.dc.force.mid", `Dc);
    ("wal.tc.force.begin", `Tc);
    ("wal.tc.force.mid", `Tc);
  ]

let test_point_owners () =
  (* the two logs declare their points when a kernel creates them *)
  ignore (Helpers.make_kernel ());
  let logs =
    List.filter
      (fun p ->
        String.starts_with ~prefix:"wal.tc." p
        || String.starts_with ~prefix:"wal.dc." p)
      (Fault.declared ())
  in
  let show = function `Tc -> "Tc" | `Dc -> "Dc" in
  List.iter
    (fun p ->
      match List.assoc_opt p owners with
      | None -> Alcotest.failf "fault point %s has no pinned owner" p
      | Some owner ->
        Alcotest.(check string)
          (p ^ " dies with its pinned owner")
          (show owner)
          (show (Fault.component_of_point p)))
    (points_at_init @ logs);
  Alcotest.(check (list string))
    "every pinned point is declared" (List.map fst owners)
    (List.sort_uniq String.compare (points_at_init @ logs))

let suite =
  [
    Alcotest.test_case "Nth rule fires once, deterministically" `Quick
      test_nth_fires_once;
    Alcotest.test_case "Prob rule is a pure function of the seed" `Quick
      test_prob_deterministic;
    Alcotest.test_case "disarm, Io_fail action, declared registry" `Quick
      test_disarm_and_io_error;
    Alcotest.test_case "torn page write persists a prefix" `Quick
      test_torn_write;
    Alcotest.test_case "transient I/O errors are retried" `Quick
      test_transient_io_retried;
    Alcotest.test_case "mid-force crash leaves a stable prefix" `Quick
      test_wal_partial_force;
    Alcotest.test_case "every fault point has a pinned owner" `Quick
      test_point_owners;
  ]
