(* TC behaviours: the two range protocols, write pipelining under a
   reordering transport, checkpoint/log truncation, LWM flow, deadlock
   resolution. *)

open Helpers
module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Lsn = Untx_util.Lsn
module Op = Untx_msg.Op
module Wire = Untx_msg.Wire
module Stored_record = Untx_dc.Stored_record

let table = "kv"

let seed_rows k n =
  let rec go i =
    if i < n then begin
      let txn = Tc.begin_txn (Kernel.tc k) in
      let hi = min n (i + 64) in
      for j = i to hi - 1 do
        ok
          (Tc.insert (Kernel.tc k) txn ~table
             ~key:(Printf.sprintf "k%04d" j)
             ~value:(Printf.sprintf "v%04d" j))
      done;
      ok (Tc.commit (Kernel.tc k) txn);
      go hi
    end
  in
  go 0

let scan_all k =
  let txn = Tc.begin_txn (Kernel.tc k) in
  let rows = ok (Tc.scan (Kernel.tc k) txn ~table ~from_key:"" ~limit:max_int) in
  ok (Tc.commit (Kernel.tc k) txn);
  rows

let test_scan_protocols_agree () =
  let run cc =
    let k = make_kernel ~cc_protocol:cc () in
    seed_rows k 150;
    scan_all k
  in
  let by_key = run Tc.Key_locks in
  let by_range = run (Tc.Range_locks 32) in
  Alcotest.(check (list (pair string string)))
    "identical results" by_key by_range;
  Alcotest.(check int) "complete" 150 (List.length by_key)

let test_range_locks_fewer_acquisitions () =
  let locks_for cc =
    let k = make_kernel ~cc_protocol:cc () in
    seed_rows k 200;
    let before = Tc.lock_acquisitions (Kernel.tc k) in
    ignore (scan_all k);
    Tc.lock_acquisitions (Kernel.tc k) - before
  in
  let key_locks = locks_for Tc.Key_locks in
  let range_locks = locks_for (Tc.Range_locks 16) in
  Alcotest.(check bool)
    (Printf.sprintf "range (%d) < key (%d)" range_locks key_locks)
    true
    (range_locks < key_locks / 4)

let test_range_locks_writes () =
  let k = make_kernel ~cc_protocol:(Tc.Range_locks 8) () in
  seed_rows k 60;
  committed k
    [ (fun txn -> Tc.update (Kernel.tc k) txn ~table ~key:"k0033" ~value:"rw") ];
  Alcotest.(check (option string)) "update under range lock" (Some "rw")
    (get k ~table "k0033")

let test_pipelined_reordered_writes () =
  (* Several non-conflicting writes of one transaction in flight at once
     over a reordering transport: the DC sees genuine out-of-LSN-order
     arrivals (Section 5.1) and the abstract LSN machinery absorbs it. *)
  let policy =
    { Transport.delay_min = 0; delay_max = 4; reorder = true;
      dup_prob = 0.05; drop_prob = 0.05 }
  in
  let k = make_kernel ~policy ~seed:1234 () in
  let txn = Tc.begin_txn (Kernel.tc k) in
  for i = 0 to 39 do
    ok
      (Tc.insert (Kernel.tc k) txn ~table
         ~key:(Printf.sprintf "p%02d" i)
         ~value:(string_of_int i))
  done;
  ok (Tc.commit (Kernel.tc k) txn);
  Kernel.quiesce k;
  let rows = scan_all k in
  Alcotest.(check int) "all present exactly once" 40 (List.length rows);
  check_wellformed k

let test_checkpoint_truncates_log () =
  let k = make_kernel () in
  seed_rows k 100;
  let tc = Kernel.tc k in
  let records_before = Tc.log_records tc in
  Kernel.quiesce k;
  Alcotest.(check bool) "granted" true (Tc.checkpoint tc);
  Alcotest.(check bool) "rssp advanced" true Lsn.(Tc.rssp tc > Lsn.of_int 1);
  Alcotest.(check bool)
    (Printf.sprintf "log shrank (%d -> %d)" records_before (Tc.log_records tc))
    true
    (Tc.log_records tc < records_before / 2)

let test_checkpoint_not_granted_before_eosl () =
  (* With a sync policy that stalls flushes, an immediate checkpoint
     request cannot be granted. *)
  let k = make_kernel ~sync_policy:Dc.Stall_until_lwm () in
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"k" ~value:"v");
  ok (Tc.commit (Kernel.tc k) txn);
  (* force more unacknowledged work so the LWM stays behind *)
  let txn2 = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.insert (Kernel.tc k) txn2 ~table ~key:"k2" ~value:"v2");
  Kernel.quiesce k;
  ok (Tc.commit (Kernel.tc k) txn2);
  Alcotest.(check bool) "eventually granted after quiesce" true
    (Kernel.quiesce k;
     Tc.checkpoint (Kernel.tc k))

let test_aborted_txn_after_failed_op () =
  let k = make_kernel ~versioned:false () in
  put k ~table "a" "committed";
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"a" ~value:"x");
  (match Tc.insert (Kernel.tc k) txn ~table ~key:"a" ~value:"dup" with
  | `Fail _ -> ()
  | _ -> Alcotest.fail "dup insert must fail");
  (* the transaction can still proceed or abort cleanly *)
  Tc.abort (Kernel.tc k) txn ~reason:"test";
  Alcotest.(check (option string)) "rolled back" (Some "committed")
    (get k ~table "a")

let test_resends_counted_on_lossy_link () =
  let policy =
    { Transport.delay_min = 0; delay_max = 1; reorder = false;
      dup_prob = 0.; drop_prob = 0.3 }
  in
  let k = make_kernel ~policy ~seed:77 () in
  seed_rows k 50;
  Kernel.quiesce k;
  Alcotest.(check bool) "resends happened" true (Tc.resends (Kernel.tc k) > 0);
  Alcotest.(check int) "yet state is exact" 50 (List.length (scan_all k))

let test_wakeups_and_deadlock () =
  (* Two transactions contending: T1 holds a, wants b; T2 holds b, wants
     a.  resolve_deadlock aborts the youngest; the other completes. *)
  let k = make_kernel () in
  put k ~table "a" "0";
  put k ~table "b" "0";
  let tc = Kernel.tc k in
  let t1 = Tc.begin_txn tc in
  let t2 = Tc.begin_txn tc in
  ok (Tc.update tc t1 ~table ~key:"a" ~value:"1");
  ok (Tc.update tc t2 ~table ~key:"b" ~value:"2");
  (match Tc.update tc t1 ~table ~key:"b" ~value:"1b" with
  | `Blocked -> ()
  | _ -> Alcotest.fail "t1 should block on b");
  (match Tc.update tc t2 ~table ~key:"a" ~value:"2a" with
  | `Blocked -> ()
  | _ -> Alcotest.fail "t2 should block on a");
  (match Tc.resolve_deadlock tc with
  | Some victim -> Alcotest.(check int) "youngest dies" (Tc.xid t2) victim
  | None -> Alcotest.fail "deadlock undetected");
  Alcotest.(check bool) "t2 aborted" false (Tc.is_active t2);
  (* t1 was granted b by the victim's release *)
  let wakeups = Tc.wakeups tc in
  Alcotest.(check bool) "t1 woken" true (List.mem (Tc.xid t1) wakeups);
  ok (Tc.update tc t1 ~table ~key:"b" ~value:"1b");
  ok (Tc.commit tc t1);
  Alcotest.(check (option string)) "t1 effects" (Some "1b") (get k ~table "b");
  Alcotest.(check (option string))
    "a holds t1's committed value, not t2's" (Some "1") (get k ~table "a")

(* A finished transaction leaves nothing behind in the TC: with
   checkpoints truncating the log, the TC's memory after 5000
   transactions stays near its size after 1000, instead of growing with
   every transaction it ever ran. *)
let test_finished_txns_released () =
  let cfg = kernel_config () in
  let cfg = { cfg with tc = { cfg.tc with checkpoint_every = 50 } } in
  let k = Kernel.create cfg in
  Kernel.create_table k ~name:table ~versioned:true;
  seed_rows k 64;
  let run n =
    for i = 1 to n do
      let txn = Tc.begin_txn (Kernel.tc k) in
      ok
        (Tc.update (Kernel.tc k) txn ~table
           ~key:(Printf.sprintf "k%04d" (i mod 64))
           ~value:(Printf.sprintf "w%d" i));
      if i mod 10 = 0 then Tc.abort (Kernel.tc k) txn ~reason:"test"
      else ok (Tc.commit (Kernel.tc k) txn)
    done
  in
  run 1000;
  let at_1000 = Obj.reachable_words (Obj.repr (Kernel.tc k)) in
  run 4000;
  let at_5000 = Obj.reachable_words (Obj.repr (Kernel.tc k)) in
  Alcotest.(check bool)
    (Printf.sprintf "TC words %d after 5000 txns within 1.5x of %d after 1000"
       at_5000 at_1000)
    true
    (float_of_int at_5000 <= 1.5 *. float_of_int at_1000)

(* A commit unwound after logging its version cleanup (here by a
   durability gate that raises once, as a promotion does) never sends
   that cleanup; the retry logs and sends a fresh one.  The unsent
   husk must not hold the low-water mark below it afterwards. *)
let test_unwound_commit_leaves_no_floor () =
  let k = make_kernel () in
  let tc = Kernel.tc k in
  let fail_once = ref true in
  Tc.set_durability_gate tc (fun _ ->
      if !fail_once then begin
        fail_once := false;
        raise Exit
      end);
  let txn = Tc.begin_txn tc in
  ok (Tc.insert tc txn ~table ~key:"a" ~value:"1");
  (match Tc.commit tc txn with
  | exception Exit -> ()
  | _ -> Alcotest.fail "the gate should have raised");
  let husk = Tc.last_lsn tc in
  ok (Tc.commit tc txn);
  Kernel.quiesce k;
  let lwm = Dc.lwm_of (Kernel.dc k) (Tc.id tc) in
  Alcotest.(check bool)
    (Printf.sprintf "lwm %d passes the husk %d" (Lsn.to_int lwm)
       (Lsn.to_int husk))
    true
    Lsn.(husk < lwm)

(* A request in flight at one partition holds that partition's
   low-water mark only.  One TC over two DCs: dc1's data replies are
   held back in its link's [drain] while a second transaction commits on
   dc0 with a mark pushed after every ack.  dc0's mark moves past the
   LSN still in flight at dc1, and dc1's stays below it until the held
   replies arrive. *)
let test_sibling_lwm_advances () =
  let tc =
    Tc.create { (Tc.default_config (Tc_id.of_int 1)) with lwm_every = 1 }
  in
  let hold = ref true and held = ref [] in
  let attach name part =
    let dc = Dc.create (kernel_config ()).Kernel.dc in
    Dc.set_identity dc ~part;
    Dc.create_table dc ~name:table ~versioned:true;
    let transport =
      Transport.create ~seed:part ~data:(Dc.handle_request_frame dc)
        ~control:(Dc.handle_control_frame dc) ()
    in
    let drain () =
      let replies, ctl = Transport.drain transport in
      if part = 0 then (replies, ctl)
      else if !hold then begin
        held := !held @ replies;
        ([], ctl)
      end
      else begin
        let replies = !held @ replies in
        held := [];
        (replies, ctl)
      end
    in
    Tc.attach_dc tc
      {
        Tc.dc_name = name;
        part;
        send = Transport.send transport;
        send_control = Transport.send_control transport;
        drain;
      };
    dc
  in
  let dc0 = attach "dc0" 0 and dc1 = attach "dc1" 1 in
  Tc.map_table_partitioned tc ~table ~versioned:true ~partition:(fun key ->
      if key.[0] = 'a' then "dc0" else "dc1");
  let lwm dc = Dc.lwm_of dc (Tc.id tc) in
  let slow = Tc.begin_txn tc in
  ok (Tc.insert tc slow ~table ~key:"b1" ~value:"held");
  let in_flight = Tc.last_lsn tc in
  let fast = Tc.begin_txn tc in
  ok (Tc.insert tc fast ~table ~key:"a1" ~value:"v");
  ok (Tc.commit tc fast);
  (* one more round trip on dc0 delivers the marks the commit pushed *)
  ignore (Tc.read_committed tc ~table ~key:"a1");
  Alcotest.(check bool)
    (Printf.sprintf "dc0's mark %d passes %d, in flight at dc1"
       (Lsn.to_int (lwm dc0)) (Lsn.to_int in_flight))
    true
    Lsn.(in_flight < lwm dc0);
  Alcotest.(check bool)
    (Printf.sprintf "dc1's mark %d stays below %d" (Lsn.to_int (lwm dc1))
       (Lsn.to_int in_flight))
    true
    Lsn.(lwm dc1 < in_flight);
  hold := false;
  ok (Tc.commit tc slow);
  Tc.quiesce tc;
  Alcotest.(check bool) "dc1's mark passes it once acknowledged" true
    Lsn.(in_flight < lwm dc1)

(* A data request the DC never answers is resent on the session's
   backoff clock until its 32 resends are spent; the commit waiting on
   it then fails loudly instead of hanging. *)
let test_unanswered_request_times_out () =
  let counters = Untx_util.Instrument.create () in
  let tc = Tc.create ~counters (Tc.default_config (Tc_id.of_int 1)) in
  let dc = Dc.create (kernel_config ()).Kernel.dc in
  Dc.create_table dc ~name:table ~versioned:true;
  let transport =
    Transport.create ~seed:1 ~data:(Dc.handle_request_frame dc)
      ~control:(Dc.handle_control_frame dc) ()
  in
  let sent = ref 0 in
  Tc.attach_dc tc
    {
      Tc.dc_name = "dc0";
      part = 0;
      send = (fun _ -> incr sent) (* every data frame is lost *);
      send_control = Transport.send_control transport;
      drain = (fun () -> Transport.drain transport);
    };
  Tc.map_table tc ~table ~dc:"dc0" ~versioned:true;
  let txn = Tc.begin_txn tc in
  ok (Tc.insert tc txn ~table ~key:"k" ~value:"v");
  (match Tc.commit tc txn with
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names the spent budget" msg)
      true
      (String.ends_with ~suffix:"timed out after 32 resends" msg)
  | _ -> Alcotest.fail "the commit outlived an unanswered request");
  let count name = Untx_util.Instrument.get counters name in
  Alcotest.(check int) "tc.request_timeouts" 1 (count "tc.request_timeouts");
  Alcotest.(check int) "tc.resends" 32 (count "tc.resends");
  Alcotest.(check int) "first send and 32 resends" 33 !sent

(* A TC and a DC joined by [Kernel.link ~wrap], over 12 committed rows:
   [on_reply op result] sees each data request's operation and its
   result once the DC has answered, before the reply travels back.  The
   returned hook runs once, after the next probe's answer — a concurrent
   transaction's write landing between a probe and the read after it. *)
let watched_pair on_reply =
  let after_probe = ref ignore in
  let tc = Tc.create (Tc.default_config (Tc_id.of_int 1)) in
  let dc = Dc.create (kernel_config ()).Kernel.dc in
  Dc.create_table dc ~name:table ~versioned:true;
  let wrap handler frame =
    let reply = handler frame in
    (match (frame.[0], reply) with
    | 'Q', Some r -> (
      match (Wire.decode_request frame, Wire.decode_reply r) with
      | Wire.Request { op; _ }, Wire.Reply { result; _ } -> (
        on_reply op result;
        match op with
        | Op.Probe _ ->
          let f = !after_probe in
          after_probe := ignore;
          f ()
        | _ -> ())
      | _ -> ())
    | _ -> ());
    reply
  in
  ignore (Kernel.link ~wrap ~seed:1 tc ~dc_name:"dc0" dc);
  Tc.map_table tc ~table ~dc:"dc0" ~versioned:true;
  let txn = Tc.begin_txn tc in
  for j = 0 to 11 do
    ok
      (Tc.insert tc txn ~table
         ~key:(Printf.sprintf "k%04d" j)
         ~value:(Printf.sprintf "v%04d" j))
  done;
  ok (Tc.commit tc txn);
  (tc, dc, after_probe)

let op_name = function
  | Op.Probe _ -> "probe"
  | Op.Fetch _ -> "fetch"
  | op -> Format.asprintf "%a" Op.pp op

let keys_of rows = List.map fst rows

let seeded from upto =
  List.init (upto - from + 1) (fun i -> Printf.sprintf "k%04d" (from + i))

(* Fetch-ahead takes two requests a batch: a probe, then a fetch of the
   locked keys' window.  A row that enters the window between the two
   makes the fetch's keys differ from the locked keys: the scan locks
   the window's keys and fetches again, with no new probe, and returns
   the new row under its lock. *)
let test_fetch_ahead_respeculates () =
  let sent = ref [] in
  let tc, dc, after_probe =
    watched_pair (fun op _ -> sent := op_name op :: !sent)
  in
  let scan txn =
    sent := [];
    let rows = ok (Tc.scan tc txn ~table ~from_key:"" ~limit:10) in
    (rows, List.rev !sent)
  in
  let quiet = Tc.begin_txn tc in
  let rows, requests = scan quiet in
  ok (Tc.commit tc quiet);
  Alcotest.(check (list string)) "nothing moving: two requests"
    [ "probe"; "fetch" ] requests;
  Alcotest.(check (list string)) "the first ten rows" (seeded 0 9)
    (keys_of rows);
  after_probe :=
    (fun () ->
      Dc.install_record dc ~table ~key:"k0004a"
        (Stored_record.plain ~writer:(Tc.id tc) ~wlsn:Lsn.zero "new"));
  let s = Tc.begin_txn tc in
  let rows, requests = scan s in
  Alcotest.(check (list string)) "a mismatch fetches again, no new probe"
    [ "probe"; "fetch"; "fetch" ] requests;
  Alcotest.(check (list string)) "the entered row is returned"
    (seeded 0 4 @ [ "k0004a" ] @ seeded 5 8)
    (keys_of rows);
  let w = Tc.begin_txn tc in
  (match Tc.update tc w ~table ~key:"k0004a" ~value:"w" with
  | `Blocked -> ()
  | _ -> Alcotest.fail "the scan should hold k0004a's lock");
  ok (Tc.commit tc s);
  Tc.abort tc w ~reason:"test"

(* A window's rows the reader cannot see travel as bare keys: the scan
   locks them with the rest and never returns them.  Here the deleter
   holds k0004a's X lock, and its tombstone — an insert and delete of
   its own — lands after the scanner's probe, so the fetch's window
   names a key the probe did not: the scanner must lock it, and blocks
   on the deleter. *)
let test_fetch_ahead_hidden_keys () =
  let windows = ref [] in
  let tc, dc, after_probe =
    watched_pair (fun _ -> function
      | Wire.Window { rows; hidden } ->
        windows := (keys_of rows, hidden) :: !windows
      | _ -> ())
  in
  let d = Tc.begin_txn tc in
  ok (Tc.delete tc d ~table ~key:"k0004a");
  let tombstone =
    { Stored_record.value = "gone"; deleted = true;
      before = Stored_record.Null_before; writer = Tc.id tc;
      wlsn = Tc.last_lsn tc }
  in
  after_probe :=
    (fun () -> Dc.install_record dc ~table ~key:"k0004a" tombstone);
  let s = Tc.begin_txn tc in
  (match Tc.scan tc s ~table ~from_key:"" ~limit:10 with
  | `Blocked -> ()
  | `Ok rows ->
    Alcotest.failf "the scan returned %s without locking k0004a"
      (String.concat "," (keys_of rows))
  | `Fail m -> Alcotest.fail m);
  Alcotest.(check (list (pair (list string) (list string))))
    "the fetch lists the tombstone bare"
    [ (seeded 0 4 @ seeded 5 8, [ "k0004a" ]) ]
    !windows;
  (* the deleter reads its own window: the tombstone stays a bare key *)
  windows := [];
  let own = ok (Tc.scan tc d ~table ~from_key:"" ~limit:10) in
  Alcotest.(check (list string)) "the deleter skips it" (seeded 0 9)
    (keys_of own);
  Alcotest.(check (list (list string))) "hidden in the deleter's reads"
    [ [ "k0004a" ]; [] ]
    (List.rev_map snd !windows);
  ok (Tc.commit tc d);
  Alcotest.(check bool) "the scanner is granted k0004a" true
    (List.mem (Tc.xid s) (Tc.wakeups tc));
  let rows = ok (Tc.scan tc s ~table ~from_key:"" ~limit:10) in
  ok (Tc.commit tc s);
  Alcotest.(check (list string)) "after the commit, the rows without it"
    (seeded 0 9) (keys_of rows)

let suite =
  [
    Alcotest.test_case "scan protocols agree" `Quick test_scan_protocols_agree;
    Alcotest.test_case "range locks are fewer" `Quick
      test_range_locks_fewer_acquisitions;
    Alcotest.test_case "writes under range locks" `Quick
      test_range_locks_writes;
    Alcotest.test_case "pipelined reordered writes" `Quick
      test_pipelined_reordered_writes;
    Alcotest.test_case "checkpoint truncates log" `Quick
      test_checkpoint_truncates_log;
    Alcotest.test_case "checkpoint needs stability" `Quick
      test_checkpoint_not_granted_before_eosl;
    Alcotest.test_case "failed op then abort" `Quick
      test_aborted_txn_after_failed_op;
    Alcotest.test_case "resends on lossy link" `Quick
      test_resends_counted_on_lossy_link;
    Alcotest.test_case "wakeups and deadlock" `Quick test_wakeups_and_deadlock;
    Alcotest.test_case "finished transactions are released" `Quick
      test_finished_txns_released;
    Alcotest.test_case "an unwound commit leaves no floor" `Quick
      test_unwound_commit_leaves_no_floor;
    Alcotest.test_case "a sibling partition's mark passes a held request"
      `Quick test_sibling_lwm_advances;
    Alcotest.test_case "fetch-ahead speculates again on a mismatch" `Quick
      test_fetch_ahead_respeculates;
    Alcotest.test_case "fetch-ahead locks hidden keys" `Quick
      test_fetch_ahead_hidden_keys;
    Alcotest.test_case "an unanswered request times out" `Quick
      test_unanswered_request_times_out;
  ]
