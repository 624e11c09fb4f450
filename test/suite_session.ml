(* The factored epoch/seq contract sessions (Untx_msg.Session): sender
   resend/backoff/ack bookkeeping and receiver
   ordering/buffering/duplicate-replay, isolated from any transport. *)

module Session = Untx_msg.Session

(* A loopback harness: sent frames pile up in [wire]; the test delivers
   them (in any order it likes) to a receiver and feeds acks back. *)
let mk_sender () =
  let wire = ref [] in
  let s : string Session.Sender.t = Session.Sender.create () in
  let post msg =
    Session.Sender.post s
      ~encode:(fun ~epoch ~seq -> Printf.sprintf "%d/%d/%s" epoch seq msg)
      ~send:(fun f -> wire := f :: !wire)
  in
  (s, wire, post)

let parse frame = Scanf.sscanf frame "%d/%d/%s" (fun e q m -> (e, q, m))

let test_in_order_round_trip () =
  let s, wire, post = mk_sender () in
  let r : (string, string) Session.Receiver.t = Session.Receiver.create () in
  let seqs =
    List.map (fun m -> Session.Sender.seq (post m)) [ "a"; "b"; "c" ]
  in
  Alcotest.(check (list int)) "dense seqs" [ 1; 2; 3 ] seqs;
  Alcotest.(check int) "unacked" 3 (Session.Sender.unacked s);
  List.iter
    (fun frame ->
      let epoch, seq, msg = parse frame in
      (match
         Session.Receiver.handle r ~epoch ~seq msg
           ~apply:(fun q m -> Printf.sprintf "r%d:%s" q m)
           ~fallback:"?"
       with
      | Session.Receiver.Applied reply ->
        Alcotest.(check bool) "acked fresh" true
          (Session.Sender.ack s ~epoch ~seq reply)
      | _ -> Alcotest.fail "expected Applied"))
    (List.rev !wire);
  Alcotest.(check int) "all acked" 0 (Session.Sender.unacked s);
  Alcotest.(check int) "receiver applied" 3 (Session.Receiver.applied r)

let test_out_of_order_buffered () =
  let _, wire, post = mk_sender () in
  let r : (string, string) Session.Receiver.t = Session.Receiver.create () in
  ignore (post "a");
  ignore (post "b");
  let frames = List.rev !wire in
  let f1 = List.nth frames 0 and f2 = List.nth frames 1 in
  let deliver frame =
    let epoch, seq, msg = parse frame in
    Session.Receiver.handle r ~epoch ~seq msg
      ~apply:(fun q m -> Printf.sprintf "r%d:%s" q m)
      ~fallback:"?"
  in
  (match deliver f2 with
  | Session.Receiver.Buffered -> ()
  | _ -> Alcotest.fail "ahead-of-turn frame must buffer");
  Alcotest.(check int) "nothing applied yet" 0 (Session.Receiver.applied r);
  (match deliver f1 with
  | Session.Receiver.Applied "r1:a" -> ()
  | _ -> Alcotest.fail "in-turn frame must apply");
  (* the buffered successor was drained by the in-turn apply *)
  Alcotest.(check int) "both applied" 2 (Session.Receiver.applied r);
  (* ... and its reply is collectable through the duplicate path *)
  match deliver f2 with
  | Session.Receiver.Replayed "r2:b" -> ()
  | _ -> Alcotest.fail "drained successor must replay from memo"

let test_duplicate_replays_same_reply () =
  let _, wire, post = mk_sender () in
  let r : (string, string) Session.Receiver.t = Session.Receiver.create () in
  ignore (post "a");
  let applies = ref 0 in
  let deliver frame =
    let epoch, seq, msg = parse frame in
    Session.Receiver.handle r ~epoch ~seq msg
      ~apply:(fun q m ->
        incr applies;
        Printf.sprintf "r%d:%s" q m)
      ~fallback:"?"
  in
  let f = List.hd !wire in
  (match deliver f with
  | Session.Receiver.Applied "r1:a" -> ()
  | _ -> Alcotest.fail "first delivery applies");
  (match deliver f with
  | Session.Receiver.Replayed "r1:a" -> ()
  | _ -> Alcotest.fail "duplicate replays the memoized reply");
  Alcotest.(check int) "applied exactly once" 1 !applies

let test_stale_epoch_dropped () =
  let r : (string, string) Session.Receiver.t = Session.Receiver.create () in
  (match
     Session.Receiver.handle r ~epoch:2 ~seq:1 "x"
       ~apply:(fun _ m -> m)
       ~fallback:"?"
   with
  | Session.Receiver.Applied _ -> ()
  | _ -> Alcotest.fail "epoch 2 adopted");
  match
    Session.Receiver.handle r ~epoch:1 ~seq:1 "old"
      ~apply:(fun _ m -> m)
      ~fallback:"?"
  with
  | Session.Receiver.Stale -> ()
  | _ -> Alcotest.fail "dead-epoch frame must be dropped"

let test_new_epoch_resets_both_ends () =
  let s, wire, post = mk_sender () in
  let r : (string, string) Session.Receiver.t = Session.Receiver.create () in
  let deliver frame =
    let epoch, seq, msg = parse frame in
    Session.Receiver.handle r ~epoch ~seq msg
      ~apply:(fun q m -> Printf.sprintf "r%d:%s" q m)
      ~fallback:"?"
  in
  ignore (post "a");
  ignore (post "b");
  List.iter (fun f -> ignore (deliver f)) (List.rev !wire);
  Alcotest.(check int) "old epoch applied" 2 (Session.Receiver.applied r);
  (* either end restarts: the sender opens epoch 2 and renumbers *)
  let dropped = Session.Sender.new_epoch s in
  Alcotest.(check int) "pendings dropped with the epoch" 2 dropped;
  Alcotest.(check int) "epoch advanced" 2 (Session.Sender.epoch s);
  wire := [];
  let seq = Session.Sender.seq (post "fresh") in
  Alcotest.(check int) "seq restarts at 1" 1 seq;
  (match deliver (List.hd !wire) with
  | Session.Receiver.Applied "r1:fresh" -> ()
  | _ -> Alcotest.fail "new epoch adopted, seq 1 in turn");
  Alcotest.(check int) "receiver state reset" 1 (Session.Receiver.applied r)

let test_resend_backoff_doubles () =
  let s, wire, post = mk_sender () in
  ignore (post "a");
  wire := [];
  let resends = ref [] in
  for tick = 1 to 250 do
    Session.Sender.tick s
      ~on_resend:(fun ~seq:_ _frame -> resends := tick :: !resends)
      ~on_timeout:(fun ~seq:_ ~retries:_ -> Alcotest.fail "premature timeout")
  done;
  (* first resend after 4 stalled rounds, the interval doubling to the
     cap of 64: 4, 12 (4+8), 28, 60, 124, then every 64 *)
  Alcotest.(check (list int)) "exponential schedule"
    [ 4; 12; 28; 60; 124; 188 ]
    (List.rev !resends);
  Alcotest.(check (pair int int)) "first interval, cap" (4, 64)
    (Session.Backoff.first, Session.Backoff.cap)

let test_timeout_after_max_retries () =
  let s, _, post = mk_sender () in
  ignore (post "a");
  let resends = ref 0 and timed_out_at = ref 0 in
  (try
     for tick = 1 to 5000 do
       Session.Sender.tick s
         ~on_resend:(fun ~seq:_ _ -> incr resends)
         ~on_timeout:(fun ~seq ~retries ->
           timed_out_at := tick;
           Alcotest.(check int) "seq" 1 seq;
           Alcotest.(check int) "budget spent" 32 retries;
           failwith "timeout")
     done
   with Failure _ -> ());
  Alcotest.(check int) "resends before expiry" Session.Backoff.max_retries
    !resends;
  (* the 32nd resend falls at round 124 + 27 * 64 = 1852; the clock
     expires when the next one would have *)
  Alcotest.(check int) "expired one capped interval later" (1852 + 64)
    !timed_out_at

(* The reply lands in the ticket [post] returned; a later duplicate ack
   neither retires anything nor overwrites it. *)
let test_awaited_reply_parked () =
  let s, wire, post = mk_sender () in
  let r : (string, string) Session.Receiver.t = Session.Receiver.create () in
  let tk = post "q" in
  Alcotest.(check (option string)) "no reply yet" None
    (Session.Sender.reply tk);
  let epoch, sq, msg = parse (List.hd !wire) in
  (match
     Session.Receiver.handle r ~epoch ~seq:sq msg
       ~apply:(fun _ m -> "ans:" ^ m)
       ~fallback:"?"
   with
  | Session.Receiver.Applied reply ->
    ignore (Session.Sender.ack s ~epoch ~seq:sq reply)
  | _ -> Alcotest.fail "expected Applied");
  Alcotest.(check (option string)) "reply in the ticket" (Some "ans:q")
    (Session.Sender.reply tk);
  Alcotest.(check bool) "duplicate ack" false
    (Session.Sender.ack s ~epoch ~seq:sq "late");
  Alcotest.(check (option string)) "reply kept" (Some "ans:q")
    (Session.Sender.reply tk)

let test_stale_and_duplicate_acks_rejected () =
  let s, wire, post = mk_sender () in
  ignore (post "a");
  let epoch, seq, _ = parse (List.hd !wire) in
  Alcotest.(check bool) "wrong epoch" false
    (Session.Sender.ack s ~epoch:(epoch + 1) ~seq "r");
  Alcotest.(check bool) "fresh ack" true (Session.Sender.ack s ~epoch ~seq "r");
  Alcotest.(check bool) "duplicate ack" false
    (Session.Sender.ack s ~epoch ~seq "r")

let test_fallback_beyond_memo_window () =
  let r : (string, string) Session.Receiver.t = Session.Receiver.create () in
  let last = Session.Receiver.memo_window + 6 in
  Alcotest.(check int) "memo window" 1024 Session.Receiver.memo_window;
  for seq = 1 to last do
    match
      Session.Receiver.handle r ~epoch:1 ~seq
        (Printf.sprintf "m%d" seq)
        ~apply:(fun q m -> Printf.sprintf "r%d:%s" q m)
        ~fallback:"settled"
    with
    | Session.Receiver.Applied _ -> ()
    | _ -> Alcotest.fail "in-turn apply"
  done;
  let replay seq =
    match
      Session.Receiver.handle r ~epoch:1 ~seq
        (Printf.sprintf "m%d" seq)
        ~apply:(fun _ _ -> Alcotest.fail "must not re-apply")
        ~fallback:"settled"
    with
    | Session.Receiver.Replayed reply -> reply
    | _ -> Alcotest.fail "a duplicate is replayed"
  in
  (* the 1024 latest seqs keep their memoized replies; the one just
     below slid out of the window and gets the fallback *)
  Alcotest.(check string) "1024 back: memoized" "r7:m7" (replay (last - 1023));
  Alcotest.(check string) "1025 back: fallback" "settled"
    (replay (last - 1024));
  Alcotest.(check string) "latest: memoized"
    (Printf.sprintf "r%d:m%d" last last)
    (replay last)

let suite =
  [
    Alcotest.test_case "in-order round trip" `Quick test_in_order_round_trip;
    Alcotest.test_case "out-of-order buffered" `Quick
      test_out_of_order_buffered;
    Alcotest.test_case "duplicate replays same reply" `Quick
      test_duplicate_replays_same_reply;
    Alcotest.test_case "stale epoch dropped" `Quick test_stale_epoch_dropped;
    Alcotest.test_case "new epoch resets both ends" `Quick
      test_new_epoch_resets_both_ends;
    Alcotest.test_case "resend backoff doubles" `Quick
      test_resend_backoff_doubles;
    Alcotest.test_case "timeout after max retries" `Quick
      test_timeout_after_max_retries;
    Alcotest.test_case "awaited reply parked" `Quick test_awaited_reply_parked;
    Alcotest.test_case "stale and duplicate acks rejected" `Quick
      test_stale_and_duplicate_acks_rejected;
    Alcotest.test_case "fallback beyond memo window" `Quick
      test_fallback_beyond_memo_window;
  ]
