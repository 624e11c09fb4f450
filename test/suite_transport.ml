(* The serialized message plane: determinism, delivery semantics for
   every lane, byte accounting, batching, crash-time drops,
   checksum-gated corruption — plus a property-level exactly-once check
   over random policies at the kernel level. *)

module Transport = Untx_kernel.Transport
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Fault = Untx_fault.Fault
open Helpers
module Kernel = Untx_kernel.Kernel

let req i =
  Wire.encode_request
    (Wire.Request
       {
         Wire.tc = Tc_id.of_int 1;
         lsn = Lsn.of_int i;
         part = 0;
         op = Op.Read { table = "t"; key = string_of_int i; mode = Op.Own };
       })

(* A DC stand-in that answers every request frame with a Done reply
   carrying the request's LSN, and acks every control frame. *)
let echo_data frame =
  let r =
    match Wire.decode_request frame with
    | Wire.Request r -> r
    | Wire.Redo_batch _ -> invalid_arg "echo_data: a redo batch"
  in
  Some
    (Wire.encode_reply
       (Wire.Reply
          { Wire.tc = r.Wire.tc; lsn = r.Wire.lsn; result = Wire.Done }))

let echo_control frame =
  let m = Wire.decode_control frame in
  Some
    (Wire.encode_control_reply
       { Wire.r_tc = Wire.control_tc m.Wire.c_ctl; r_epoch = m.Wire.c_epoch;
         r_seq = m.Wire.c_seq; r_reply = Wire.Ack })

let make ?counters ?policy ?label ?repl ~seed () =
  Transport.create ?counters ?policy ?label ?repl ~seed ~data:echo_data
    ~control:echo_control ()

let reply_ids frames =
  List.map
    (fun frame ->
      match Wire.decode_reply frame with
      | Wire.Reply r -> Lsn.to_int r.Wire.lsn
      | Wire.Redo_batch_reply _ -> invalid_arg "reply_ids: a batch reply")
    frames

let drain_ids t = reply_ids (fst (Transport.drain t))

let test_reliable_fifo () =
  let t = make ~seed:1 () in
  Transport.send t (req 1);
  Transport.send t (req 2);
  Transport.send t (req 3);
  Alcotest.(check (list int)) "in order, one tick" [ 1; 2; 3 ] (drain_ids t);
  Alcotest.(check int) "nothing left" 0 (Transport.in_flight t)

let test_delay () =
  let policy =
    { Transport.delay_min = 2; delay_max = 2; reorder = false; dup_prob = 0.;
      drop_prob = 0. }
  in
  let t = make ~policy ~seed:1 () in
  Transport.send t (req 1);
  Alcotest.(check (list int)) "tick 1: nothing" [] (drain_ids t);
  Alcotest.(check (list int)) "tick 2: request delivered, reply delayed" []
    (drain_ids t);
  (* two more ticks for the reply's own delay *)
  let got = drain_ids t @ drain_ids t @ drain_ids t @ drain_ids t in
  Alcotest.(check (list int)) "eventually" [ 1 ] got

let test_control_channel () =
  let t = make ~seed:5 () in
  let ctl seq =
    Wire.encode_control
      {
        Wire.c_epoch = 1;
        c_seq = seq;
        c_ctl =
          Wire.Watermarks
            { tc = Tc_id.of_int 1; eosl = Lsn.zero; lwm = Lsn.of_int 9 };
      }
  in
  Transport.send_control t (ctl 1);
  Transport.send_control t (ctl 2);
  let replies, ctl_replies = Transport.drain t in
  Alcotest.(check (list int)) "data channel untouched" [] (List.map String.length replies);
  let seqs =
    List.map (fun f -> (Wire.decode_control_reply f).Wire.r_seq) ctl_replies
  in
  Alcotest.(check (list int)) "acks in order, with seqs" [ 1; 2 ] seqs

(* The one policy delays both channels alike: nothing surfaces until the
   request's delay and then its reply's have passed, and then both
   channels' replies do. *)
let test_one_policy_for_every_channel () =
  let blocked =
    { Transport.delay_min = 50; delay_max = 50; reorder = false; dup_prob = 0.;
      drop_prob = 0. }
  in
  let t = make ~seed:5 ~policy:blocked () in
  Transport.send t (req 1);
  Transport.send_control t
    (Wire.encode_control
       { Wire.c_epoch = 1; c_seq = 1;
         c_ctl = Wire.Redo_fence_end { tc = Tc_id.of_int 1 } });
  let drain_ticks n =
    let got = ref (0, 0) in
    for _ = 1 to n do
      let replies, ctl_replies = Transport.drain t in
      got :=
        (fst !got + List.length replies, snd !got + List.length ctl_replies)
    done;
    !got
  in
  Alcotest.(check (pair int int)) "both channels held" (0, 0) (drain_ticks 1);
  Alcotest.(check int) "two frames pending" 2 (Transport.in_flight t);
  Alcotest.(check (pair int int)) "held past the request delay" (0, 0)
    (drain_ticks 98);
  Alcotest.(check int) "two replies pending" 2 (Transport.in_flight t);
  Alcotest.(check (pair int int)) "both surface after both delays" (1, 1)
    (drain_ticks 1);
  Alcotest.(check int) "nothing left" 0 (Transport.in_flight t)

(* Every counter cell a transport registers at [create], on a labeled
   link: a lane that drops or renames one fails here. *)
let registered_cells =
  [ "transport.batched_frames"; "transport.batches";
    "transport.control_bytes"; "transport.control_delivered";
    "transport.data_bytes"; "transport.delivered"; "transport.l.control_bytes";
    "transport.l.data_bytes"; "transport.l.delivered"; "transport.l.repl_bytes";
    "transport.repl_bytes"; "transport.repl_delivered" ]

let test_byte_accounting () =
  let counters = Instrument.create () in
  let t = make ~counters ~label:"l" ~seed:2 () in
  Alcotest.(check (list (pair string int))) "cells registered at create, at 0"
    (List.map (fun name -> (name, 0)) registered_cells)
    (Instrument.snapshot counters);
  let frame = req 7 in
  Transport.send t frame;
  let replies, _ = Transport.drain t in
  let reply_frame = List.hd replies in
  (* The sender pays measured encoded bytes for both directions. *)
  let bytes = String.length frame + String.length reply_frame in
  Alcotest.(check int) "data bytes = request + reply" bytes
    (Transport.data_bytes_sent t);
  Alcotest.(check (list (pair string int))) "mirrored into counters"
    [ ("transport.batched_frames", 2); ("transport.batches", 2);
      ("transport.control_bytes", 0); ("transport.control_delivered", 0);
      ("transport.data_bytes", bytes); ("transport.delivered", 1);
      ("transport.l.control_bytes", 0); ("transport.l.data_bytes", bytes);
      ("transport.l.delivered", 1); ("transport.l.repl_bytes", 0);
      ("transport.repl_bytes", 0); ("transport.repl_delivered", 0) ]
    (List.map
       (fun name -> (name, Instrument.get counters name))
       registered_cells);
  Alcotest.(check int) "control channel unused" 0
    (Transport.control_bytes_sent t);
  Alcotest.(check int) "total is the sum"
    (Transport.data_bytes_sent t)
    (Transport.bytes_sent t)

(* The replication lane on a labeled link: its frames reach only the
   [repl] endpoint, [drain_repl] surfaces their replies while [drain]
   surfaces none, and only the repl counters move. *)
let test_repl_lane () =
  let counters = Instrument.create () in
  let reached = ref [] in
  let endpoint name f frame =
    reached := name :: !reached;
    f frame
  in
  let t =
    Transport.create ~counters ~label:"tc:sb" ~seed:4
      ~data:(endpoint "data" echo_data)
      ~control:(endpoint "control" echo_control)
      ~repl:(endpoint "repl" echo_data) ()
  in
  let frames = [ req 1; req 2 ] in
  List.iter (Transport.send_repl t) frames;
  let replies, ctl_replies = Transport.drain t in
  Alcotest.(check (pair int int)) "drain surfaces no repl reply" (0, 0)
    (List.length replies, List.length ctl_replies);
  Alcotest.(check (list string)) "only the repl endpoint reached"
    [ "repl"; "repl" ] !reached;
  let acks = Transport.drain_repl t in
  Alcotest.(check (list int)) "drain_repl surfaces the acks" [ 1; 2 ]
    (reply_ids acks);
  let bytes =
    List.fold_left (fun n f -> n + String.length f) 0 (frames @ acks)
  in
  Alcotest.(check (list int)) "repl counters count them"
    [ bytes; 2; bytes; bytes ]
    [ Instrument.get counters "transport.repl_bytes";
      Instrument.get counters "transport.repl_delivered";
      Instrument.get counters "transport.tc:sb.repl_bytes";
      Transport.bytes_sent t ];
  Alcotest.(check (list int)) "data and control counters stay 0"
    [ 0; 0; 0; 0; 0; 0; 0; 0 ]
    (Transport.data_bytes_sent t :: Transport.control_bytes_sent t
    :: List.map (Instrument.get counters)
         [ "transport.data_bytes"; "transport.control_bytes";
           "transport.delivered"; "transport.control_delivered";
           "transport.tc:sb.data_bytes"; "transport.tc:sb.delivered" ])

let test_batching_counters () =
  let counters = Instrument.create () in
  let t = make ~counters ~seed:3 () in
  for i = 1 to 5 do
    Transport.send t (req i)
  done;
  ignore (Transport.drain t);
  (* One delivery round coalesced all five requests into a batch; the
     replies came due in the same drain call, as a second batch. *)
  Alcotest.(check int) "two batches" 2 (Instrument.get counters "transport.batches");
  Alcotest.(check int) "ten frames batched" 10
    (Instrument.get counters "transport.batched_frames")

let test_corruption_dropped () =
  let counters = Instrument.create () in
  let t = make ~counters ~seed:11 () in
  Fault.arm ~seed:4 [ Fault.crash_with_prob "transport.frame.corrupt" 1.0 ];
  Transport.send t (req 1);
  Transport.send t (req 2);
  let replies, _ = Transport.drain t in
  Fault.disarm ();
  (* Every delivery attempt was corrupted; the checksum gate turned each
     into a silent loss. *)
  Alcotest.(check int) "nothing survived" 0 (List.length replies);
  Alcotest.(check int) "nothing reached the endpoint" 0
    (Transport.requests_delivered t);
  Alcotest.(check int) "both rejections counted" 2 (Transport.corrupt_dropped t);
  Alcotest.(check int) "counter mirrored" 2
    (Instrument.get counters "transport.corrupt_dropped");
  (* With the fault gone, a resend of the same frames goes through. *)
  Transport.send t (req 1);
  Transport.send t (req 2);
  Alcotest.(check (list int)) "resend carries it" [ 1; 2 ] (drain_ids t)

let test_drop_and_dup_counted () =
  let policy =
    { Transport.delay_min = 0; delay_max = 0; reorder = false;
      dup_prob = 0.5; drop_prob = 0.3 }
  in
  let t = make ~policy ~seed:7 () in
  for i = 1 to 200 do
    Transport.send t (req i)
  done;
  let delivered = ref 0 in
  for _ = 1 to 50 do
    delivered := !delivered + List.length (fst (Transport.drain t))
  done;
  Alcotest.(check bool) "some dropped" true (Transport.dropped t > 0);
  Alcotest.(check bool) "some duplicated" true (Transport.duplicated t > 0);
  Alcotest.(check bool) "deliveries reflect both" true (!delivered > 0)

let test_determinism () =
  let run () =
    let policy = Transport.chaotic in
    let t = make ~policy ~seed:99 () in
    for i = 1 to 50 do
      Transport.send t (req i)
    done;
    let acc = ref [] in
    for _ = 1 to 30 do
      acc := !acc @ drain_ids t
    done;
    (!acc, Transport.requests_delivered t, Transport.dropped t,
     Transport.duplicated t)
  in
  let order_a, del_a, drop_a, dup_a = run () in
  let order_b, del_b, drop_b, dup_b = run () in
  Alcotest.(check (list int)) "same seed, same schedule" order_a order_b;
  Alcotest.(check (list int)) "same seed, same counters"
    [ del_a; drop_a; dup_a ] [ del_b; drop_b; dup_b ];
  Alcotest.(check bool) "the adversary actually dropped" true (drop_a > 0)

let test_drop_in_flight () =
  let policy =
    { Transport.delay_min = 5; delay_max = 5; reorder = false; dup_prob = 0.;
      drop_prob = 0. }
  in
  let t = make ~policy ~seed:3 () in
  Transport.send t (req 1);
  Transport.drop_in_flight t;
  Alcotest.(check int) "gone" 0 (Transport.in_flight t);
  let got = ref [] in
  for _ = 1 to 12 do
    got := !got @ drain_ids t
  done;
  Alcotest.(check (list int)) "never delivered" [] !got

let test_drop_in_flight_preserves_counters () =
  let policy =
    { Transport.delay_min = 1; delay_max = 1; reorder = false;
      dup_prob = 0.5; drop_prob = 0.3 }
  in
  let t = make ~policy ~seed:21 () in
  for i = 1 to 60 do
    Transport.send t (req i);
    ignore (Transport.drain t)
  done;
  let delivered = Transport.requests_delivered t in
  let dropped = Transport.dropped t and duplicated = Transport.duplicated t in
  Alcotest.(check bool) "counters primed" true (dropped > 0 && duplicated > 0);
  (* A crash loses the in-flight messages but must not rewrite history:
     the accounting of what already happened stays put. *)
  Transport.drop_in_flight t;
  Alcotest.(check int) "in_flight zeroed" 0 (Transport.in_flight t);
  Alcotest.(check (list int)) "delivered/dropped/duplicated untouched"
    [ delivered; dropped; duplicated ]
    [ Transport.requests_delivered t; Transport.dropped t;
      Transport.duplicated t ]

(* Property: exactly-once end-to-end over random adversarial policies. *)
let prop_exactly_once =
  let policy_gen =
    QCheck.Gen.(
      map3
        (fun delay dup drop ->
          {
            Transport.delay_min = 0;
            delay_max = delay mod 4;
            reorder = true;
            dup_prob = float_of_int (dup mod 30) /. 100.;
            drop_prob = float_of_int (drop mod 30) /. 100.;
          })
        (int_bound 3) (int_bound 29) (int_bound 29))
  in
  let arb =
    QCheck.make
      ~print:(fun (p, seed) ->
        Printf.sprintf "delay<=%d dup=%.2f drop=%.2f seed=%d"
          p.Transport.delay_max p.Transport.dup_prob p.Transport.drop_prob seed)
      QCheck.Gen.(pair policy_gen (int_bound 1000))
  in
  QCheck.Test.make ~name:"kernel state independent of transport adversity"
    ~count:15 arb (fun (policy, seed) ->
      let run p s =
        let k = make_kernel ~policy:p ~seed:s () in
        for t = 0 to 19 do
          let txn = Tc.begin_txn (Kernel.tc k) in
          for i = 0 to 5 do
            ok
              (Tc.insert (Kernel.tc k) txn ~table:"kv"
                 ~key:(Printf.sprintf "k%02d-%02d" t i)
                 ~value:(string_of_int (t * i)))
          done;
          if t mod 4 = 0 then Tc.abort (Kernel.tc k) txn ~reason:"mix"
          else ok (Tc.commit (Kernel.tc k) txn)
        done;
        Kernel.quiesce k;
        snapshot k ~table:"kv"
      in
      run policy seed = run Transport.reliable 0)

let suite =
  [
    Alcotest.test_case "reliable is FIFO" `Quick test_reliable_fifo;
    Alcotest.test_case "delay semantics" `Quick test_delay;
    Alcotest.test_case "control channel round trip" `Quick test_control_channel;
    Alcotest.test_case "one policy for every channel" `Quick
      test_one_policy_for_every_channel;
    Alcotest.test_case "byte accounting is measured" `Quick test_byte_accounting;
    Alcotest.test_case "repl lane round trip" `Quick test_repl_lane;
    Alcotest.test_case "batching counters" `Quick test_batching_counters;
    Alcotest.test_case "corrupt frames are dropped" `Quick
      test_corruption_dropped;
    Alcotest.test_case "drop/dup accounting" `Quick test_drop_and_dup_counted;
    Alcotest.test_case "seeded determinism" `Quick test_determinism;
    Alcotest.test_case "drop in flight" `Quick test_drop_in_flight;
    Alcotest.test_case "drop in flight preserves counters" `Quick
      test_drop_in_flight_preserves_counters;
    Helpers.qcheck_test prop_exactly_once;
  ]
