(* Property suite for the binary wire codec: decode is the exact
   inverse of encode for every message variant, and a decoder fed
   mutated bytes either still yields a frame that re-encodes to the
   same bytes (the mutation hit redundancy) or raises
   [Invalid_argument] — it never crashes another way and never returns
   a silently wrong value. *)

module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Tc = Untx_tc.Tc

open QCheck

(* --- generators ------------------------------------------------------ *)

(* Keys/values/table names exercise the codec's escaping: separators,
   escape characters, empties, binary bytes. *)
let gen_str =
  Gen.(
    oneof
      [
        small_string ~gen:printable;
        small_string ~gen:(char_range '\000' '\255');
        oneofl [ ""; "|"; "\\"; "|\\|"; "a|b"; "-"; "+"; "\n" ];
      ])

let gen_mode = Gen.oneofl [ Op.Own; Op.Committed; Op.Dirty ]

let gen_op =
  Gen.(
    gen_str >>= fun table ->
    gen_str >>= fun key ->
    gen_str >>= fun value ->
    small_nat >>= fun limit ->
    gen_mode >>= fun mode ->
    list_size (int_bound 5) gen_str >>= fun keys ->
    oneofl
      [
        Op.Insert { table; key; value };
        Op.Update { table; key; value };
        Op.Delete { table; key };
        Op.Read { table; key; mode };
        Op.Scan { table; from_key = key; limit; mode };
        Op.Probe { table; from_key = key; limit };
        Op.Commit_versions { table; keys };
        Op.Abort_versions { table; keys };
      ])

let gen_tc = Gen.map (fun i -> Tc_id.of_int (1 + i)) Gen.small_nat

let gen_lsn = Gen.map (fun i -> Lsn.of_int i) Gen.small_nat

let gen_request =
  Gen.(
    gen_tc >>= fun tc ->
    gen_lsn >>= fun lsn ->
    Gen.int_bound 7 >>= fun part ->
    gen_op >>= fun op -> return { Wire.tc; lsn; part; op })

(* A redo batch of [n] operations. *)
let gen_batch_of n =
  Gen.(
    gen_tc >>= fun tc ->
    Gen.int_bound 7 >>= fun part ->
    list_repeat n (pair gen_lsn gen_op) >>= fun ops ->
    return (Wire.Redo_batch { tc; part; ops }))

(* Batch sizes: empty, one operation, a few, and the TC's cap. *)
let gen_batch_size =
  Gen.oneof
    [ Gen.return 0; Gen.return 1; Gen.int_range 2 9; Gen.return Tc.redo_batch_cap ]

let gen_batch = Gen.(gen_batch_size >>= gen_batch_of)

let gen_request_msg =
  Gen.oneof [ Gen.map (fun r -> Wire.Request r) gen_request; gen_batch ]

let gen_result =
  Gen.(
    gen_str >>= fun s ->
    opt gen_str >>= fun v ->
    list_size (int_bound 4) (pair gen_str gen_str) >>= fun pairs ->
    list_size (int_bound 4) gen_str >>= fun keys ->
    oneofl
      [ Wire.Done; Wire.Value v; Wire.Pairs pairs; Wire.Next_keys keys;
        Wire.Failed s ])

let gen_reply =
  Gen.(
    gen_tc >>= fun tc ->
    gen_lsn >>= fun lsn ->
    gen_result >>= fun result -> return { Wire.tc; lsn; result })

let gen_batch_reply_of n =
  Gen.(
    gen_tc >>= fun tc ->
    list_repeat n (pair gen_lsn gen_result) >>= fun outcomes ->
    return (Wire.Redo_batch_reply { tc; outcomes }))

let gen_batch_reply = Gen.(gen_batch_size >>= gen_batch_reply_of)

let gen_reply_msg =
  Gen.oneof [ Gen.map (fun r -> Wire.Reply r) gen_reply; gen_batch_reply ]

let gen_control =
  Gen.(
    gen_tc >>= fun tc ->
    gen_lsn >>= fun a ->
    gen_lsn >>= fun b ->
    oneofl
      [
        Wire.End_of_stable_log { tc; eosl = a };
        Wire.Low_water_mark { tc; lwm = a };
        Wire.Watermarks { tc; eosl = a; lwm = b };
        Wire.Checkpoint { tc; new_rssp = a };
        Wire.Restart_begin { tc; stable_lsn = a };
        Wire.Restart_end { tc };
        Wire.Redo_fence_begin { tc };
        Wire.Redo_fence_end { tc };
      ])

let gen_control_msg =
  Gen.(
    small_nat >>= fun epoch ->
    small_nat >>= fun seq ->
    gen_control >>= fun ctl ->
    return { Wire.c_epoch = 1 + epoch; c_seq = 1 + seq; c_ctl = ctl })

let gen_control_reply_msg =
  Gen.(
    gen_tc >>= fun r_tc ->
    small_nat >>= fun epoch ->
    small_nat >>= fun seq ->
    oneofl [ Wire.Ack; Wire.Checkpoint_done { granted = true };
             Wire.Checkpoint_done { granted = false } ]
    >>= fun r ->
    return { Wire.r_tc; r_epoch = 1 + epoch; r_seq = 1 + seq; r_reply = r })

(* One arbitrary covering all four frame kinds, as (name, bytes) with
   the decoded-re-encoded check done against the right decoder. *)
type any_frame =
  | Freq of Wire.request_msg
  | Frep of Wire.reply_msg
  | Fctl of Wire.control_msg
  | Fcrp of Wire.control_reply_msg

let gen_any_frame =
  Gen.oneof
    [
      Gen.map (fun r -> Freq r) gen_request_msg;
      Gen.map (fun r -> Frep r) gen_reply_msg;
      Gen.map (fun m -> Fctl m) gen_control_msg;
      Gen.map (fun m -> Fcrp m) gen_control_reply_msg;
    ]

let encode_any = function
  | Freq r -> Wire.encode_request r
  | Frep r -> Wire.encode_reply r
  | Fctl m -> Wire.encode_control m
  | Fcrp m -> Wire.encode_control_reply m

let print_any f =
  let hex s =
    String.concat "" (List.map (Printf.sprintf "%02x") (List.init (String.length s) (fun i -> Char.code s.[i])))
  in
  hex (encode_any f)

(* --- round-trip properties ------------------------------------------- *)

let prop_request_roundtrip =
  Test.make ~name:"decode_request (encode_request r) = r" ~count:500
    (make ~print:print_any (Gen.map (fun r -> Freq r) gen_request_msg))
    (function
      | Freq r -> Wire.decode_request (Wire.encode_request r) = r
      | _ -> assert false)

let prop_reply_roundtrip =
  Test.make ~name:"decode_reply (encode_reply r) = r" ~count:500
    (make ~print:print_any (Gen.map (fun r -> Frep r) gen_reply_msg))
    (function
      | Frep r -> Wire.decode_reply (Wire.encode_reply r) = r
      | _ -> assert false)

let prop_control_roundtrip =
  Test.make ~name:"decode_control (encode_control m) = m" ~count:500
    (make ~print:print_any (Gen.map (fun m -> Fctl m) gen_control_msg))
    (function
      | Fctl m -> Wire.decode_control (Wire.encode_control m) = m
      | _ -> assert false)

let prop_control_reply_roundtrip =
  Test.make ~name:"decode_control_reply (encode_control_reply m) = m"
    ~count:500
    (make ~print:print_any (Gen.map (fun m -> Fcrp m) gen_control_reply_msg))
    (function
      | Fcrp m -> Wire.decode_control_reply (Wire.encode_control_reply m) = m
      | _ -> assert false)

let prop_frame_ok =
  Test.make ~name:"every encoded frame passes frame_ok" ~count:500
    (make ~print:print_any gen_any_frame) (fun f ->
      Wire.frame_ok (encode_any f))

(* --- mutation fuzz ---------------------------------------------------- *)

(* Apply a random byte-level mutation and check the decoder's total
   contract.  Each decoder is tried against the mutant; a decoder is
   well-behaved if it raises Invalid_argument, or returns a value whose
   re-encoding equals the mutant bytes (the mutation was absorbed by
   representational redundancy, so the value is faithful). *)
let mutate bytes (pos, change) =
  if String.length bytes = 0 then bytes
  else
    let b = Bytes.of_string bytes in
    let i = pos mod Bytes.length b in
    (match change mod 3 with
    | 0 ->
      (* flip bits *)
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 + (change mod 255))))
    | 1 -> Bytes.set b i '\255'
    | _ -> Bytes.set b i '\000');
    Bytes.unsafe_to_string b

let truncate_at bytes pos =
  if String.length bytes = 0 then bytes
  else String.sub bytes 0 (pos mod String.length bytes)

let well_behaved decode encode bytes =
  match decode bytes with
  | v -> String.equal (encode v) bytes
  | exception Invalid_argument _ -> true

let total frame =
  well_behaved Wire.decode_request Wire.encode_request frame
  && well_behaved Wire.decode_reply Wire.encode_reply frame
  && well_behaved Wire.decode_control Wire.encode_control frame
  && well_behaved Wire.decode_control_reply Wire.encode_control_reply frame
  &&
  (* frame_ok must itself be total on arbitrary bytes *)
  match Wire.frame_ok frame with true | false -> true

let gen_mutation = Gen.(pair small_nat small_nat)

let prop_mutated_frames =
  Test.make
    ~name:"decoders are total on byte-mutated frames" ~count:1000
    (make
       ~print:(fun (f, (pos, change)) ->
         Printf.sprintf "%s pos=%d change=%d" (print_any f) pos change)
       Gen.(pair gen_any_frame gen_mutation))
    (fun (f, m) -> total (mutate (encode_any f) m))

let prop_truncated_frames =
  Test.make ~name:"decoders are total on truncated frames" ~count:500
    (make
       ~print:(fun (f, pos) -> Printf.sprintf "%s cut=%d" (print_any f) pos)
       Gen.(pair gen_any_frame small_nat))
    (fun (f, pos) -> total (truncate_at (encode_any f) pos))

let prop_garbage =
  Test.make ~name:"decoders are total on arbitrary bytes" ~count:500
    (string_gen Gen.(char_range '\000' '\255'))
    (fun s -> total s)

(* --- trace-id header field -------------------------------------------- *)

let encode_any_tid tid = function
  | Freq r -> Wire.encode_request ~tid r
  | Frep r -> Wire.encode_reply ~tid r
  | Fctl m -> Wire.encode_control ~tid m
  | Fcrp m -> Wire.encode_control_reply ~tid m

let gen_tid = Gen.(oneof [ return 0; int_range 1 0xFFFFFFFF ])

let prop_tid_roundtrip =
  (* The trace id rides in the header without disturbing the payload:
     frame_tid reads back exactly what was stamped, and the payload
     decoder is oblivious to it. *)
  Test.make ~name:"frame_tid reads back the stamped trace id" ~count:500
    (make
       ~print:(fun (f, tid) -> Printf.sprintf "%s tid=%d" (print_any f) tid)
       Gen.(pair gen_any_frame gen_tid))
    (fun (f, tid) ->
      let bytes = encode_any_tid tid f in
      Wire.frame_ok bytes
      && Wire.frame_tid bytes = tid
      &&
      match f with
      | Freq r -> Wire.decode_request bytes = r
      | Frep r -> Wire.decode_reply bytes = r
      | Fctl m -> Wire.decode_control bytes = m
      | Fcrp m -> Wire.decode_control_reply bytes = m)

let prop_corrupted_tid_never_misattributes =
  (* The id sits inside the checksummed region: flip any single bit of
     its four bytes and the whole frame must fail validation, with
     frame_tid reporting the reserved untraced id — a corrupted frame
     can be dropped but never attributed to another operation's span. *)
  Test.make ~name:"corrupted trace id fails the checksum, never misattributes"
    ~count:500
    (make
       ~print:(fun (f, (tid, byte, bit)) ->
         Printf.sprintf "%s tid=%d byte=%d bit=%d" (print_any f) tid byte bit)
       Gen.(
         pair gen_any_frame
           (triple (int_range 1 0xFFFFFFFF) (int_bound 3) (int_bound 7))))
    (fun (f, (tid, byte, bit)) ->
      let bytes = encode_any_tid tid f in
      let b = Bytes.of_string bytes in
      let i = 1 + byte in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let mutant = Bytes.unsafe_to_string b in
      (not (Wire.frame_ok mutant))
      && Wire.frame_tid mutant = 0
      && total mutant)

(* Cross-kind confusion: a frame of one kind must never decode as
   another (the kind byte is part of the checksummed header). *)
let prop_kind_separation =
  Test.make ~name:"frame kinds do not cross-decode" ~count:300
    (make ~print:print_any gen_any_frame) (fun f ->
      let bytes = encode_any f in
      let rejects decode =
        match decode bytes with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      match f with
      | Freq _ ->
        rejects Wire.decode_reply && rejects Wire.decode_control
        && rejects Wire.decode_control_reply
      | Frep _ ->
        rejects Wire.decode_request && rejects Wire.decode_control
        && rejects Wire.decode_control_reply
      | Fctl _ ->
        rejects Wire.decode_request && rejects Wire.decode_reply
        && rejects Wire.decode_control_reply
      | Fcrp _ ->
        rejects Wire.decode_request && rejects Wire.decode_reply
        && rejects Wire.decode_control)

(* --- golden frames ------------------------------------------------- *)

(* One frame of each kind, as hex, captured from the Buffer and
   string_of_int encoder this codec replaced; the two reply frames were
   re-derived when replies dropped their prior value.  Field lengths
   cross the 9/10 and 99/100 digit boundaries, one field is empty, and
   two frames carry trace ids.  The wire format must not move by a
   byte. *)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let tc = Tc_id.of_int

let lsn = Lsn.of_int

let golden =
  [
    ( "request",
      String.concat ""
        [
          "510102030400000029313a33343a31323334313a32313a55323a6b76393a";
          "6b3030303030303432393a763a313233343536374bdee54e"
        ],
      Wire.encode_request ~tid:0x01020304
        (Wire.Request
           {
             Wire.tc = tc 3;
             lsn = lsn 1234;
             part = 2;
             op =
               Op.Update { table = "kv"; key = "k00000042"; value = "v:1234567" };
           }),
      fun s -> Wire.encode_request ~tid:0x01020304 (Wire.decode_request s) );
    ( "reply with pairs",
      String.concat ""
        [
          "520000004d00000082313a33343a31323335313a50313a61313a31323a62";
          "62303a303a3130303a787878787878787878787878787878787878787878";
          "787878787878787878787878787878787878787878787878787878787878";
          "787878787878787878787878787878787878787878787878787878787878";
          "78787878787878787878787878787878787878ae382625"
        ],
      Wire.encode_reply ~tid:77
        (Wire.Reply
           {
             Wire.tc = tc 3;
             lsn = lsn 1235;
             result =
               Wire.Pairs [ ("a", "1"); ("bb", ""); ("", String.make 100 'x') ];
           }),
      fun s -> Wire.encode_reply ~tid:77 (Wire.decode_reply s) );
    (* "B", tc 3, part 1, then (lsn, field count, op fields) twice. *)
    ( "redo batch",
      String.concat ""
        [
          "510000000900000037313a42313a33313a31323a3431313a34313a55323a";
          "6b76323a6b37343a763a3431323a3432313a34313a56323a6b76323a6b37";
          "323a6b38bd124c71"
        ],
      Wire.encode_request ~tid:9
        (Wire.Redo_batch
           {
             tc = tc 3;
             part = 1;
             ops =
               [
                 (lsn 41, Op.Update { table = "kv"; key = "k7"; value = "v:41" });
                 (lsn 42, Op.Commit_versions { table = "kv"; keys = [ "k7"; "k8" ] });
               ];
           }),
      fun s -> Wire.encode_request ~tid:9 (Wire.decode_request s) );
    (* "B", tc 3, then (lsn, field count, result fields) twice. *)
    ( "redo batch reply",
      String.concat ""
        [
          "520000000900000028313a42313a33323a3431313a31313a44323a343231";
          "3a32313a4631313a6e6f2073756368206b65792010367a"
        ],
      Wire.encode_reply ~tid:9
        (Wire.Redo_batch_reply
           {
             tc = tc 3;
             outcomes =
               [
                 (lsn 41, Wire.Done);
                 (lsn 42, Wire.Failed "no such key");
               ];
           }),
      fun s -> Wire.encode_reply ~tid:9 (Wire.decode_reply s) );
    ( "control",
      String.concat ""
        [
          "430000000000000018313a32323a3137313a57313a33343a31303030333a";
          "3939388d6a093b"
        ],
      Wire.encode_control
        {
          Wire.c_epoch = 2;
          c_seq = 17;
          c_ctl = Wire.Watermarks { tc = tc 3; eosl = lsn 1000; lwm = lsn 998 };
        },
      fun s -> Wire.encode_control (Wire.decode_control s) );
    ( "control reply",
      String.concat ""
        [
          "4b0000000000000010313a33313a32323a3137313a47313a319502f097"
        ],
      Wire.encode_control_reply
        {
          Wire.r_tc = tc 3;
          r_epoch = 2;
          r_seq = 17;
          r_reply = Wire.Checkpoint_done { granted = true };
        },
      fun s -> Wire.encode_control_reply (Wire.decode_control_reply s) );
    ( "repl ship",
      String.concat ""
        [
          "53000000050000003f313a31313a39313a53313a32323a3132323a313032";
          "3a313231383a323a3131313a49323a6b76323a6b31313a7631353a323a31";
          "32313a44323a6b76323a6b309276ab11"
        ],
      Wire.encode_repl ~tid:5
        {
          Wire.p_epoch = 1;
          p_seq = 9;
          p_repl =
            Wire.Repl_ship
              {
                tc = tc 2;
                eosl = lsn 12;
                lwm = lsn 10;
                upto = lsn 12;
                ops =
                  [
                    (lsn 11, Op.Insert { table = "kv"; key = "k1"; value = "v" });
                    (lsn 12, Op.Delete { table = "kv"; key = "k0" });
                  ];
              };
        },
      fun s -> Wire.encode_repl ~tid:5 (Wire.decode_repl s) );
    ( "repl ack",
      String.concat ""
        [
          "540000000000000010313a32313a31313a39313a41323a31324db3ccf3"
        ],
      Wire.encode_repl_reply
        {
          Wire.q_tc = tc 2;
          q_epoch = 1;
          q_seq = 9;
          q_reply = Wire.Repl_ack { applied = lsn 12 };
        },
      fun s -> Wire.encode_repl_reply (Wire.decode_repl_reply s) );
  ]

let test_golden_frames () =
  List.iter
    (fun (name, hex, encoded, reencode) ->
      let bytes = of_hex hex in
      Alcotest.(check string) (name ^ ": encoded") bytes encoded;
      Alcotest.(check string) (name ^ ": decoded and re-encoded") bytes
        (reencode bytes))
    golden

(* --- canonical integers ----------------------------------------------- *)

(* A frame built by hand around the payload [fields] (a request unless
   [kind] says otherwise), with a valid length and checksum, so only the
   payload can be at fault. *)
let hand_frame ?(kind = "Q") fields =
  let payload =
    String.concat ""
      (List.map (fun f -> string_of_int (String.length f) ^ ":" ^ f) fields)
  in
  let u32 v =
    String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff))
  in
  let body = kind ^ u32 0 ^ u32 (String.length payload) ^ payload in
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    body;
  body ^ u32 !h

let test_noncanonical_int_field () =
  let request tc_field = hand_frame [ tc_field; "5"; "0"; "D"; "kv"; "k" ] in
  Alcotest.(check bool) "the canonical frame decodes" true
    (Wire.decode_request (request "7")
    = Wire.Request
        {
          Wire.tc = tc 7;
          lsn = lsn 5;
          part = 0;
          op = Op.Delete { table = "kv"; key = "k" };
        });
  List.iter
    (fun f ->
      let frame = request f in
      Alcotest.(check bool) ("frame checks out: " ^ f) true
        (Wire.frame_ok frame);
      match Wire.decode_request frame with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "int field %S accepted" f)
    [ "+7"; "0x7"; "007"; "07"; "-0"; "" ]

(* Batch payloads that pass the checksum but are cut short or written in
   a form the encoder never writes. *)
let test_bad_batch_payloads () =
  let batch = [ "B"; "7"; "0"; "5"; "3"; "D"; "kv"; "k" ] in
  let reply = [ "B"; "7"; "5"; "1"; "D" ] in
  Alcotest.(check bool) "the canonical batch decodes" true
    (Wire.decode_request (hand_frame batch)
    = Wire.Redo_batch
        {
          tc = tc 7;
          part = 0;
          ops = [ (lsn 5, Op.Delete { table = "kv"; key = "k" }) ];
        });
  Alcotest.(check bool) "the canonical batch reply decodes" true
    (Wire.decode_reply (hand_frame ~kind:"R" reply)
    = Wire.Redo_batch_reply { tc = tc 7; outcomes = [ (lsn 5, Wire.Done) ] });
  let rejected what decode frame =
    Alcotest.(check bool) (what ^ ": frame checks out") true (Wire.frame_ok frame);
    match decode frame with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let request what fields = rejected what Wire.decode_request (hand_frame fields) in
  let reply_ what fields =
    rejected what Wire.decode_reply (hand_frame ~kind:"R" fields)
  in
  request "batch without part" [ "B"; "7" ];
  request "entry without count" [ "B"; "7"; "0"; "5" ];
  request "count beyond the payload" [ "B"; "7"; "0"; "5"; "4"; "D"; "kv"; "k" ];
  request "count short of the op" [ "B"; "7"; "0"; "5"; "2"; "D"; "kv"; "k" ];
  request "count with a leading zero" [ "B"; "7"; "0"; "5"; "03"; "D"; "kv"; "k" ];
  request "negative count" [ "B"; "7"; "0"; "5"; "-3"; "D"; "kv"; "k" ];
  request "non-canonical lsn" [ "B"; "7"; "0"; "05"; "3"; "D"; "kv"; "k" ];
  request "non-canonical part" [ "B"; "7"; "+0"; "5"; "3"; "D"; "kv"; "k" ];
  request "second entry cut short" (batch @ [ "6"; "3"; "D"; "kv" ]);
  reply_ "outcome without count" [ "B"; "7"; "5" ];
  reply_ "outcome count beyond the payload" [ "B"; "7"; "5"; "2"; "D" ];
  reply_ "outcome count with a leading zero" [ "B"; "7"; "5"; "01"; "D" ];
  reply_ "outcome with a bad result tag" [ "B"; "7"; "5"; "1"; "x" ];
  reply_ "outcome with a result cut short" [ "B"; "7"; "5"; "1"; "V" ];
  reply_ "outcome with no fields" [ "B"; "7"; "5"; "0" ];
  reply_ "second outcome cut short" (reply @ [ "6"; "2"; "D" ]);
  (* every proper prefix of a batch frame's bytes is rejected *)
  let bytes = hand_frame batch in
  for cut = 0 to String.length bytes - 1 do
    match Wire.decode_request (String.sub bytes 0 cut) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "batch frame cut at %d accepted" cut
  done

let suite =
  List.map Helpers.qcheck_test
    [
      prop_request_roundtrip;
      prop_reply_roundtrip;
      prop_control_roundtrip;
      prop_control_reply_roundtrip;
      prop_frame_ok;
      prop_mutated_frames;
      prop_truncated_frames;
      prop_garbage;
      prop_tid_roundtrip;
      prop_corrupted_tid_never_misattributes;
      prop_kind_separation;
    ]
  @ [
      Alcotest.test_case "golden frames re-encode byte for byte" `Quick
        test_golden_frames;
      Alcotest.test_case "non-canonical int fields are rejected" `Quick
        test_noncanonical_int_field;
      Alcotest.test_case "truncated and non-canonical batches are rejected"
        `Quick test_bad_batch_payloads;
    ]
