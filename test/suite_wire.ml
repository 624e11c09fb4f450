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

(* Integers cross every varint length boundary. *)
let gen_nat =
  Gen.(
    oneof
      [
        small_nat;
        int_range 100 20_000;
        oneofl [ 127; 128; 16383; 16384; max_int ];
      ])

let gen_mode = Gen.oneofl [ Op.Own; Op.Committed; Op.Dirty ]

let gen_op =
  Gen.(
    gen_str >>= fun table ->
    gen_str >>= fun key ->
    gen_str >>= fun value ->
    gen_nat >>= fun limit ->
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
        Op.Fetch { table; from_key = key; limit };
        Op.Commit_versions { table; keys };
        Op.Abort_versions { table; keys };
      ])

let gen_tc = Gen.map (fun i -> Tc_id.of_int (1 + i)) Gen.small_nat

let gen_lsn = Gen.map (fun i -> Lsn.of_int i) gen_nat

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

(* A fetch window: distinct keys in key order, each a row with its value
   or a hidden key. *)
let gen_window =
  Gen.(
    list_size (int_bound 6) gen_str >>= fun keys ->
    let keys = List.sort_uniq String.compare keys in
    list_repeat (List.length keys) (opt gen_str) >>= fun values ->
    let window = List.combine keys values in
    return
      (Wire.Window
         {
           rows =
             List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v)
               window;
           hidden =
             List.filter_map
               (fun (k, v) -> if Option.is_none v then Some k else None)
               window;
         }))

let gen_result =
  Gen.(
    gen_str >>= fun s ->
    opt gen_str >>= fun v ->
    list_size (int_bound 4) (pair gen_str gen_str) >>= fun pairs ->
    list_size (int_bound 4) gen_str >>= fun keys ->
    gen_window >>= fun window ->
    oneofl
      [ Wire.Done; Wire.Value v; Wire.Pairs pairs; Wire.Next_keys keys;
        window; Wire.Failed s ])

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
        Wire.Watermarks { tc; eosl = a; lwm = Lsn.zero };
        Wire.Watermarks { tc; eosl = Lsn.zero; lwm = a };
        Wire.Watermarks { tc; eosl = a; lwm = b };
        Wire.Checkpoint { tc; new_rssp = a };
        Wire.Restart_begin { tc; stable_lsn = a };
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

let gen_repl_msg =
  Gen.(
    gen_tc >>= fun tc ->
    small_nat >>= fun epoch ->
    small_nat >>= fun seq ->
    gen_lsn >>= fun eosl ->
    gen_lsn >>= fun lwm ->
    gen_lsn >>= fun upto ->
    list_size (int_bound 4) (pair gen_lsn gen_op) >>= fun ops ->
    oneofl
      [ Wire.Repl_hello { tc }; Wire.Repl_ship { tc; eosl; lwm; upto; ops } ]
    >>= fun p_repl ->
    return { Wire.p_epoch = 1 + epoch; p_seq = 1 + seq; p_repl })

let gen_repl_reply_msg =
  Gen.(
    gen_tc >>= fun q_tc ->
    small_nat >>= fun epoch ->
    small_nat >>= fun seq ->
    gen_lsn >>= fun applied ->
    return
      {
        Wire.q_tc;
        q_epoch = 1 + epoch;
        q_seq = 1 + seq;
        q_reply = Wire.Repl_ack { applied };
      })

(* One arbitrary covering all six frame kinds, with the
   decoded-re-encoded check done against the right decoder. *)
type any_frame =
  | Freq of Wire.request_msg
  | Frep of Wire.reply_msg
  | Fctl of Wire.control_msg
  | Fcrp of Wire.control_reply_msg
  | Frpl of Wire.repl_msg
  | Frpr of Wire.repl_reply_msg

let gen_any_frame =
  Gen.oneof
    [
      Gen.map (fun r -> Freq r) gen_request_msg;
      Gen.map (fun r -> Frep r) gen_reply_msg;
      Gen.map (fun m -> Fctl m) gen_control_msg;
      Gen.map (fun m -> Fcrp m) gen_control_reply_msg;
      Gen.map (fun m -> Frpl m) gen_repl_msg;
      Gen.map (fun m -> Frpr m) gen_repl_reply_msg;
    ]

let encode_any_tid tid = function
  | Freq r -> Wire.encode_request ~tid r
  | Frep r -> Wire.encode_reply ~tid r
  | Fctl m -> Wire.encode_control ~tid m
  | Fcrp m -> Wire.encode_control_reply ~tid m
  | Frpl m -> Wire.encode_repl ~tid m
  | Frpr m -> Wire.encode_repl_reply ~tid m

let encode_any = encode_any_tid 0

(* Whether [bytes] decodes as the kind of [f] (to anything). *)
let decodes_as f bytes =
  match
    match f with
    | Freq _ -> ignore (Wire.decode_request bytes)
    | Frep _ -> ignore (Wire.decode_reply bytes)
    | Fctl _ -> ignore (Wire.decode_control bytes)
    | Fcrp _ -> ignore (Wire.decode_control_reply bytes)
    | Frpl _ -> ignore (Wire.decode_repl bytes)
    | Frpr _ -> ignore (Wire.decode_repl_reply bytes)
  with
  | () -> true
  | exception Invalid_argument _ -> false

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let print_any f = hex (encode_any f)

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
  && well_behaved Wire.decode_repl Wire.encode_repl frame
  && well_behaved Wire.decode_repl_reply Wire.encode_repl_reply frame
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
      | Fcrp m -> Wire.decode_control_reply bytes = m
      | Frpl m -> Wire.decode_repl bytes = m
      | Frpr m -> Wire.decode_repl_reply bytes = m)

let prop_corrupted_tid_never_misattributes =
  (* The id sits inside the checksummed region: flip any single bit of
     its varint's bytes and the whole frame must fail validation, with
     frame_tid reporting the reserved untraced id — a corrupted frame
     can be dropped but never attributed to another operation's span. *)
  Test.make ~name:"corrupted trace id fails the checksum, never misattributes"
    ~count:500
    (make
       ~print:(fun (f, (tid, byte, bit)) ->
         Printf.sprintf "%s tid=%d byte=%d bit=%d" (print_any f) tid byte bit)
       Gen.(
         pair gen_any_frame
           (triple (int_range 1 0xFFFFFFFF) (int_bound 4) (int_bound 7))))
    (fun (f, (tid, byte, bit)) ->
      let bytes = encode_any_tid tid f in
      let b = Bytes.of_string bytes in
      let i = 1 + (byte mod Untx_util.Codec.varint_length tid) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      let mutant = Bytes.unsafe_to_string b in
      (not (Wire.frame_ok mutant))
      && Wire.frame_tid mutant = 0
      && total mutant)

(* Cross-kind confusion: a frame of one kind must never decode as
   another (the kind byte is part of the checksummed header). *)
let prop_kind_separation =
  Test.make ~name:"frame kinds do not cross-decode" ~count:300
    (make
       ~print:(fun (f, other) -> print_any f ^ " as " ^ print_any other)
       (Gen.pair gen_any_frame gen_any_frame))
    (fun (f, other) ->
      let bytes = encode_any f in
      decodes_as f bytes
      && (Char.equal bytes.[0] (encode_any other).[0]
         || not (decodes_as other bytes)))

(* --- golden frames ------------------------------------------------- *)

(* One frame of each kind, plus a scan request, a probe reply and the
   redo batch and its reply, written out byte by byte from the layout in
   wire.mli: header (kind, trace id varint, payload length varint),
   payload fields, FNV-1a checksum.  They cross the varint boundaries
   127/128 and 16383/16384, carry an empty field, a 120-byte value and
   a two-byte payload length, use four trace ids (a four-byte one among
   them), and front-code keys with nothing shared, a key that extends
   the one before it and a key that is a prefix of it.  The binary
   layout replaced a decimal-text field list; varint headers and
   front-coded key lists then replaced the fixed 4-byte trace id and
   length and whole keys, on purpose.  A layout change is the only
   reason these bytes may move. *)

(* Hex, with spaces between fields for the reader. *)
let of_hex h =
  let h = String.concat "" (String.split_on_char ' ' h) in
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let tc = Tc_id.of_int

let lsn = Lsn.of_int

let golden =
  [
    ( "request",
      [
        "51 84868808 1c";  (* 'Q', trace id 0x01020304, 28-byte payload *)
        "53 03 7f 02";  (* 'S', tc 3, lsn 127, part 2 *)
        "55 02 6b76";  (* 'U', table "kv" *)
        "09 6b3030303030303432";  (* key "k00000042" *)
        "09 763a31323334353637";  (* value "v:1234567" *)
        "5df65f68";
      ],
      Wire.encode_request ~tid:0x01020304
        (Wire.Request
           {
             Wire.tc = tc 3;
             lsn = lsn 127;
             part = 2;
             op =
               Op.Update { table = "kv"; key = "k00000042"; value = "v:1234567" };
           }),
      fun s -> Wire.encode_request ~tid:0x01020304 (Wire.decode_request s) );
    ( "scan request",
      [
        "51 00 0e";  (* 'Q', untraced, 14-byte payload *)
        "53 03 8001 00";  (* 'S', tc 3, lsn 128, part 0 *)
        "53 02 6b76 00";  (* 'S' scan, table "kv", from_key "" *)
        "808001 63";  (* limit 16384, mode 'c' committed *)
        "78a3f93b";
      ],
      Wire.encode_request
        (Wire.Request
           {
             Wire.tc = tc 3;
             lsn = lsn 128;
             part = 0;
             op =
               Op.Scan
                 {
                   table = "kv";
                   from_key = "";
                   limit = 16384;
                   mode = Op.Committed;
                 };
           }),
      fun s -> Wire.encode_request (Wire.decode_request s) );
    ( "reply with pairs",
      [
        "52 4d 8b01";  (* 'R', trace id 77, 139-byte payload *)
        "53 03 8001";  (* 'S', tc 3, lsn 128 *)
        "50 03";  (* 'P', 3 pairs *)
        "00 01 61 01 31";  (* key: shares 0, "a"; value "1" *)
        "00 02 6262 00";  (* key: shares 0, "bb"; value "" *)
        "00 00 78" ^ String.concat "" (List.init 120 (fun _ -> "78"));
        (* key: shares 0, "" (a prefix of "bb"); value 120 'x' *)
        "771f0e06";
      ],
      Wire.encode_reply ~tid:77
        (Wire.Reply
           {
             Wire.tc = tc 3;
             lsn = lsn 128;
             result =
               Wire.Pairs [ ("a", "1"); ("bb", ""); ("", String.make 120 'x') ];
           }),
      fun s -> Wire.encode_reply ~tid:77 (Wire.decode_reply s) );
    ( "redo batch",
      [
        "51 09 21";  (* 'Q', trace id 9, 33-byte payload *)
        "42 03 01 02";  (* 'B', tc 3, part 1, 2 operations *)
        "ff7f 55 02 6b76 02 6b37 04 763a3431";
        (* lsn 16383: 'U' "kv" "k7" "v:41" *)
        "808001 56 02 6b76 02";  (* lsn 16384: 'V' "kv", 2 keys *)
        "00 02 6b37";  (* shares 0, "k7" *)
        "01 01 38";  (* shares 1, "8": "k8" *)
        "ecac2849";
      ],
      Wire.encode_request ~tid:9
        (Wire.Redo_batch
           {
             tc = tc 3;
             part = 1;
             ops =
               [
                 ( lsn 16383,
                   Op.Update { table = "kv"; key = "k7"; value = "v:41" } );
                 ( lsn 16384,
                   Op.Commit_versions { table = "kv"; keys = [ "k7"; "k8" ] } );
               ];
           }),
      fun s -> Wire.encode_request ~tid:9 (Wire.decode_request s) );
    ( "redo batch reply",
      [
        "52 09 1b";  (* 'R', trace id 9, 27-byte payload *)
        "42 03 04";  (* 'B', tc 3, 4 outcomes *)
        "29 44";  (* lsn 41: 'D' done *)
        "2a 46 0b 6e6f2073756368206b6579";  (* lsn 42: 'F' "no such key" *)
        "2b 56 00";  (* lsn 43: 'V', absent *)
        "2c 56 01 01 76";  (* lsn 44: 'V', present, "v" *)
        "44091d46";
      ],
      Wire.encode_reply ~tid:9
        (Wire.Redo_batch_reply
           {
             tc = tc 3;
             outcomes =
               [
                 (lsn 41, Wire.Done);
                 (lsn 42, Wire.Failed "no such key");
                 (lsn 43, Wire.Value None);
                 (lsn 44, Wire.Value (Some "v"));
               ];
           }),
      fun s -> Wire.encode_reply ~tid:9 (Wire.decode_reply s) );
    ( "probe reply",
      [
        "52 00 12";  (* 'R', untraced, 18-byte payload *)
        "53 03 c801";  (* 'S', tc 3, lsn 200 *)
        "4e 04";  (* 'N', 4 keys *)
        "00 02 6162";  (* shares 0, "ab" *)
        "02 01 63";  (* shares 2, "c": "abc" extends "ab" *)
        "01 00";  (* shares 1, "": "a" is a prefix of "abc" *)
        "00 01 62";  (* shares 0, "b" *)
        "3d1bc71f";
      ],
      Wire.encode_reply
        (Wire.Reply
           {
             Wire.tc = tc 3;
             lsn = lsn 200;
             result = Wire.Next_keys [ "ab"; "abc"; "a"; "b" ];
           }),
      fun s -> Wire.encode_reply (Wire.decode_reply s) );
    ( "fetch request",
      [
        "51 00 0d";  (* 'Q', untraced, 13-byte payload *)
        "53 03 c901 00";  (* 'S', tc 3, lsn 201, part 0 *)
        "46 02 6b76";  (* 'F' fetch, table "kv" *)
        "02 6b30 0a";  (* from_key "k0", limit 10 *)
        "db38c6b1";
      ],
      Wire.encode_request
        (Wire.Request
           {
             Wire.tc = tc 3;
             lsn = lsn 201;
             part = 0;
             op = Op.Fetch { table = "kv"; from_key = "k0"; limit = 10 };
           }),
      fun s -> Wire.encode_request (Wire.decode_request s) );
    ( "window reply",
      [
        "52 00 18";  (* 'R', untraced, 24-byte payload *)
        "53 03 c901";  (* 'S', tc 3, lsn 201 *)
        "57 02";  (* 'W', 2 rows *)
        "00 02 6b30 01 61";  (* key: shares 0, "k0"; value "a" *)
        "01 01 32 00";  (* key: shares 1, "2": "k2"; value "" *)
        "02";  (* 2 hidden keys *)
        "00 02 6b31";  (* shares 0, "k1": front-coded afresh *)
        "01 01 33";  (* shares 1, "3": "k3" *)
        "608783c8";
      ],
      Wire.encode_reply
        (Wire.Reply
           {
             Wire.tc = tc 3;
             lsn = lsn 201;
             result =
               Wire.Window
                 {
                   rows = [ ("k0", "a"); ("k2", "") ];
                   hidden = [ "k1"; "k3" ];
                 };
           }),
      fun s -> Wire.encode_reply (Wire.decode_reply s) );
    ( "control",
      [
        "43 00 08";  (* 'C', untraced, 8-byte payload *)
        "02 11";  (* epoch 2, seq 17 *)
        "57 03 e807 e607";  (* 'W', tc 3, eosl 1000, lwm 998 *)
        "7c60271f";
      ],
      Wire.encode_control
        {
          Wire.c_epoch = 2;
          c_seq = 17;
          c_ctl = Wire.Watermarks { tc = tc 3; eosl = lsn 1000; lwm = lsn 998 };
        },
      fun s -> Wire.encode_control (Wire.decode_control s) );
    ( "control reply",
      [
        "4b 00 05";  (* 'K', untraced, 5-byte payload *)
        "03 02 11";  (* tc 3, epoch 2, seq 17 *)
        "47 01";  (* 'G', granted *)
        "e2220df3";
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
      [
        "53 05 1a";  (* 'S', trace id 5, 26-byte payload *)
        "01 09";  (* epoch 1, seq 9 *)
        "53 02 0c 0a 0c";  (* 'S', tc 2, eosl 12, lwm 10, upto 12 *)
        "02";  (* 2 records *)
        "0b 49 02 6b76 02 6b31 01 76";  (* lsn 11: 'I' "kv" "k1" "v" *)
        "0c 44 02 6b76 02 6b30";  (* lsn 12: 'D' "kv" "k0" *)
        "5a34dc4a";
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
      [
        "54 00 05";  (* 'T', untraced, 5-byte payload *)
        "02 01 09";  (* tc 2, epoch 1, seq 9 *)
        "41 0c";  (* 'A', applied 12 *)
        "f31baf1d";
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
      let bytes = of_hex (String.concat " " hex) in
      Alcotest.(check string) (name ^ ": encoded") bytes encoded;
      Alcotest.(check string) (name ^ ": decoded and re-encoded") bytes
        (reencode bytes))
    golden

(* --- malformed payloads ------------------------------------------------ *)

(* [body] with its FNV-1a checksum appended, so only the body can be at
   fault. *)
let sealed body =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    body;
  body ^ String.init 4 (fun i -> Char.chr ((!h lsr (8 * (3 - i))) land 0xff))

(* A frame of [kind] built by hand around [payload]: untraced, with a
   valid length and checksum, so only the payload can be at fault. *)
let hand_frame ?(kind = "Q") payload =
  sealed
    (kind ^ "\000" ^ Untx_util.Codec.varint (String.length payload) ^ payload)

(* The payload of a valid frame, past its varint header. *)
let payload_of bytes =
  let tid = Untx_util.Codec.read_varint bytes 1 in
  let at = 1 + Untx_util.Codec.varint_length tid in
  let len = Untx_util.Codec.read_varint bytes at in
  String.sub bytes (at + Untx_util.Codec.varint_length len) len

(* The payload, in hex, of a frame that passes the checksum but must
   not decode. *)
let rejected what decode kind payload_hex =
  let frame = hand_frame ~kind (of_hex payload_hex) in
  Alcotest.(check bool)
    (what ^ ": frame checks out")
    true (Wire.frame_ok frame);
  match decode frame with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s accepted" what

let reject_request what = rejected what Wire.decode_request "Q"

let reject_reply what = rejected what Wire.decode_reply "R"

(* Integers in a form the encoder never writes: overlong varints,
   varints past [max_int], and one whose last byte would sit in the
   checksum. *)
let test_noncanonical_int_field () =
  (* 'S', tc, lsn 5, part 0, 'D' "kv" "k" *)
  let request tc_hex = "53 " ^ tc_hex ^ " 05 00 44 02 6b76 01 6b" in
  Alcotest.(check bool) "the canonical frame decodes" true
    (Wire.decode_request (hand_frame (of_hex (request "07")))
    = Wire.Request
        {
          Wire.tc = tc 7;
          lsn = lsn 5;
          part = 0;
          op = Op.Delete { table = "kv"; key = "k" };
        });
  List.iter
    (fun (what, tc_hex) -> reject_request what (request tc_hex))
    [
      ("overlong 7", "8700");
      ("overlong 7, three bytes", "878000");
      ("overlong 0", "8000");
      ("beyond max_int", "ffffffffffffffff40");
      ("ten bytes", "ffffffffffffffff8001");
    ];
  (* A varint cut short by the end of the payload, though the bytes of
     the checksum follow it in the frame. *)
  rejected "truncated varint" Wire.decode_repl_reply "T" "02 01 09 41 8c";
  rejected "truncated varint" Wire.decode_control "C" "02 91"

(* Headers in a form the encoder never writes, each sealed with a valid
   checksum: an overlong trace id or length varint, a trace id of 2^32
   or more, and a length that disagrees with the frame. *)
let test_noncanonical_headers () =
  (* 'S', tc 7, lsn 5, 'D': a reply of 4 bytes *)
  let payload = "53 07 05 44" in
  let frame header = sealed (of_hex (header ^ " " ^ payload)) in
  let accepted header =
    Wire.frame_ok (frame header)
    && Wire.decode_reply (frame header)
       = Wire.Reply { Wire.tc = tc 7; lsn = lsn 5; result = Wire.Done }
  in
  Alcotest.(check bool) "the canonical header decodes" true
    (accepted "52 00 04");
  Alcotest.(check bool) "the largest trace id decodes" true
    (accepted "52 ffffffff0f 04"
    && Wire.frame_tid (frame "52 ffffffff0f 04") = 0xFFFFFFFF);
  List.iter
    (fun (what, header) ->
      let f = frame header in
      Alcotest.(check bool) (what ^ ": frame_ok") false (Wire.frame_ok f);
      Alcotest.(check int) (what ^ ": no trace id") 0 (Wire.frame_tid f);
      match Wire.decode_reply f with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("overlong trace id", "52 8000 04");
      ("overlong trace id 5", "52 8500 04");
      ("overlong length", "52 00 8400");
      ("trace id 2^32", "52 8080808010 04");
      ("trace id past 2^32", "52 ffffffff1f 04");
      ("length one short", "52 00 03");
      ("length one long", "52 00 05");
      ("length in the checksum", "52 00 84");
    ]

(* Key lists in a form the encoder never writes: a shared length
   beyond the key before (the first key's is ""), and a shared prefix
   that is not the longest, its rest opening with the byte the key
   before has there. *)
let test_noncanonical_key_lists () =
  (* 'S', tc 7, lsn 5, then a result *)
  let reply result_hex = "53 07 05 " ^ result_hex in
  let next_keys keys = reply ("4e " ^ keys) in
  Alcotest.(check bool) "canonical keys decode" true
    (Wire.decode_reply
       (hand_frame ~kind:"R"
          (of_hex (next_keys "04 00 02 6162 01 01 63 02 00 00 00")))
    = Wire.Reply
        {
          Wire.tc = tc 7;
          lsn = lsn 5;
          result = Wire.Next_keys [ "ab"; "ac"; "ac"; "" ];
        });
  reject_reply "first key shares a byte" (next_keys "01 01 00");
  reject_reply "shared beyond the key before" (next_keys "02 00 02 6162 03 00");
  reject_reply "shares 0 of \"ab\", rest \"ac\""
    (next_keys "02 00 02 6162 00 02 6163");
  reject_reply "shares 1 of \"ab\", rest \"bc\""
    (next_keys "02 00 02 6162 01 02 6263");
  reject_reply "shares 1 of \"ab\", rest \"b\""
    (next_keys "02 00 02 6162 01 01 62");
  reject_reply "rest beyond the payload" (next_keys "01 00 05 6162");
  reject_reply "pair key shares 0 of \"a\", rest \"ab\""
    (reply "50 02 00 01 61 00 00 02 6162 00");
  reject_reply "pair key shared beyond the key before"
    (reply "50 02 00 01 61 00 02 00 00");
  reject_request "commit keys share 0 of \"k7\", rest \"k8\""
    "53 07 05 00 56 02 6b76 02 00 02 6b37 00 02 6b38";
  reject_request "abort keys shared beyond the key before"
    "53 07 05 00 41 02 6b76 02 00 02 6b37 03 00"

(* A window holds each key once, in key order, so it has one encoding:
   rows or hidden keys out of order, a key twice, or a hidden key that
   is also a row's are rejected. *)
let test_noncanonical_windows () =
  (* 'S', tc 7, lsn 5, then 'W' *)
  let window hex = "53 07 05 57 " ^ hex in
  Alcotest.(check bool) "a canonical window decodes" true
    (Wire.decode_reply
       (hand_frame ~kind:"R" (of_hex (window "01 00 01 61 00 01 00 01 62")))
    = Wire.Reply
        {
          Wire.tc = tc 7;
          lsn = lsn 5;
          result = Wire.Window { rows = [ ("a", "") ]; hidden = [ "b" ] };
        });
  reject_reply "a hidden key that is a row's"
    (window "01 00 01 61 00 01 00 01 61");
  reject_reply "rows out of order" (window "02 00 01 62 00 00 01 61 00 00");
  reject_reply "a row twice" (window "02 00 01 61 00 01 00 00 00");
  reject_reply "hidden keys out of order" (window "00 02 00 01 62 00 01 61");
  reject_reply "a hidden key twice" (window "00 02 00 01 61 01 00");
  reject_reply "no hidden key list" (window "01 00 01 61 00");
  reject_reply "trailing byte" (window "00 00 00")

(* Batch payloads that pass the checksum but are cut short, miscounted
   or carry bytes past their last entry. *)
let test_bad_batch_payloads () =
  (* 'B', tc 7, part 0, 1 op: lsn 5, 'D' "kv" "k" *)
  let batch = "42 07 00 01 05 44 02 6b76 01 6b" in
  (* 'B', tc 7, 1 outcome: lsn 5, 'D' *)
  let reply = "42 07 01 05 44" in
  Alcotest.(check bool) "the canonical batch decodes" true
    (Wire.decode_request (hand_frame (of_hex batch))
    = Wire.Redo_batch
        {
          tc = tc 7;
          part = 0;
          ops = [ (lsn 5, Op.Delete { table = "kv"; key = "k" }) ];
        });
  Alcotest.(check bool) "the canonical batch reply decodes" true
    (Wire.decode_reply (hand_frame ~kind:"R" (of_hex reply))
    = Wire.Redo_batch_reply { tc = tc 7; outcomes = [ (lsn 5, Wire.Done) ] });
  reject_request "batch without part" "42 07";
  reject_request "batch without count" "42 07 00";
  reject_request "entry without op" "42 07 00 01 05";
  reject_request "count beyond the payload" "42 07 00 0b 05 44 02 6b76 01 6b";
  reject_request "count of two, one entry" "42 07 00 02 05 44 02 6b76 01 6b";
  reject_request "count with a zero continuation"
    "42 07 00 8100 05 44 02 6b76 01 6b";
  reject_request "non-canonical lsn" "42 07 00 01 8500 44 02 6b76 01 6b";
  reject_request "string beyond the payload" "42 07 00 01 05 44 02 6b76 02 6b";
  reject_request "trailing byte" (batch ^ " 00");
  reject_request "second entry cut short"
    "42 07 00 02 05 44 02 6b76 01 6b 06 44 02 6b76";
  reject_reply "outcome without result" "42 07 01 05";
  reject_reply "outcome count beyond the payload" "42 07 03 05 44";
  reject_reply "outcome with a bad result tag" "42 07 01 05 78";
  reject_reply "outcome with a value cut short" "42 07 01 05 56";
  reject_reply "outcome with a bad presence byte" "42 07 01 05 56 02 01 76";
  reject_reply "trailing byte" (reply ^ " 44");
  (* every proper prefix of a batch frame's bytes is rejected *)
  let bytes = hand_frame (of_hex batch) in
  for cut = 0 to String.length bytes - 1 do
    match Wire.decode_request (String.sub bytes 0 cut) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "batch frame cut at %d accepted" cut
  done

(* Unknown tags and trailing bytes on every other frame kind. *)
let test_bad_payloads () =
  reject_request "unknown request tag" "51 07 05 00 44 02 6b76 01 6b";
  reject_request "unknown op tag" "53 07 05 00 5a 02 6b76 01 6b";
  reject_request "unknown read mode" "53 07 05 00 52 02 6b76 01 6b 78";
  reject_request "keys count beyond the payload"
    "53 07 05 00 56 02 6b76 09 01 6b";
  reject_request "trailing byte" "53 07 05 00 44 02 6b76 01 6b 00";
  reject_reply "unknown reply tag" "44 07 05 44";
  reject_reply "unknown result tag" "53 07 05 58";
  reject_reply "pairs count beyond the payload" "53 07 05 50 05 01 61 01 62";
  reject_reply "odd pair" "53 07 05 50 01 01 61";
  reject_reply "trailing byte" "53 07 05 44 44";
  rejected "unknown control tag" Wire.decode_control "C" "02 11 58 03 0c";
  rejected "control trailing byte" Wire.decode_control "C" "02 11 4c 03 0c 0c";
  rejected "control cut short" Wire.decode_control "C" "02 11 57 03 0c";
  rejected "unknown control reply tag" Wire.decode_control_reply "K"
    "03 02 11 42";
  rejected "bad grant byte" Wire.decode_control_reply "K" "03 02 11 47 02";
  rejected "control reply trailing byte" Wire.decode_control_reply "K"
    "03 02 11 41 00";
  rejected "unknown repl tag" Wire.decode_repl "S" "01 09 58 02";
  rejected "ship count beyond the payload" Wire.decode_repl "S"
    "01 09 53 02 0c 0a 0c 05 0b 44 02 6b76 01 6b";
  rejected "repl trailing byte" Wire.decode_repl "S" "01 09 48 02 00";
  rejected "unknown repl reply tag" Wire.decode_repl_reply "T"
    "02 01 09 42 0c";
  rejected "repl reply trailing byte" Wire.decode_repl_reply "T"
    "02 01 09 41 0c 0c"

(* The three watermark layouts each decode to [Watermarks], and each
   is the one the encoder writes for its marks; a layout that spells out
   a zero mark is not, and is rejected. *)
let test_watermark_layouts () =
  let watermarks eosl lwm =
    Wire.Watermarks { tc = tc 3; eosl = lsn eosl; lwm = lsn lwm }
  in
  List.iter
    (fun (what, payload_hex, ctl) ->
      let frame = hand_frame ~kind:"C" (of_hex ("02 11 " ^ payload_hex)) in
      Alcotest.(check bool) (what ^ ": decodes") true
        (Wire.decode_control frame
        = { Wire.c_epoch = 2; c_seq = 17; c_ctl = ctl });
      Alcotest.(check string) (what ^ ": encodes") frame
        (Wire.encode_control { Wire.c_epoch = 2; c_seq = 17; c_ctl = ctl }))
    [
      ("'E', eosl 12", "45 03 0c", watermarks 12 0);
      ("'E', both marks zero", "45 03 00", watermarks 0 0);
      ("'L', lwm 10", "4c 03 0a", watermarks 0 10);
      ("'W', eosl 12, lwm 10", "57 03 0c 0a", watermarks 12 10);
    ];
  let reject what = rejected what Wire.decode_control "C" in
  reject "'L' with a zero lwm" "02 11 4c 03 00";
  reject "'W' with a zero eosl" "02 11 57 03 00 0a";
  reject "'W' with a zero lwm" "02 11 57 03 0c 00";
  reject "'W' with both marks zero" "02 11 57 03 00 00";
  reject "the retired restart-end tag 'r'" "02 11 72 03"

(* Every proper prefix of a payload, and the payload with any byte
   appended, re-sealed into a valid frame, is rejected: a decoder
   reads exactly the fields the encoder wrote. *)
let prop_prefix_and_suffix =
  Test.make ~name:"payload prefixes and extensions are rejected" ~count:300
    (make
       ~print:(fun (f, c) ->
         Printf.sprintf "%s + %02x" (print_any f) (Char.code c))
       Gen.(pair gen_any_frame char))
    (fun (f, c) ->
      let bytes = encode_any f in
      let kind = String.sub bytes 0 1 and p = payload_of bytes in
      String.equal (hand_frame ~kind p) bytes
      && (not (decodes_as f (hand_frame ~kind (p ^ String.make 1 c))))
      && List.for_all
           (fun cut ->
             not (decodes_as f (hand_frame ~kind (String.sub p 0 cut))))
           (List.init (String.length p) Fun.id))

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
      prop_prefix_and_suffix;
    ]
  @ [
      Alcotest.test_case "windows are canonical" `Quick
        test_noncanonical_windows;
      Alcotest.test_case "golden frames re-encode byte for byte" `Quick
        test_golden_frames;
      Alcotest.test_case "non-canonical int fields are rejected" `Quick
        test_noncanonical_int_field;
      Alcotest.test_case "non-canonical headers are rejected" `Quick
        test_noncanonical_headers;
      Alcotest.test_case "non-canonical key lists are rejected" `Quick
        test_noncanonical_key_lists;
      Alcotest.test_case "truncated and non-canonical batches are rejected"
        `Quick test_bad_batch_payloads;
      Alcotest.test_case "unknown tags and trailing bytes are rejected" `Quick
        test_bad_payloads;
      Alcotest.test_case "watermark layouts are canonical" `Quick
        test_watermark_layouts;
    ]
