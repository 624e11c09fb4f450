(* Unit tests for the utility layer: LSNs, codec, RNG, Zipf. *)

module Lsn = Untx_util.Lsn
module Codec = Untx_util.Codec
module Rng = Untx_util.Rng
module Zipf = Untx_util.Zipf
module Instrument = Untx_util.Instrument

let test_lsn_order () =
  let a = Lsn.of_int 3 and b = Lsn.of_int 7 in
  Alcotest.(check bool) "lt" true Lsn.(a < b);
  Alcotest.(check bool) "le" true Lsn.(a <= a);
  Alcotest.(check bool) "gt" true Lsn.(b > a);
  Alcotest.(check int) "next" 4 (Lsn.to_int (Lsn.next a));
  Alcotest.(check int) "prev" 2 (Lsn.to_int (Lsn.prev a));
  Alcotest.(check int) "prev zero" 0 (Lsn.to_int (Lsn.prev Lsn.zero));
  Alcotest.(check int) "max" 7 (Lsn.to_int (Lsn.max a b));
  Alcotest.(check int) "min" 3 (Lsn.to_int (Lsn.min a b))

let test_lsn_negative () =
  Alcotest.check_raises "negative rejected" (Invalid_argument "Lsn.of_int: negative")
    (fun () -> ignore (Lsn.of_int (-1)))

let test_codec_roundtrip () =
  let cases =
    [
      [];
      [ "" ];
      [ "a" ];
      [ "hello"; "world" ];
      [ "with:colon"; "with\x00null"; "123:456" ];
      [ String.make 1000 'x'; "" ; "y" ];
    ]
  in
  List.iter
    (fun fields ->
      Alcotest.(check (list string))
        "roundtrip" fields
        (Codec.decode (Codec.encode fields)))
    cases

let test_codec_malformed () =
  List.iter
    (fun s ->
      match Codec.decode s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" s)
    [
      "nocolon"; "5:abc"; "-1:"; "abc:x";
      (* lengths the encoder never writes: each would re-encode as 3:abc *)
      "03:abc"; "+3:abc"; "0x3:abc"; "0_3:abc"; " 3:abc"; "-0:"; ":";
      "1:a:"; "99999999999999999999:x"; "9223372036854775808:x";
    ];
  List.iter
    (fun s ->
      match Codec.decode_int s with
      | exception Invalid_argument _ -> ()
      | i -> Alcotest.failf "decode_int accepted %S as %d" s i)
    [
      ""; "-"; "+7"; "0x7"; "007"; "-0"; "-07"; "1_0"; " 7"; "7 "; "--7";
      "9223372036854775808"; "-9223372036854775809"; "99999999999999999999";
    ];
  List.iter
    (fun i ->
      Alcotest.(check int) "decode_int" i (Codec.decode_int (Codec.encode_int i)))
    [ 0; 7; -7; 10; max_int; min_int ]

let test_rng_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  let va = List.init 50 (fun _ -> Rng.int a 1000) in
  let vb = List.init 50 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" va vb;
  let c = Rng.create ~seed:124 in
  let vc = List.init 50 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed different stream" true (va <> vc)

let test_rng_chance_bounds () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance r 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.chance r 1.)
  done

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:9 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

let test_zipf_skew () =
  let r = Rng.create ~seed:11 in
  let z = Zipf.create ~n:100 ~theta:0.99 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let k = Zipf.sample z r in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 is hottest" true
    (counts.(0) > counts.(50) && counts.(0) > 1000)

let test_zipf_uniform () =
  let r = Rng.create ~seed:12 in
  let z = Zipf.create ~n:10 ~theta:0. in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Zipf.sample z r in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 700 && c < 1300))
    counts

let test_instrument () =
  let i = Instrument.create () in
  Instrument.bump i "a";
  Instrument.bump i "a";
  Instrument.bump_by i "b" 5;
  Alcotest.(check int) "a" 2 (Instrument.get i "a");
  Alcotest.(check int) "b" 5 (Instrument.get i "b");
  Alcotest.(check int) "missing" 0 (Instrument.get i "zzz");
  Alcotest.(check (list (pair string int)))
    "snapshot sorted"
    [ ("a", 2); ("b", 5) ]
    (Instrument.snapshot i);
  Instrument.reset i;
  Alcotest.(check int) "after reset" 0 (Instrument.get i "a")

(* Varints: the byte forms at each length boundary, and the forms the
   writer never produces. *)
let test_codec_varints () =
  let bytes_of n =
    let b = Bytes.create (Codec.varint_length n) in
    Alcotest.(check int) "write fills varint_length" (Bytes.length b)
      (Codec.write_varint n b 0);
    Bytes.to_string b
  in
  List.iter
    (fun (n, s) ->
      Alcotest.(check string) (Printf.sprintf "varint %d" n) s (bytes_of n);
      Alcotest.(check int) (Printf.sprintf "read %d" n) n (Codec.read_varint s 0))
    [
      (0, "\x00"); (1, "\x01"); (127, "\x7f"); (128, "\x80\x01");
      (300, "\xac\x02"); (16383, "\xff\x7f"); (16384, "\x80\x80\x01");
      (max_int, "\xff\xff\xff\xff\xff\xff\xff\xff\x3f");
    ];
  Alcotest.(check int) "read at an offset" 300 (Codec.read_varint "x\xac\x02" 1);
  List.iter
    (fun s ->
      match Codec.read_varint s 0 with
      | exception Invalid_argument _ -> ()
      | n -> Alcotest.failf "read_varint accepted %S as %d" s n)
    [
      ""; "\x80"; "\xff\xff";
      (* overlong: each would re-encode shorter *)
      "\x80\x00"; "\x81\x00"; "\xff\x80\x00";
      (* beyond max_int, and a tenth byte *)
      "\xff\xff\xff\xff\xff\xff\xff\xff\x40";
      "\xff\xff\xff\xff\xff\xff\xff\xff\x80\x01";
    ];
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a negative varint was written")
    [
      (fun () -> Codec.varint_length (-1));
      (fun () -> Codec.write_varint min_int (Bytes.create 16) 0);
    ]

let suite =
  [
    Alcotest.test_case "lsn ordering" `Quick test_lsn_order;
    Alcotest.test_case "lsn rejects negatives" `Quick test_lsn_negative;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_malformed;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng chance bounds" `Quick test_rng_chance_bounds;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
    Alcotest.test_case "instrument counters" `Quick test_instrument;
    Alcotest.test_case "codec varints" `Quick test_codec_varints;
  ]
