(* Abstract page LSNs (Section 5.1.2): the generalized idempotence test,
   low-water-mark advancement, the merge used by page consolidation, and
   a demonstration of exactly the out-of-order scenario that breaks the
   classical [opLSN <= pageLSN] test. *)

module Ablsn = Untx_dc.Ablsn
module Page_meta = Untx_dc.Page_meta
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id

let lsn = Lsn.of_int

let test_empty () =
  Alcotest.(check bool) "nothing included" false (Ablsn.included (lsn 1) Ablsn.empty);
  Alcotest.(check int) "max is zero" 0 (Lsn.to_int (Ablsn.max_lsn Ablsn.empty))

let test_add_included () =
  let ab = Ablsn.add (lsn 5) Ablsn.empty in
  Alcotest.(check bool) "5 included" true (Ablsn.included (lsn 5) ab);
  Alcotest.(check bool) "4 not included" false (Ablsn.included (lsn 4) ab);
  Alcotest.(check bool) "6 not included" false (Ablsn.included (lsn 6) ab)

(* The paper's motivating case: Oj (higher LSN) executes before Oi.
   A plain page LSN would claim Oi's effects are present; the abstract
   LSN does not. *)
let test_out_of_order_soundness () =
  let oi = lsn 10 and oj = lsn 20 in
  (* Oj arrives first *)
  let ab = Ablsn.add oj Ablsn.empty in
  let classical_page_lsn = Ablsn.max_lsn ab in
  Alcotest.(check bool) "classical test would lie" true
    Lsn.(oi <= classical_page_lsn);
  Alcotest.(check bool) "abstract test is honest" false
    (Ablsn.included oi ab);
  (* Oi arrives late and is applied *)
  let ab = Ablsn.add oi ab in
  Alcotest.(check bool) "now included" true (Ablsn.included oi ab)

let test_advance_lwm () =
  let ab =
    Ablsn.empty |> Ablsn.add (lsn 3) |> Ablsn.add (lsn 7) |> Ablsn.add (lsn 12)
  in
  Alcotest.(check int) "three members" 3 (Ablsn.ins_count ab);
  let ab = Ablsn.advance ~lwm:(lsn 7) ab in
  Alcotest.(check int) "lw raised" 7 (Lsn.to_int (Ablsn.lw ab));
  Alcotest.(check int) "covered members dropped" 1 (Ablsn.ins_count ab);
  (* coverage is preserved *)
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "lsn %d still included" l)
        true
        (Ablsn.included (lsn l) ab))
    [ 1; 3; 5; 7; 12 ];
  Alcotest.(check bool) "8 still excluded" false (Ablsn.included (lsn 8) ab);
  (* lwm never regresses *)
  let ab2 = Ablsn.advance ~lwm:(lsn 2) ab in
  Alcotest.(check int) "no regression" 7 (Lsn.to_int (Ablsn.lw ab2))

let test_add_below_lw_noop () =
  let ab = Ablsn.advance ~lwm:(lsn 10) Ablsn.empty in
  let ab2 = Ablsn.add (lsn 4) ab in
  Alcotest.(check bool) "equal" true (Ablsn.equal ab ab2)

let test_merge () =
  let a = Ablsn.advance ~lwm:(lsn 10) Ablsn.empty |> Ablsn.add (lsn 15) in
  let b = Ablsn.advance ~lwm:(lsn 12) Ablsn.empty |> Ablsn.add (lsn 11) in
  let m = Ablsn.merge a b in
  Alcotest.(check int) "lw is max" 12 (Lsn.to_int (Ablsn.lw m));
  Alcotest.(check bool) "15 kept" true (Ablsn.included (lsn 15) m);
  Alcotest.(check bool) "11 covered by lw" true (Ablsn.included (lsn 11) m);
  Alcotest.(check int) "11 dropped from ins" 1 (Ablsn.ins_count m);
  Alcotest.(check bool) "13 not included" false (Ablsn.included (lsn 13) m)

let test_max_lsn () =
  let ab = Ablsn.advance ~lwm:(lsn 5) Ablsn.empty in
  Alcotest.(check int) "lw when no ins" 5 (Lsn.to_int (Ablsn.max_lsn ab));
  let ab = Ablsn.add (lsn 9) ab in
  Alcotest.(check int) "max ins" 9 (Lsn.to_int (Ablsn.max_lsn ab))

let test_codec_roundtrip () =
  let cases =
    [
      Ablsn.empty;
      Ablsn.of_lw (lsn 42);
      Ablsn.empty |> Ablsn.add (lsn 1) |> Ablsn.add (lsn 100);
      Ablsn.advance ~lwm:(lsn 7) (Ablsn.add (lsn 20) Ablsn.empty);
    ]
  in
  List.iter
    (fun ab ->
      Alcotest.(check bool) "roundtrip" true
        (Ablsn.equal ab (Ablsn.decode (Ablsn.encode ab))))
    cases

let test_page_meta_roundtrip () =
  let tc1 = Tc_id.of_int 1 and tc2 = Tc_id.of_int 2 in
  let meta =
    {
      Page_meta.dlsn = lsn 9;
      ablsns =
        Tc_id.Map.empty
        |> Tc_id.Map.add tc1 (Ablsn.add (lsn 4) Ablsn.empty)
        |> Tc_id.Map.add tc2 (Ablsn.of_lw (lsn 17));
    }
  in
  let meta' = Page_meta.decode (Page_meta.encode meta) in
  Alcotest.(check int) "dlsn" 9 (Lsn.to_int meta'.Page_meta.dlsn);
  Alcotest.(check bool) "tc1 ablsn" true
    (Ablsn.equal (Page_meta.ablsn meta tc1) (Page_meta.ablsn meta' tc1));
  Alcotest.(check bool) "tc2 ablsn" true
    (Ablsn.equal (Page_meta.ablsn meta tc2) (Page_meta.ablsn meta' tc2));
  Alcotest.(check bool) "empty meta decodes" true
    (Page_meta.decode "" = Page_meta.empty)

let test_encoded_size_grows_with_ins () =
  let small = Ablsn.of_lw (lsn 1000) in
  let big = ref small in
  for i = 1001 to 1032 do
    big := Ablsn.add (lsn i) !big
  done;
  (* option 2 of Section 5.1.2 pays for every member it serializes *)
  Alcotest.(check bool) "bigger set, bigger encoding" true
    (Ablsn.encoded_size !big > Ablsn.encoded_size small + 32)

(* A two-TC page's metadata written out field by field from the
   layouts in page_meta.mli and ablsn.mli. *)
let test_page_meta_golden () =
  let meta =
    {
      Page_meta.dlsn = lsn 9;
      ablsns =
        Tc_id.Map.empty
        |> Tc_id.Map.add (Tc_id.of_int 2)
             (Ablsn.add (lsn 301) (Ablsn.of_lw (lsn 300)))
        |> Tc_id.Map.add (Tc_id.of_int 1) (Ablsn.add (lsn 4) Ablsn.empty);
    }
  in
  let bytes =
    "\x09\x02" (* dlsn 9, two TCs *)
    ^ "\x01\x00\x01\x04" (* TC 1: <lw=0,{4}> *)
    ^ "\x02\xac\x02\x01\xad\x02" (* TC 2: <lw=300,{301}> *)
  in
  Alcotest.(check string) "encoded" bytes (Page_meta.encode meta);
  Alcotest.(check int) "size" (String.length bytes) (Page_meta.encoded_size meta);
  let back = Page_meta.decode bytes in
  Alcotest.(check bool) "decoded" true
    (Lsn.equal back.dlsn meta.dlsn
    && Tc_id.Map.equal Ablsn.equal back.ablsns meta.ablsns);
  Alcotest.(check string) "empty" "\x00\x00" (Page_meta.encode Page_meta.empty);
  List.iter
    (fun (what, s) ->
      match Page_meta.decode s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %s" what)
    [
      ("TCs out of order", "\x09\x02\x02\x00\x00\x01\x00\x00");
      ("a member at lw", "\x09\x01\x01\x04\x01\x04");
      ("members out of order", "\x09\x01\x01\x00\x02\x05\x05");
      ("a cut abLSN", "\x09\x01\x01\x00\x01");
      ("trailing bytes", "\x09\x00\x00");
    ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/included" `Quick test_add_included;
    Alcotest.test_case "out-of-order soundness" `Quick
      test_out_of_order_soundness;
    Alcotest.test_case "advance by LWM" `Quick test_advance_lwm;
    Alcotest.test_case "add below lw is no-op" `Quick test_add_below_lw_noop;
    Alcotest.test_case "merge (consolidation)" `Quick test_merge;
    Alcotest.test_case "max_lsn" `Quick test_max_lsn;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "page meta roundtrip" `Quick test_page_meta_roundtrip;
    Alcotest.test_case "encoding size vs ins" `Quick
      test_encoded_size_grows_with_ins;
    Alcotest.test_case "page meta byte for byte" `Quick test_page_meta_golden;
  ]
