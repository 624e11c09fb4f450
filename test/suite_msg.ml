(* The wire vocabulary: conflict detection (the basis of the TC's
   no-conflicting-in-flight obligation), footprints, sizes. *)

module Op = Untx_msg.Op
module Wire = Untx_msg.Wire
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id

let ins k = Op.Insert { table = "t"; key = k; value = "v" }

let upd k = Op.Update { table = "t"; key = k; value = "v" }

let del k = Op.Delete { table = "t"; key = k }

let rd k = Op.Read { table = "t"; key = k; mode = Op.Own }

let scan from = Op.Scan { table = "t"; from_key = from; limit = 10; mode = Op.Own }

let probe from = Op.Probe { table = "t"; from_key = from; limit = 10 }

let fetch from = Op.Fetch { table = "t"; from_key = from; limit = 10 }

let cv keys = Op.Commit_versions { table = "t"; keys }

let test_point_conflicts () =
  Alcotest.(check bool) "same-key writes conflict" true
    (Op.conflicts (upd "k") (del "k"));
  Alcotest.(check bool) "different keys do not" false
    (Op.conflicts (upd "a") (upd "b"));
  Alcotest.(check bool) "read vs write same key" true
    (Op.conflicts (rd "k") (ins "k"));
  Alcotest.(check bool) "two reads never conflict" false
    (Op.conflicts (rd "k") (rd "k"))

let test_table_separation () =
  let other = Op.Update { table = "u"; key = "k"; value = "v" } in
  Alcotest.(check bool) "different tables never conflict" false
    (Op.conflicts (upd "k") other)

let test_range_conflicts () =
  Alcotest.(check bool) "scan vs write in range" true
    (Op.conflicts (scan "k10") (upd "k20"));
  Alcotest.(check bool) "scan vs write below range" false
    (Op.conflicts (scan "k10") (upd "k05"));
  Alcotest.(check bool) "two scans are reads" false
    (Op.conflicts (scan "a") (scan "b"));
  Alcotest.(check bool) "probe is a read" true (Op.is_read (probe "a"));
  Alcotest.(check bool) "probe vs write in range" true
    (Op.conflicts (probe "k10") (del "k99"));
  Alcotest.(check bool) "fetch is a read" true (Op.is_read (fetch "a"));
  Alcotest.(check bool) "fetch vs write in range" true
    (Op.conflicts (fetch "k10") (ins "k11"));
  Alcotest.(check bool) "fetch vs write below range" false
    (Op.conflicts (fetch "k10") (upd "k05"));
  Alcotest.(check bool) "fetch vs version op in range" true
    (Op.conflicts (fetch "k10") (cv [ "k05"; "k12" ]));
  Alcotest.(check bool) "fetch vs probe and scan: reads" false
    (Op.conflicts (fetch "a") (probe "a")
    || Op.conflicts (fetch "a") (scan "a"))

let test_multi_key_conflicts () =
  Alcotest.(check bool) "version op vs member key" true
    (Op.conflicts (cv [ "a"; "b" ]) (upd "b"));
  Alcotest.(check bool) "version op vs other key" false
    (Op.conflicts (cv [ "a"; "b" ]) (upd "c"));
  Alcotest.(check bool) "two version ops overlapping" true
    (Op.conflicts (cv [ "a"; "b" ]) (cv [ "b"; "c" ]))

let test_conflicts_symmetric () =
  let ops =
    [
      ins "a"; upd "b"; del "a"; rd "b"; scan "a"; probe "b"; fetch "a";
      cv [ "a"; "c" ];
    ]
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Alcotest.(check bool) "symmetry" (Op.conflicts x y)
            (Op.conflicts y x))
        ops)
    ops

let test_sizes_positive () =
  List.iter
    (fun op -> Alcotest.(check bool) "positive size" true (Op.size op > 0))
    [
      ins "a"; upd "b"; del "a"; rd "b"; scan "a"; probe "b"; fetch "a"; cv [];
    ];
  let req = { Wire.tc = Tc_id.of_int 1; lsn = Lsn.of_int 5; part = 0; op = ins "a" } in
  (* request_size is no longer an estimate: it is the length of the
     actual encoded frame. *)
  Alcotest.(check int) "request size is the encoded length"
    (String.length (Wire.encode_request (Wire.Request req)))
    (Wire.request_size req)

let test_pp_smoke () =
  (* pretty-printers must not raise on any constructor *)
  let to_s pp v = Format.asprintf "%a" pp v in
  List.iter
    (fun op -> Alcotest.(check bool) "nonempty" true (to_s Op.pp op <> ""))
    [ ins "a"; upd "b"; del "a"; rd "b"; scan "a"; probe "b"; cv [ "x" ];
      Op.Abort_versions { table = "t"; keys = [] } ];
  List.iter
    (fun c ->
      Alcotest.(check bool) "nonempty" true (to_s Wire.pp_control c <> ""))
    [
      Wire.Watermarks
        { tc = Tc_id.of_int 1; eosl = Lsn.of_int 3; lwm = Lsn.zero };
      Wire.Watermarks
        { tc = Tc_id.of_int 1; eosl = Lsn.of_int 3; lwm = Lsn.of_int 2 };
      Wire.Checkpoint { tc = Tc_id.of_int 1; new_rssp = Lsn.of_int 9 };
      Wire.Restart_begin { tc = Tc_id.of_int 1; stable_lsn = Lsn.of_int 7 };
      Wire.Redo_fence_begin { tc = Tc_id.of_int 1 };
      Wire.Redo_fence_end { tc = Tc_id.of_int 1 };
    ]

let suite =
  [
    Alcotest.test_case "point conflicts" `Quick test_point_conflicts;
    Alcotest.test_case "table separation" `Quick test_table_separation;
    Alcotest.test_case "range conflicts" `Quick test_range_conflicts;
    Alcotest.test_case "multi-key conflicts" `Quick test_multi_key_conflicts;
    Alcotest.test_case "conflicts symmetric" `Quick test_conflicts_symmetric;
    Alcotest.test_case "sizes positive" `Quick test_sizes_positive;
    Alcotest.test_case "printers total" `Quick test_pp_smoke;
  ]
