(* Direct Data Component tests: the component is driven with raw wire
   requests, bypassing any TC, to pin down the Section 4/5 contracts —
   idempotence under duplication and out-of-LSN-order arrival, causality
   (the unbundled WAL rule), the three page-sync policies, checkpoint
   grants, and DC-log recovery ordering. *)

module Dc = Untx_dc.Dc
module Stored_record = Untx_dc.Stored_record
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Cache = Untx_storage.Cache
module Disk = Untx_storage.Disk
module Fault = Untx_fault.Fault

let tc1 = Tc_id.of_int 1

let lsn = Lsn.of_int

let mk ?(sync_policy = Dc.Full_ablsn) ?(page_capacity = 256) () =
  let dc =
    Dc.create
      {
        Dc.page_capacity;
        cache_pages = 64;
        sync_policy;
        tc_reset_mode = Dc.Selective;
        debug_checks = true;
      }
  in
  Dc.create_table dc ~name:"t" ~versioned:false;
  Dc.create_table dc ~name:"vt" ~versioned:true;
  dc

let req ?(tc = tc1) l op = { Wire.tc; lsn = lsn l; part = 0; op }

let insert ?tc ?(table = "t") l key value =
  req ?tc l (Op.Insert { table; key; value })

let update ?tc ?(table = "t") l key value =
  req ?tc l (Op.Update { table; key; value })

let read ?tc ?(table = "t") key =
  req ?tc 0 (Op.Read { table; key; mode = Op.Own })

let value_of dc r =
  match (Dc.perform dc r).Wire.result with Wire.Value v -> v | _ -> None

let marks dc eosl lwm =
  ignore (Dc.control dc (Wire.Watermarks { tc = tc1; eosl; lwm }))

(* The TC's two watermark pushes: each leaves the other mark zero. *)
let eosl dc l = marks dc (lsn l) Lsn.zero

let lwm dc l = marks dc Lsn.zero (lsn l)

let test_duplicate_absorbed () =
  let dc = mk () in
  let r = insert 5 "k" "v" in
  let rep1 = Dc.perform dc r in
  let rep2 = Dc.perform dc r in
  Alcotest.(check bool) "first done" true (rep1.Wire.result = Wire.Done);
  Alcotest.(check bool) "dup done" true (rep2.Wire.result = Wire.Done);
  Alcotest.(check int) "one absorption" 1 (Dc.dup_absorbed dc);
  Alcotest.(check (option string)) "applied once" (Some "v")
    (value_of dc (read "k"))

let test_duplicate_preserves_reply () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 "k" "v0"));
  let r = update 2 "k" "v1" in
  let rep1 = Dc.perform dc r in
  let rep2 = Dc.perform dc r in
  Alcotest.(check bool) "done on first" true (rep1.Wire.result = Wire.Done);
  Alcotest.(check bool) "same result on resend" true
    (rep2.Wire.result = rep1.Wire.result);
  (* A write that failed: its duplicate gets the same failure back. *)
  let bad = insert 3 "k" "v2" in
  let rep3 = Dc.perform dc bad in
  let rep4 = Dc.perform dc bad in
  Alcotest.(check bool) "failed on first" true
    (rep3.Wire.result = Wire.Failed "duplicate key");
  Alcotest.(check bool) "same failure on resend" true
    (rep4.Wire.result = rep3.Wire.result);
  Alcotest.(check int) "both resends absorbed" 2 (Dc.dup_absorbed dc);
  Alcotest.(check (option string)) "not double-applied" (Some "v1")
    (value_of dc (read "k"))

let test_out_of_order_arrival () =
  let dc = mk () in
  (* higher-LSN operation reaches the page first *)
  ignore (Dc.perform dc (insert 20 "b" "later"));
  ignore (Dc.perform dc (insert 10 "a" "earlier"));
  Alcotest.(check (option string)) "both applied" (Some "earlier")
    (value_of dc (read "a"));
  (* resends of both are still absorbed *)
  ignore (Dc.perform dc (insert 20 "b" "later"));
  ignore (Dc.perform dc (insert 10 "a" "earlier"));
  Alcotest.(check int) "both dups absorbed" 2 (Dc.dup_absorbed dc)

let test_causality_blocks_flush () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  (* EOSL has not covered lsn 5: the page must not reach the disk *)
  Dc.flush_all dc;
  Alcotest.(check bool) "dirty page remains" true
    (Cache.dirty_pages (Dc.cache dc) <> []);
  eosl dc 5;
  Dc.flush_all dc;
  Alcotest.(check (list Alcotest.reject)) "all flushed" []
    (List.map (fun _ -> assert false) (Cache.dirty_pages (Dc.cache dc)))

let test_sync_policy_stall () =
  let dc = mk ~sync_policy:Dc.Stall_until_lwm () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  eosl dc 5;
  (* causality satisfied, but the {LSNin} set is non-empty: option 1
     refuses the flush until the low-water mark covers it *)
  Dc.flush_all dc;
  Alcotest.(check bool) "stalled" true (Cache.dirty_pages (Dc.cache dc) <> []);
  lwm dc 5;
  Dc.flush_all dc;
  Alcotest.(check bool) "flushes after LWM" true
    (Cache.dirty_pages (Dc.cache dc) = [])

let test_sync_policy_bounded () =
  let dc = mk ~sync_policy:(Dc.Bounded 2) () in
  ignore (Dc.perform dc (insert 5 "a" "v"));
  ignore (Dc.perform dc (insert 6 "b" "v"));
  ignore (Dc.perform dc (insert 7 "c" "v"));
  eosl dc 7;
  (* three members > bound 2 on the single leaf *)
  Dc.flush_all dc;
  Alcotest.(check bool) "bounded stalls at 3" true
    (Cache.dirty_pages (Dc.cache dc) <> []);
  lwm dc 5;
  (* now two members remain: within bound *)
  Dc.flush_all dc;
  Alcotest.(check bool) "flushes within bound" true
    (Cache.dirty_pages (Dc.cache dc) = [])

let test_checkpoint_grant () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  (* cannot advance past an unflushable page (EOSL still zero) *)
  (match Dc.control dc (Wire.Checkpoint { tc = tc1; new_rssp = lsn 6 }) with
  | Wire.Checkpoint_done { granted } ->
    Alcotest.(check bool) "not granted" false granted
  | Wire.Ack -> Alcotest.fail "wrong reply");
  eosl dc 5;
  lwm dc 5;
  (match Dc.control dc (Wire.Checkpoint { tc = tc1; new_rssp = lsn 6 }) with
  | Wire.Checkpoint_done { granted } ->
    Alcotest.(check bool) "granted once stable" true granted
  | Wire.Ack -> Alcotest.fail "wrong reply")

let test_versioned_visibility_at_dc () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v0"));
  ignore
    (Dc.perform dc (req 2 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  ignore (Dc.perform dc (update 3 ~table:"vt" "k" "v1"));
  let get mode =
    match
      (Dc.perform dc (req 0 (Op.Read { table = "vt"; key = "k"; mode })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string)) "own sees new" (Some "v1") (get Op.Own);
  Alcotest.(check (option string)) "dirty sees new" (Some "v1") (get Op.Dirty);
  Alcotest.(check (option string)) "committed sees before" (Some "v0")
    (get Op.Committed);
  ignore
    (Dc.perform dc (req 4 (Op.Abort_versions { table = "vt"; keys = [ "k" ] })));
  Alcotest.(check (option string)) "abort restores" (Some "v0") (get Op.Own)

let test_versioned_delete_tombstone () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v0"));
  ignore
    (Dc.perform dc (req 2 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  ignore (Dc.perform dc (req 3 (Op.Delete { table = "vt"; key = "k" })));
  let get mode =
    match
      (Dc.perform dc (req 0 (Op.Read { table = "vt"; key = "k"; mode })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string)) "own sees tombstone" None (get Op.Own);
  Alcotest.(check (option string)) "committed still sees old" (Some "v0")
    (get Op.Committed);
  ignore
    (Dc.perform dc (req 4 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  Alcotest.(check (option string)) "commit removes record" None
    (get Op.Committed);
  Alcotest.(check int) "record physically gone" 0
    (List.length (Dc.dump_table dc "vt"))

let test_multi_key_same_page () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "a" "1"));
  ignore (Dc.perform dc (insert 2 ~table:"vt" "b" "2"));
  (* both keys on one page; one housekeeping op must strip both *)
  let r = req 3 (Op.Commit_versions { table = "vt"; keys = [ "a"; "b" ] }) in
  ignore (Dc.perform dc r);
  List.iter
    (fun (_, record) ->
      Alcotest.(check bool) "before stripped" true
        (record.Stored_record.before = Stored_record.Absent))
    (Dc.dump_table dc "vt");
  (* and its duplicate is fully absorbed *)
  ignore (Dc.perform dc r);
  Alcotest.(check bool) "dup absorbed" true (Dc.dup_absorbed dc >= 2)

let test_dc_recovery_preserves_splits () =
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 200 do
    ignore
      (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvvvvvv"))
  done;
  eosl dc 200;
  lwm dc 200;
  Alcotest.(check bool) "splits happened" true (Dc.splits dc > 0);
  Dc.flush_all dc;
  Dc.crash dc;
  Dc.recover dc;
  (match Dc.check dc with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("ill-formed after recover: " ^ m));
  Alcotest.(check int) "all records stable" 200
    (List.length (Dc.dump_table dc "t"))

let test_dc_recovery_empty_redo_target () =
  (* Records never flushed: recovery rebuilds well-formed (possibly
     empty) structures; a redo resend then repopulates them. *)
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 120 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvv"))
  done;
  Dc.crash dc;
  Dc.recover dc;
  (match Dc.check dc with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* resend everything with original ids *)
  for i = 1 to 120 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvv"))
  done;
  Alcotest.(check int) "repopulated exactly once" 120
    (List.length (Dc.dump_table dc "t"))

let test_self_checkpoint_truncates_dc_log () =
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 200 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvvvvvvvvvv"))
  done;
  eosl dc 200;
  lwm dc 200;
  let records_before = Dc.dc_log_records dc in
  Alcotest.(check bool) "dc log populated" true (records_before > 0);
  Alcotest.(check bool) "self checkpoint" true (Dc.self_checkpoint dc);
  Alcotest.(check int) "dc log truncated" 0 (Dc.dc_log_records dc);
  (* recovery from master alone still works *)
  Dc.crash dc;
  Dc.recover dc;
  Alcotest.(check int) "state intact" 200 (List.length (Dc.dump_table dc "t"))

let test_unknown_table () =
  let dc = mk () in
  match (Dc.perform dc (insert 1 ~table:"nope" "k" "v")).Wire.result with
  | Wire.Failed _ -> ()
  | _ -> Alcotest.fail "expected failure"

let suite =
  [
    Alcotest.test_case "duplicate absorbed" `Quick test_duplicate_absorbed;
    Alcotest.test_case "duplicate preserves reply" `Quick
      test_duplicate_preserves_reply;
    Alcotest.test_case "out-of-order arrival" `Quick test_out_of_order_arrival;
    Alcotest.test_case "causality blocks flush" `Quick
      test_causality_blocks_flush;
    Alcotest.test_case "sync policy: stall-until-LWM" `Quick
      test_sync_policy_stall;
    Alcotest.test_case "sync policy: bounded" `Quick test_sync_policy_bounded;
    Alcotest.test_case "checkpoint grant" `Quick test_checkpoint_grant;
    Alcotest.test_case "versioned visibility" `Quick
      test_versioned_visibility_at_dc;
    Alcotest.test_case "versioned delete tombstone" `Quick
      test_versioned_delete_tombstone;
    Alcotest.test_case "multi-key op, one page" `Quick test_multi_key_same_page;
    Alcotest.test_case "recovery preserves splits" `Quick
      test_dc_recovery_preserves_splits;
    Alcotest.test_case "recovery of never-flushed data" `Quick
      test_dc_recovery_empty_redo_target;
    Alcotest.test_case "self checkpoint truncates DC-log" `Quick
      test_self_checkpoint_truncates_dc_log;
    Alcotest.test_case "unknown table fails" `Quick test_unknown_table;
  ]

(* --- further protocol edges ------------------------------------------- *)

let test_version_lifecycle_edges () =
  let dc = mk () in
  (* insert, delete, reinsert within one "transaction"'s version scope *)
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v1"));
  ignore (Dc.perform dc (req 2 (Op.Delete { table = "vt"; key = "k" })));
  ignore (Dc.perform dc (insert 3 ~table:"vt" "k" "v2"));
  let committed_view () =
    match
      (Dc.perform dc
         (req 0 (Op.Read { table = "vt"; key = "k"; mode = Op.Committed })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string))
    "never-committed key invisible to committed readers" None
    (committed_view ());
  (* abort: the whole lifecycle disappears *)
  ignore
    (Dc.perform dc (req 4 (Op.Abort_versions { table = "vt"; keys = [ "k" ] })));
  Alcotest.(check int) "record gone after abort" 0
    (List.length (Dc.dump_table dc "vt"))

let test_double_update_keeps_first_before () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 1 ~table:"vt" "k" "v0"));
  ignore
    (Dc.perform dc (req 2 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })));
  ignore (Dc.perform dc (update 3 ~table:"vt" "k" "v1"));
  ignore (Dc.perform dc (update 4 ~table:"vt" "k" "v2"));
  (match Dc.dump_table dc "vt" with
  | [ (_, r) ] ->
    Alcotest.(check bool) "before is the committed v0" true
      (r.Stored_record.before = Stored_record.Value_before "v0")
  | _ -> Alcotest.fail "one record expected");
  ignore
    (Dc.perform dc (req 5 (Op.Abort_versions { table = "vt"; keys = [ "k" ] })));
  let own =
    match
      (Dc.perform dc (req 0 (Op.Read { table = "vt"; key = "k"; mode = Op.Own })))
        .Wire.result
    with
    | Wire.Value v -> v
    | _ -> None
  in
  Alcotest.(check (option string)) "abort restores the first before" (Some "v0")
    own

let test_memo_truncated_at_checkpoint () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  eosl dc 5;
  lwm dc 5;
  (match Dc.control dc (Wire.Checkpoint { tc = tc1; new_rssp = lsn 6 }) with
  | Wire.Checkpoint_done { granted } -> Alcotest.(check bool) "granted" true granted
  | Wire.Ack -> Alcotest.fail "wrong reply");
  (* a resend below the RSSP violates the terminated contract; the DC
     still answers (bare ack) and must not re-apply *)
  let r = Dc.perform dc (insert 5 "k" "SHOULD-NOT-APPLY") in
  Alcotest.(check bool) "acked" true (r.Wire.result = Wire.Done);
  Alcotest.(check (option string)) "not reapplied" (Some "v")
    (value_of dc (read "k"))

let test_bounded_zero_equals_stall () =
  let dc = mk ~sync_policy:(Dc.Bounded 0) () in
  ignore (Dc.perform dc (insert 5 "k" "v"));
  eosl dc 5;
  Dc.flush_all dc;
  Alcotest.(check bool) "bounded 0 stalls like option 1" true
    (Cache.dirty_pages (Dc.cache dc) <> []);
  lwm dc 5;
  Dc.flush_all dc;
  Alcotest.(check bool) "flushes after LWM" true
    (Cache.dirty_pages (Dc.cache dc) = [])

let test_suggested_rssp_monotone_under_flush () =
  let dc = mk ~page_capacity:128 () in
  for i = 1 to 100 do
    ignore (Dc.perform dc (insert i (Printf.sprintf "k%04d" i) "vvvv"))
  done;
  eosl dc 100;
  lwm dc 100;
  let s1 = Dc.suggested_rssp dc ~tc:tc1 in
  Dc.flush_all dc;
  let s2 = Dc.suggested_rssp dc ~tc:tc1 in
  Alcotest.(check bool) "monotone" true Lsn.(s2 >= s1);
  Alcotest.(check int) "fully flushed suggestion = eosl+1" 101
    (Lsn.to_int s2)

(* --- lazily applied low-water marks ------------------------------------ *)

module Page_meta = Untx_dc.Page_meta
module Ablsn = Untx_dc.Ablsn
module Page = Untx_storage.Page

let root_ablsn dc = Page_meta.ablsn (Dc.page_meta_of dc (Dc.table_root dc "t")) tc1

let test_restart_keeps_lwm_coverage () =
  (* The page is last touched before the mark, so only the catch-up
     Restart_begin runs before withdrawing the mark can carry it. *)
  let dc = mk () in
  ignore (Dc.perform dc (insert 3 "a" "v"));
  ignore (Dc.perform dc (insert 5 "b" "v"));
  eosl dc 5;
  lwm dc 5;
  ignore
    (Dc.control dc (Wire.Restart_begin { tc = tc1; stable_lsn = lsn 5 }));
  Alcotest.(check int) "lw still at the old mark" 5
    (Lsn.to_int (Ablsn.lw (root_ablsn dc)));
  (* LSN 4 never reached this page, but the mark vouched for it *)
  ignore (Dc.perform dc (insert 4 "c" "resend"));
  Alcotest.(check int) "absorbed" 1 (Dc.dup_absorbed dc);
  Alcotest.(check (option string)) "not applied" None (value_of dc (read "c"));
  ignore (Dc.control dc (Wire.Redo_fence_end { tc = tc1 }))

let test_flush_carries_lazy_advance () =
  let dc = mk () in
  ignore (Dc.perform dc (insert 3 "a" "v"));
  ignore (Dc.perform dc (insert 5 "b" "v"));
  eosl dc 5;
  lwm dc 4;
  Dc.flush_all dc;
  let pid = Dc.table_root dc "t" in
  match Disk.read (Dc.disk dc) pid with
  | None -> Alcotest.fail "page never reached the disk"
  | Some page ->
    let ab = Page_meta.ablsn (Page_meta.decode (Page.meta page)) tc1 in
    Alcotest.(check int) "flushed lw is the mark" 4 (Lsn.to_int (Ablsn.lw ab));
    Alcotest.(check (list int)) "flushed ins above the mark" [ 5 ]
      (List.map Lsn.to_int (Lsn.Set.elements (Ablsn.ins ab)))

(* A zero mark claims nothing.  Pushes with both marks zero, or with
   one mark zero beside a mark already held, leave the DC's marks, every
   page's metadata and the abLSN test of every later write as they are
   on a DC that never saw them. *)
let test_zero_mark_claims_nothing () =
  let setup () =
    let dc = mk ~page_capacity:128 () in
    for i = 1 to 40 do
      ignore (Dc.perform dc (insert i (Printf.sprintf "k%02d" i) "v"))
    done;
    eosl dc 30;
    lwm dc 20;
    dc
  in
  let plain = setup () and pushed = setup () in
  (* the held marks again, each beside a zero one, then both zero *)
  marks pushed (lsn 30) Lsn.zero;
  marks pushed Lsn.zero (lsn 20);
  eosl pushed 0;
  marks pushed Lsn.zero Lsn.zero;
  let view dc =
    ( Lsn.to_int (Dc.eosl_of dc tc1),
      Lsn.to_int (Dc.lwm_of dc tc1),
      List.map
        (fun pid -> Page_meta.encode (Dc.page_meta_of dc pid))
        (Dc.table_pages dc "t") )
  in
  Alcotest.(check bool) "the pages split" true
    (List.length (Dc.table_pages plain "t") > 1);
  Alcotest.(check (triple int int (list string)))
    "marks and page metadata" (view plain) (view pushed);
  (* resends below, at and above the marks, then fresh writes *)
  for i = 1 to 45 do
    let r = insert i (Printf.sprintf "k%02d" i) "w" in
    Alcotest.(check bool)
      (Printf.sprintf "LSN %d answered alike" i)
      true
      ((Dc.perform plain r).Wire.result = (Dc.perform pushed r).Wire.result)
  done;
  Alcotest.(check int) "duplicates absorbed alike" (Dc.dup_absorbed plain)
    (Dc.dup_absorbed pushed);
  Alcotest.(check (triple int int (list string)))
    "after the writes" (view plain) (view pushed)

(* --- one descent per write ------------------------------------------- *)

(* A write finds its leaf once and descends again only when a split or
   consolidation moved keys.  These cases make the structure change
   inside the write and check that the operation is still marked on the
   page that ends up holding (or covering) each key: a resend must be
   absorbed as a duplicate, not applied twice. *)

let leaf_holding dc table key =
  List.find_opt
    (fun pid ->
      match Cache.lookup (Dc.cache dc) pid with
      | Some page -> Page.kind page = Page.Leaf && Page.find page key <> None
      | None -> false)
    (Dc.table_pages dc table)

let marked_on_holder dc table key l =
  match leaf_holding dc table key with
  | None -> Alcotest.failf "no leaf holds %s" key
  | Some pid ->
    Ablsn.included (lsn l) (Page_meta.ablsn (Dc.page_meta_of dc pid) tc1)

let check_ok dc =
  match Dc.check dc with Ok () -> () | Error e -> Alcotest.fail e

let test_split_write_marks_final_page () =
  let dc = mk ~page_capacity:128 () in
  (* Ascending keys: the insert that splits a leaf lands on the new
     right-hand page, not on the leaf it descended to. *)
  let rec insert_until_split i =
    let before = Dc.splits dc in
    let key = Printf.sprintf "k%04d" i in
    ignore (Dc.perform dc (insert i key "vvvv"));
    if Dc.splits dc = before then insert_until_split (i + 1) else (i, key)
  in
  let l, key = insert_until_split 1 in
  Alcotest.(check bool) "insert marked on the page holding its key" true
    (marked_on_holder dc "t" key l);
  let dups = Dc.dup_absorbed dc in
  ignore (Dc.perform dc (insert l key "vvvv"));
  Alcotest.(check int) "resent insert absorbed" (dups + 1) (Dc.dup_absorbed dc);
  (* An update that grows its record past its leaf's capacity. *)
  let grown = String.make 60 'w' in
  let rec update_until_split i =
    if i > l then Alcotest.fail "no update split its leaf";
    let before = Dc.splits dc in
    let key = Printf.sprintf "k%04d" i in
    let rep = Dc.perform dc (update (l + i) key grown) in
    if Dc.splits dc = before then update_until_split (i + 1)
    else (l + i, key, rep.Wire.result)
  in
  let u, key, result = update_until_split 1 in
  Alcotest.(check bool) "update marked on the page holding its key" true
    (marked_on_holder dc "t" key u);
  let dups = Dc.dup_absorbed dc in
  let rep = Dc.perform dc (update u key grown) in
  Alcotest.(check int) "resent update absorbed" (dups + 1) (Dc.dup_absorbed dc);
  Alcotest.(check bool) "the update was done" true (result = Wire.Done);
  Alcotest.(check bool) "resend replays the original result" true
    (rep.Wire.result = result);
  Alcotest.(check (option string)) "applied once" (Some grown)
    (value_of dc (read key));
  check_ok dc

let test_delete_consolidates_leaf () =
  let dc = mk ~page_capacity:128 () in
  let keys = List.init 24 (fun i -> Printf.sprintf "k%04d" i) in
  List.iteri (fun i key -> ignore (Dc.perform dc (insert (i + 1) key "vvvv"))) keys;
  Alcotest.(check bool) "several leaves" true
    (List.length (Dc.table_pages dc "t") > 3);
  let delete l key = req l (Op.Delete { table = "t"; key }) in
  let rec delete_until_consolidation l = function
    | [] -> Alcotest.fail "no delete consolidated a leaf"
    | key :: rest ->
      let before = Dc.consolidations dc in
      ignore (Dc.perform dc (delete l key));
      if Dc.consolidations dc = before then delete_until_consolidation (l + 1) rest
      else (l, key)
  in
  let l, key = delete_until_consolidation 100 (List.rev keys) in
  Alcotest.(check (option string)) "deleted" None (value_of dc (read key));
  check_ok dc;
  let dups = Dc.dup_absorbed dc in
  ignore (Dc.perform dc (delete l key));
  Alcotest.(check int) "resent delete absorbed by the survivor" (dups + 1)
    (Dc.dup_absorbed dc);
  (* the survivor now covers the key: a fresh insert lands beside the
     consolidated cells *)
  ignore (Dc.perform dc (insert (l + 1) key "back"));
  Alcotest.(check (option string)) "reinserted" (Some "back")
    (value_of dc (read key));
  check_ok dc

let test_commit_versions_straddles_split () =
  let dc = mk ~page_capacity:128 () in
  let keys = List.init 13 (fun i -> Printf.sprintf "k%04d" i) in
  List.iteri
    (fun i key -> ignore (Dc.perform dc (insert ~table:"vt" (i + 1) key "vvvv")))
    keys;
  Alcotest.(check bool) "the keys span several leaves" true
    (List.length (Dc.table_pages dc "vt") > 2);
  (* A long commit LSN lengthens every record it rewrites, so the
     fullest leaf — the last, whose keys the request names first —
     splits while the request is half applied. *)
  let keys = List.rev keys in
  let l = 1_000_000_000 in
  let commit = req l (Op.Commit_versions { table = "vt"; keys }) in
  let splits = Dc.splits dc in
  ignore (Dc.perform dc commit);
  Alcotest.(check bool) "the commit split leaves" true (Dc.splits dc > splits);
  List.iter
    (fun (key, r) ->
      Alcotest.(check bool) (key ^ " committed") true
        (r.Stored_record.before = Stored_record.Absent);
      Alcotest.(check bool) (key ^ " marked on its page") true
        (marked_on_holder dc "vt" key l))
    (Dc.dump_table dc "vt");
  let dups = Dc.dup_absorbed dc in
  ignore (Dc.perform dc commit);
  Alcotest.(check int) "resend absorbed for every key"
    (dups + List.length keys) (Dc.dup_absorbed dc);
  check_ok dc

(* Ascending keys over several leaves, with a key no leaf holds in the
   middle: the leaf found for one key serves the next keys it holds, and
   every committed key is still marked on the page that holds it. *)
let test_commit_versions_leaf_runs () =
  let dc = mk ~page_capacity:128 () in
  let keys = List.init 24 (fun i -> Printf.sprintf "k%04d" (2 * i)) in
  List.iteri
    (fun i key -> ignore (Dc.perform dc (insert ~table:"vt" (i + 1) key "vvvv")))
    keys;
  Alcotest.(check bool) "the keys span several leaves" true
    (List.length (Dc.table_pages dc "vt") > 3);
  let named =
    List.concat_map (fun k -> if k = "k0020" then [ k; "k0021" ] else [ k ]) keys
  in
  let l = 100 in
  let commit = req l (Op.Commit_versions { table = "vt"; keys = named }) in
  ignore (Dc.perform dc commit);
  List.iter
    (fun (key, r) ->
      Alcotest.(check bool) (key ^ " committed") true
        (r.Stored_record.before = Stored_record.Absent);
      Alcotest.(check bool) (key ^ " marked on its page") true
        (marked_on_holder dc "vt" key l))
    (Dc.dump_table dc "vt");
  let dups = Dc.dup_absorbed dc in
  ignore (Dc.perform dc commit);
  Alcotest.(check int) "resend absorbed for every key"
    (dups + List.length named) (Dc.dup_absorbed dc);
  check_ok dc

(* --- redo batches ------------------------------------------------------ *)

(* Ten inserts, then an update, a second update of the same key and a
   delete: the batch carries conflicting operations, in LSN order. *)
let redo_ops =
  List.init 10 (fun i ->
      (lsn (10 + i), Op.Insert { table = "t"; key = Printf.sprintf "b%02d" i; value = "v" }))
  @ [
      (lsn 20, Op.Update { table = "t"; key = "b00"; value = "w" });
      (lsn 21, Op.Update { table = "t"; key = "b00"; value = "x" });
      (lsn 22, Op.Delete { table = "t"; key = "b01" });
    ]

let mk_counted () =
  let counters = Untx_util.Instrument.create () in
  let dc =
    Dc.create ~counters
      { Dc.default_config with page_capacity = 128; debug_checks = true }
  in
  Dc.create_table dc ~name:"t" ~versioned:false;
  (dc, fun () -> Untx_util.Instrument.get counters "dc.requests")

(* One batch frame through the DC's endpoint; its outcomes. *)
let deliver dc ops =
  let frame = Wire.encode_request (Wire.Redo_batch { tc = tc1; part = 0; ops }) in
  match Dc.handle_request_frame dc frame with
  | None -> Alcotest.fail "the batch was dropped"
  | Some reply -> (
    match Wire.decode_reply reply with
    | Wire.Redo_batch_reply { tc; outcomes } ->
      Alcotest.(check int) "reply for the batch's tc" 1 (Tc_id.to_int tc);
      Alcotest.(check (list int)) "one outcome per op, in order"
        (List.map (fun (l, _) -> Lsn.to_int l) ops)
        (List.map (fun (l, _) -> Lsn.to_int l) outcomes);
      outcomes
    | Wire.Reply _ -> Alcotest.fail "a batch answered with a single reply")

let test_batch_delivered_twice () =
  let dc, requests = mk_counted () in
  let first = deliver dc redo_ops in
  let rows = Dc.dump_table dc "t" in
  Alcotest.(check (option string)) "applied in LSN order" (Some "x")
    (Option.bind (List.assoc_opt "b00" rows) Stored_record.current);
  let dups = Dc.dup_absorbed dc and before = requests () in
  let second = deliver dc redo_ops in
  let n = List.length redo_ops in
  Alcotest.(check int) "every op absorbed" (dups + n) (Dc.dup_absorbed dc);
  Alcotest.(check int) "dc.requests counts ops" (before + n) (requests ());
  Alcotest.(check bool) "table unchanged" true (Dc.dump_table dc "t" = rows);
  Alcotest.(check bool) "the memo repeats every outcome" true (first = second);
  check_ok dc

let test_batch_half_applied () =
  let half = List.filteri (fun i _ -> i < 6) redo_ops in
  let dc, requests = mk_counted () in
  (* the first half arrives and applies; its reply is lost *)
  ignore (deliver dc half);
  let dups = Dc.dup_absorbed dc and before = requests () in
  let outcomes = deliver dc redo_ops in
  let n = List.length redo_ops and h = List.length half in
  Alcotest.(check int) "the applied half is absorbed" (dups + h) (Dc.dup_absorbed dc);
  Alcotest.(check int) "only the second half applies" (n - h)
    (requests () - before - (Dc.dup_absorbed dc - dups));
  let once, _ = mk_counted () in
  let expected = deliver once redo_ops in
  Alcotest.(check bool) "same table as one delivery" true
    (Dc.dump_table dc "t" = Dc.dump_table once "t");
  Alcotest.(check bool) "same outcomes as one delivery" true (outcomes = expected);
  check_ok dc

(* The binary record cell, byte for byte: one record of each
   before-kind and a tombstone, then cells the encoder never writes. *)
let test_record_cell_golden () =
  let record ?(deleted = false) ?(before = Stored_record.Absent) writer wlsn
      value =
    { Stored_record.value; deleted; before; writer = Tc_id.of_int writer;
      wlsn = lsn wlsn }
  in
  List.iter
    (fun (name, r, cell) ->
      Alcotest.(check string) (name ^ ": encoded") cell (Stored_record.encode r);
      Alcotest.(check bool) (name ^ ": decoded") true
        (Stored_record.decode cell = r);
      Alcotest.(check int) (name ^ ": size") (String.length cell)
        (Stored_record.encoded_size r))
    [
      ("absent", record 1 300 "v", "\x00\x01\xac\x02\x01v");
      ( "null before",
        record ~before:Stored_record.Null_before 2 5 "new",
        "\x02\x02\x05\x03new" );
      ( "value before",
        record ~before:(Stored_record.Value_before "old") 3 127 "cur",
        "\x04\x03\x7f\x03curold" );
      ( "tombstone",
        record ~deleted:true ~before:(Stored_record.Value_before "gone") 1 128
          "gone",
        "\x05\x01\x80\x01\x04gonegone" );
    ];
  Alcotest.(check int) "a 16-byte value makes a 21-byte cell" 21
    (String.length (Stored_record.encode (record 1 1234 (String.make 16 'v'))));
  List.iter
    (fun (what, cell) ->
      match Stored_record.decode cell with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "decoded %s" what)
    [
      ("an empty cell", "");
      ("an unknown flag bit", "\x08\x01\x01\x01v");
      ("before-kind 3", "\x06\x01\x01\x01v");
      ("a before-value on an absent cell", "\x00\x01\x01\x01vx");
      ("a before-value on a null-before cell", "\x02\x01\x01\x01vx");
      ("an overlong writer", "\x00\x81\x00\x01\x01v");
      ("an overlong value length", "\x00\x01\x01\x81\x00v");
      ("a value past the cell", "\x00\x01\x01\x02v");
      ("a header cut short", "\x00\x01\x80");
    ]

(* A TC reset that escalates to a complete DC restart loses the other
   TCs' cached work, and they learn so only when their redo begins.  A
   low-water mark one of them pushes in between claims operations the
   DC lost: held until that TC's redo fence, it cannot make the redo of
   an insert start the page's abstract LSN at the mark and absorb the
   version commit that follows it. *)
let test_escalation_holds_other_lwm () =
  let dc =
    Dc.create
      {
        Dc.page_capacity = 256;
        cache_pages = 64;
        sync_policy = Dc.Full_ablsn;
        tc_reset_mode = Dc.Complete;
        debug_checks = true;
      }
  in
  Dc.create_table dc ~name:"vt" ~versioned:true;
  let tc2 = Tc_id.of_int 2 in
  let ctl c = ignore (Dc.control dc c) in
  let insert_k () = insert ~tc:tc2 ~table:"vt" 2 "k" "v" in
  let commit_k () =
    req ~tc:tc2 5 (Op.Commit_versions { table = "vt"; keys = [ "k" ] })
  in
  ignore (Dc.perform dc (insert_k ()));
  ignore (Dc.perform dc (commit_k ()));
  ctl (Wire.Watermarks { tc = tc2; eosl = lsn 5; lwm = lsn 1 });
  ctl (Wire.Restart_begin { tc = tc1; stable_lsn = lsn 0 });
  Alcotest.(check bool) "the reset escalated" true (Dc.take_escalation dc);
  ctl (Wire.Redo_fence_end { tc = tc1 });
  ctl (Wire.Watermarks { tc = tc2; eosl = Lsn.zero; lwm = lsn 5 });
  let dups = Dc.dup_absorbed dc in
  ctl (Wire.Redo_fence_begin { tc = tc2 });
  ignore (Dc.perform dc (insert_k ()));
  ignore (Dc.perform dc (commit_k ()));
  ctl (Wire.Redo_fence_end { tc = tc2 });
  Alcotest.(check int) "both redone, none absorbed" dups (Dc.dup_absorbed dc);
  match List.assoc_opt "k" (Dc.dump_table dc "vt") with
  | None -> Alcotest.fail "the redone insert is missing"
  | Some r ->
    Alcotest.(check bool) "the version is committed" true
      (r.Stored_record.before = Stored_record.Absent)

(* A leaf split posts the shortest separator, which can sort below the
   new page's first key.  Here every gap between the long keys held a
   one-byte key [X] in the leaf's stable image, deleted before the leaf
   split: [X] sits between the separator and the first moved key.  The
   DC crashes with the split records stable and no page flushed since.
   Replay must prune the stale image at the separator: routing sends [X]
   to the new page, so the redo of its delete never reaches the old one,
   and a copy kept there would come back in scans and break the tree. *)
let test_replay_prunes_at_separator () =
  let dc = mk () in
  let long c = Printf.sprintf "%c-xxxxxxxx" c in
  let longs = List.map long [ 'a'; 'b'; 'c'; 'd' ] in
  let gaps = [ "b"; "c"; "d" ] in
  let ops =
    List.map (fun k -> Op.Insert { table = "t"; key = k; value = "v" })
      (longs @ gaps)
    @ List.map (fun k -> Op.Delete { table = "t"; key = k }) gaps
    @ [ Op.Update { table = "t"; key = long 'b'; value = String.make 200 'w' } ]
  in
  let reqs = List.mapi (fun i op -> req (i + 1) op) ops in
  let stabilized = List.length longs + List.length gaps in
  List.iteri
    (fun i r ->
      if i = stabilized then begin
        Alcotest.(check int) "one leaf before the deletes" 0 (Dc.splits dc);
        eosl dc stabilized;
        Dc.flush_all dc
      end;
      ignore (Dc.perform dc r))
    reqs;
  Alcotest.(check bool) "the grown record split its leaf" true
    (Dc.splits dc > 0);
  eosl dc (List.length reqs);
  Fault.arm [ Fault.crash_at "dc.flush.before_page_write" 1 ];
  let crashed =
    Fun.protect ~finally:Fault.disarm (fun () ->
        match Dc.flush_all dc with
        | () -> false
        | exception Fault.Injected_crash _ -> true)
  in
  Alcotest.(check bool) "crashed before the first page write" true crashed;
  Dc.crash dc;
  Dc.recover dc;
  check_ok dc;
  List.iter (fun r -> ignore (Dc.perform dc r)) reqs;
  List.iter
    (fun k ->
      Alcotest.(check (option string)) ("deleted " ^ k) None
        (value_of dc (read k)))
    gaps;
  let scan = Op.Scan { table = "t"; from_key = ""; limit = 100; mode = Op.Own } in
  let scanned =
    match (Dc.perform dc (req 0 scan)).Wire.result with
    | Wire.Pairs pairs -> List.map fst pairs
    | _ -> Alcotest.fail "scan failed"
  in
  Alcotest.(check (list string)) "scan sees only the live keys" longs scanned;
  check_ok dc

(* The point-write rules the DC and the layer store share: the outcome
   of each write on an absent key, a live record and a tombstone, in
   both table kinds. *)
let test_point_write_rules () =
  let tc2 = Tc_id.of_int 2 in
  let write ?(versioned = true) prior w =
    Stored_record.write ~versioned ~writer:tc2 ~wlsn:(lsn 9) prior w
  in
  let live = Stored_record.plain ~writer:tc1 ~wlsn:(lsn 3) "old" in
  let set = function
    | Stored_record.Set r -> r
    | _ -> Alcotest.fail "expected a record to set"
  in
  let fails msg = function
    | Stored_record.Fail m -> Alcotest.(check string) "failure" msg m
    | _ -> Alcotest.fail ("expected " ^ msg)
  in
  fails "duplicate key" (write (Some live) (Stored_record.Insert "v"));
  fails "no such key" (write None (Stored_record.Update "v"));
  Alcotest.(check bool) "delete of an absent key" true
    (write None Stored_record.Delete = Stored_record.Unchanged);
  Alcotest.(check bool) "unversioned delete removes" true
    (write ~versioned:false (Some live) Stored_record.Delete
    = Stored_record.Remove);
  Alcotest.(check bool) "unversioned update is plain" true
    (set (write ~versioned:false (Some live) (Stored_record.Update "new"))
    = Stored_record.plain ~writer:tc2 ~wlsn:(lsn 9) "new");
  let inserted = set (write None (Stored_record.Insert "v")) in
  Alcotest.(check bool) "versioned insert has a null before" true
    (inserted.before = Stored_record.Null_before
    && inserted.writer = tc2 && inserted.wlsn = lsn 9);
  let updated = set (write (Some live) (Stored_record.Update "new")) in
  Alcotest.(check bool) "first update saves the committed value" true
    (updated.before = Stored_record.Value_before "old");
  let again = set (write (Some updated) (Stored_record.Update "newer")) in
  Alcotest.(check bool) "second update keeps it" true
    (again.before = Stored_record.Value_before "old" && again.value = "newer");
  let tomb = set (write (Some updated) Stored_record.Delete) in
  Alcotest.(check bool) "versioned delete leaves a tombstone" true
    (tomb.deleted && tomb.value = "new"
    && tomb.before = Stored_record.Value_before "old");
  fails "no such key" (write (Some tomb) (Stored_record.Update "v"));
  Alcotest.(check bool) "delete of a tombstone" true
    (write (Some tomb) Stored_record.Delete = Stored_record.Unchanged);
  let back = set (write (Some tomb) (Stored_record.Insert "back")) in
  Alcotest.(check bool) "insert over a tombstone keeps its before" true
    ((not back.deleted) && back.before = Stored_record.Value_before "old")

(* New cases go at the end: Alcotest numbers cases by position, and
   inserting earlier renumbers the ones after. *)
(* The master record written out field by field from the layout in
   dc.mli, and the master a DC writes as it creates its tables. *)
let test_master_golden () =
  let pid = Untx_storage.Page_id.of_int in
  let tables = [ ("kv", true, false, pid 300); ("idx", false, true, pid 2) ] in
  let blob = "\x02\x02kv\x01\xac\x02\x03idx\x02\x02" in
  Alcotest.(check string) "encoded" blob (Dc.encode_master tables);
  Alcotest.(check bool) "decoded" true (Dc.decode_master blob = tables);
  Alcotest.(check string) "no tables" "\x00" (Dc.encode_master []);
  List.iter
    (fun (what, blob) ->
      match Dc.decode_master blob with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %s" what)
    [
      ("an unknown flag bit", "\x01\x02kv\x05\x03");
      ("a cut root", "\x01\x02kv\x01\xac");
      ("a missing table", "\x02\x02kv\x01\x03");
      ("trailing bytes", "\x01\x02kv\x01\x03\x00");
      ("an empty record", "");
    ];
  let dc = mk () in
  match Disk.master (Dc.disk dc) with
  | None -> Alcotest.fail "no master record after create_table"
  | Some blob ->
    Alcotest.(check (list (pair string bool)))
      "the DC's tables"
      [ ("t", false); ("vt", true) ]
      (List.sort compare
         (List.map
            (fun (name, versioned, sealed, root) ->
              Alcotest.(check bool) (name ^ " unsealed") false sealed;
              Alcotest.(check int) (name ^ " root")
                (Untx_storage.Page_id.to_int (Dc.table_root dc name))
                (Untx_storage.Page_id.to_int root);
              (name, versioned))
            (Dc.decode_master blob)))

let suite =
  suite
  @ [
      Alcotest.test_case "version lifecycle edges" `Quick
        test_version_lifecycle_edges;
      Alcotest.test_case "double update keeps first before" `Quick
        test_double_update_keeps_first_before;
      Alcotest.test_case "memo truncated at checkpoint" `Quick
        test_memo_truncated_at_checkpoint;
      Alcotest.test_case "Bounded 0 = stall policy" `Quick
        test_bounded_zero_equals_stall;
      Alcotest.test_case "suggested RSSP monotone" `Quick
        test_suggested_rssp_monotone_under_flush;
      Alcotest.test_case "restart keeps the old LWM's coverage" `Quick
        test_restart_keeps_lwm_coverage;
      Alcotest.test_case "flush carries a lazily applied LWM" `Quick
        test_flush_carries_lazy_advance;
      Alcotest.test_case "a write that splits marks the final page" `Quick
        test_split_write_marks_final_page;
      Alcotest.test_case "an unversioned delete consolidates a leaf" `Quick
        test_delete_consolidates_leaf;
      Alcotest.test_case "Commit_versions straddles a split" `Quick
        test_commit_versions_straddles_split;
      Alcotest.test_case "Commit_versions over leaf runs" `Quick
        test_commit_versions_leaf_runs;
      Alcotest.test_case "a redo batch delivered twice is absorbed" `Quick
        test_batch_delivered_twice;
      Alcotest.test_case "a half-applied redo batch applies the rest" `Quick
        test_batch_half_applied;
      Alcotest.test_case "record cells byte for byte" `Quick
        test_record_cell_golden;
      Alcotest.test_case "an escalated reset holds the other TCs' marks" `Quick
        test_escalation_holds_other_lwm;
      Alcotest.test_case "replay prunes a stale leaf at the separator" `Quick
        test_replay_prunes_at_separator;
      Alcotest.test_case "point-write record rules" `Quick
        test_point_write_rules;
      Alcotest.test_case "master record byte for byte" `Quick
        test_master_golden;
      Alcotest.test_case "a zero mark claims nothing" `Quick
        test_zero_mark_claims_nothing;
    ]
