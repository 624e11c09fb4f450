(* B-tree structure tests against a reference model, plus hook/event
   contracts for system transactions. *)

module Btree = Untx_btree.Btree
module Page = Untx_storage.Page
module Disk = Untx_storage.Disk
module Cache = Untx_storage.Cache
module Rng = Untx_util.Rng

let mk ?(page_capacity = 128) ?(hooks = Btree.null_hooks) () =
  let disk = Disk.create () in
  let cache = Cache.create ~disk ~capacity:1024 () in
  (Btree.create ~cache ~page_capacity ~hooks, cache)

let check_ok t =
  match Btree.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("ill-formed: " ^ msg)

let test_empty () =
  let t, _ = mk () in
  Alcotest.(check (option string)) "find in empty" None (Btree.find t "k");
  Alcotest.(check int) "height 1" 1 (Btree.height t);
  Alcotest.(check int) "no cells" 0 (Btree.cell_count t);
  check_ok t

let test_insert_find_many () =
  let t, _ = mk () in
  let n = 500 in
  let keys = List.init n (fun i -> Printf.sprintf "k%04d" (i * 7 mod n)) in
  List.iter (fun k -> Btree.set t ~key:k ~data:("v" ^ k)) keys;
  List.iter
    (fun k ->
      Alcotest.(check (option string)) k (Some ("v" ^ k)) (Btree.find t k))
    keys;
  Alcotest.(check bool) "tree grew" true (Btree.height t > 1);
  Alcotest.(check int) "all cells" n (Btree.cell_count t);
  check_ok t

let test_update_in_place () =
  let t, _ = mk () in
  Btree.set t ~key:"k" ~data:"v1";
  Btree.set t ~key:"k" ~data:"v2";
  Alcotest.(check (option string)) "latest" (Some "v2") (Btree.find t "k");
  Alcotest.(check int) "one cell" 1 (Btree.cell_count t)

let test_remove_and_consolidate () =
  let t, _ = mk () in
  let n = 300 in
  for i = 0 to n - 1 do
    Btree.set t ~key:(Printf.sprintf "k%04d" i) ~data:"valuevalue"
  done;
  check_ok t;
  let pages_before = List.length (Btree.all_pages t) in
  for i = 0 to n - 1 do
    if i mod 5 <> 0 then
      Alcotest.(check bool) "removed" true
        (Btree.remove t (Printf.sprintf "k%04d" i))
  done;
  check_ok t;
  Alcotest.(check int) "survivors" 60 (Btree.cell_count t);
  Alcotest.(check bool) "pages reclaimed" true
    (List.length (Btree.all_pages t) < pages_before);
  Alcotest.(check bool) "consolidations counted" true
    (Btree.consolidations t > 0)

let test_remove_absent () =
  let t, _ = mk () in
  Btree.set t ~key:"a" ~data:"1";
  Alcotest.(check bool) "absent remove" false (Btree.remove t "zzz")

let test_scan_cross_pages () =
  let t, _ = mk () in
  for i = 0 to 199 do
    Btree.set t ~key:(Printf.sprintf "k%04d" i) ~data:(string_of_int i)
  done;
  let seen = ref [] in
  Btree.scan t ~from:"k0050" (fun k _ ->
      if k < "k0060" then begin
        seen := k :: !seen;
        `Continue
      end
      else `Stop);
  Alcotest.(check int) "ten keys" 10 (List.length !seen);
  Alcotest.(check string) "first" "k0050" (List.nth (List.rev !seen) 0)

let test_split_events () =
  (* Invariants are asserted inside the hook, while the pages are still
     latched — event snapshots go stale as later splits rearrange them. *)
  let count = ref 0 in
  let hooks =
    {
      Btree.on_split =
        (fun (ev : Btree.split_event) ->
          incr count;
          Alcotest.(check bool) "old below split" true
            (match Page.max_key ev.old_page with
            | Some m -> m < ev.sep_key
            | None -> false);
          Alcotest.(check bool) "new at/above split" true
            (match Page.min_key ev.new_page with
            | Some m -> m >= ev.sep_key
            | None -> false);
          Alcotest.(check bool) "parent routes new page" true
            (Page.find ev.parent ev.sep_key
            = Some (Btree.child_data (Page.id ev.new_page))));
      on_consolidate = ignore;
    }
  in
  let t, _ = mk ~hooks () in
  for i = 0 to 99 do
    Btree.set t ~key:(Printf.sprintf "k%04d" i) ~data:"vvvvvvvv"
  done;
  Alcotest.(check bool) "events fired" true (!count > 0);
  Alcotest.(check int) "count matches" !count (Btree.splits t)

let test_consolidate_events () =
  let events = ref [] in
  let hooks =
    {
      Btree.on_split = ignore;
      on_consolidate = (fun ev -> events := ev :: !events);
    }
  in
  let t, _ = mk ~hooks () in
  for i = 0 to 199 do
    Btree.set t ~key:(Printf.sprintf "k%04d" i) ~data:"vvvvvvvv"
  done;
  for i = 0 to 199 do
    ignore (Btree.remove t (Printf.sprintf "k%04d" i))
  done;
  Alcotest.(check bool) "events fired" true (!events <> []);
  List.iter
    (fun (ev : Btree.consolidate_event) ->
      Alcotest.(check bool) "freed page key range absorbed" true
        (match (Page.min_key ev.freed_page, Page.max_key ev.survivor) with
        | Some _, Some _ | Some _, None | None, _ -> true))
    !events;
  check_ok t;
  Alcotest.(check int) "all removed" 0 (Btree.cell_count t)

let test_leaf_chain_order () =
  let t, cache = mk () in
  for i = 0 to 299 do
    Btree.set t ~key:(Printf.sprintf "k%04d" i) ~data:"dddd"
  done;
  let leaves = Btree.leaf_pages t in
  Alcotest.(check bool) "several leaves" true (List.length leaves > 2);
  (* chain covers increasing key ranges *)
  let rec walk last = function
    | [] -> ()
    | pid :: rest ->
      let page = Cache.get cache pid in
      (match (last, Page.min_key page) with
      | Some prev, Some lo ->
        Alcotest.(check bool) "increasing" true (prev < lo)
      | _ -> ());
      walk (Page.max_key page) rest
  in
  walk None leaves

let test_random_model_check () =
  (* Model-based: tree vs Map through a random op sequence, checking
     well-formedness along the way. *)
  let t, _ = mk ~page_capacity:96 () in
  let rng = Rng.create ~seed:77 in
  let model = Hashtbl.create 64 in
  for step = 1 to 2000 do
    let key = Printf.sprintf "k%03d" (Rng.int rng 200) in
    if Rng.chance rng 0.6 then begin
      let data = Printf.sprintf "v%d" step in
      Btree.set t ~key ~data;
      Hashtbl.replace model key data
    end
    else begin
      let removed = Btree.remove t key in
      Alcotest.(check bool) "remove agrees with model" (Hashtbl.mem model key)
        removed;
      Hashtbl.remove model key
    end;
    if step mod 200 = 0 then check_ok t
  done;
  check_ok t;
  Alcotest.(check int) "cardinality" (Hashtbl.length model) (Btree.cell_count t);
  Hashtbl.iter
    (fun k v ->
      Alcotest.(check (option string)) k (Some v) (Btree.find t k))
    model

let test_oversized_record_rejected () =
  let t, _ = mk ~page_capacity:64 () in
  Alcotest.check_raises "too big"
    (Invalid_argument "Btree.set: record larger than a page") (fun () ->
      Btree.set t ~key:"k" ~data:(String.make 100 'x'))

(* An inner page's child pointer is the page id as one varint: page 300
   takes two bytes, and a routing cell whose data is not exactly one
   canonical varint fails the descent rather than naming another page. *)
let test_child_id_golden () =
  let pid = Untx_storage.Page_id.of_int 300 in
  Alcotest.(check string) "page 300" "\xac\x02" (Btree.child_data pid);
  Alcotest.(check string) "page 5" "\x05"
    (Btree.child_data (Untx_storage.Page_id.of_int 5));
  let t, cache = mk ~page_capacity:64 () in
  for i = 0 to 39 do
    Btree.set t ~key:(Printf.sprintf "k%03d" i) ~data:"v"
  done;
  check_ok t;
  let root = Cache.get cache (Btree.root t) in
  Alcotest.(check bool) "grew an inner root" true (Page.kind root = Page.Inner);
  let key, _ = Page.nth root 0 in
  Page.set root ~key ~data:"\x05\x00";
  match Btree.find t "k000" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a child id with a trailing byte was followed"

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "insert/find many" `Quick test_insert_find_many;
    Alcotest.test_case "update in place" `Quick test_update_in_place;
    Alcotest.test_case "remove & consolidate" `Quick
      test_remove_and_consolidate;
    Alcotest.test_case "remove absent" `Quick test_remove_absent;
    Alcotest.test_case "scan across pages" `Quick test_scan_cross_pages;
    Alcotest.test_case "split events" `Quick test_split_events;
    Alcotest.test_case "consolidate events" `Quick test_consolidate_events;
    Alcotest.test_case "leaf chain order" `Quick test_leaf_chain_order;
    Alcotest.test_case "random ops vs model" `Quick test_random_model_check;
    Alcotest.test_case "oversized record rejected" `Quick
      test_oversized_record_rejected;
    Alcotest.test_case "child ids byte for byte" `Quick test_child_id_golden;
  ]
