(* Unit tests for the storage substrate: slotted pages, the simulated
   stable store, the buffer pool and its policy hooks. *)

module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Disk = Untx_storage.Disk
module Cache = Untx_storage.Cache

let mk_page ?(capacity = 256) id =
  Page.create ~id:(Page_id.of_int id) ~kind:Page.Leaf ~capacity

(* --- pages ----------------------------------------------------------- *)

let test_page_set_find () =
  let p = mk_page 1 in
  Page.set p ~key:"b" ~data:"2";
  Page.set p ~key:"a" ~data:"1";
  Page.set p ~key:"c" ~data:"3";
  Alcotest.(check (option string)) "find a" (Some "1") (Page.find p "a");
  Alcotest.(check (option string)) "find c" (Some "3") (Page.find p "c");
  Alcotest.(check (option string)) "find missing" None (Page.find p "x");
  Alcotest.(check (list (pair string string)))
    "sorted" [ ("a", "1"); ("b", "2"); ("c", "3") ] (Page.cells p);
  Page.set p ~key:"b" ~data:"22";
  Alcotest.(check (option string)) "replaced" (Some "22") (Page.find p "b");
  Alcotest.(check int) "count stable" 3 (Page.cell_count p)

let test_page_remove () =
  let p = mk_page 1 in
  Page.set p ~key:"a" ~data:"1";
  Page.set p ~key:"b" ~data:"2";
  Alcotest.(check bool) "removed" true (Page.remove p "a");
  Alcotest.(check bool) "absent now" false (Page.remove p "a");
  Alcotest.(check (option string)) "gone" None (Page.find p "a");
  Alcotest.(check int) "one left" 1 (Page.cell_count p)

let test_page_bytes_accounting () =
  let p = mk_page 1 in
  let before = Page.used_bytes p in
  Alcotest.(check int) "starts empty" 0 before;
  Page.set p ~key:"ab" ~data:"xyz";
  Alcotest.(check int) "cell size"
    (Page.cell_size ~key:"ab" ~data:"xyz")
    (Page.used_bytes p);
  Page.set p ~key:"ab" ~data:"xy";
  Alcotest.(check int) "shrinks on replace"
    (Page.cell_size ~key:"ab" ~data:"xy")
    (Page.used_bytes p);
  ignore (Page.remove p "ab");
  Alcotest.(check int) "back to zero" 0 (Page.used_bytes p)

let test_page_overflow_check () =
  let p = mk_page ~capacity:64 1 in
  Alcotest.(check bool) "fits" false
    (Page.would_overflow p ~key:"k" ~data:"small");
  Alcotest.(check bool) "too big" true
    (Page.would_overflow p ~key:"k" ~data:(String.make 100 'x'))

let test_page_find_le () =
  let p = mk_page 1 in
  List.iter (fun k -> Page.set p ~key:k ~data:k) [ "b"; "d"; "f" ];
  let le k =
    let i = Page.find_le p k in
    if i < 0 then None else Some (fst (Page.nth p i))
  in
  Alcotest.(check (option string)) "exact" (Some "d") (le "d");
  Alcotest.(check (option string)) "between" (Some "d") (le "e");
  Alcotest.(check (option string)) "below all" None (le "a");
  Alcotest.(check (option string)) "above all" (Some "f") (le "z")

let test_page_split_upper () =
  let p = mk_page 1 in
  for i = 0 to 9 do
    Page.set p ~key:(Printf.sprintf "k%02d" i) ~data:"vvvv"
  done;
  let used_before = Page.used_bytes p in
  let split_key, moved = Page.split_upper p in
  Alcotest.(check bool) "moved nonempty" true (moved <> []);
  Alcotest.(check bool) "kept nonempty" true (Page.cell_count p > 0);
  Alcotest.(check string) "split key is first moved" split_key
    (fst (List.hd moved));
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool) "moved >= split" true (k >= split_key))
    moved;
  (match Page.max_key p with
  | Some m -> Alcotest.(check bool) "kept < split" true (m < split_key)
  | None -> Alcotest.fail "empty left half");
  let moved_bytes =
    List.fold_left
      (fun acc (k, d) -> acc + Page.cell_size ~key:k ~data:d)
      0 moved
  in
  Alcotest.(check int) "bytes conserved" used_before
    (Page.used_bytes p + moved_bytes)

(* Page.split_upper balances the bytes: ten equal cells split 5/5 (a
   cut strictly past half took six), and a full page of four equal cells
   whose fifth did not fit splits 3/2 wherever the fifth sorts — never
   4/1, as cutting the four alone did.  An append at the right edge
   leaves the old page the heavier half. *)
let test_page_split_balance () =
  let halves ?incoming p =
    let split_key, moved = Page.split_upper ?incoming p in
    let count_in ~left n =
      match incoming with
      | Some (key, _) when (key < split_key) = left -> n + 1
      | _ -> n
    in
    ( count_in ~left:true (Page.cell_count p),
      count_in ~left:false (List.length moved) )
  in
  let ten = mk_page 1 in
  for i = 0 to 9 do
    Page.set ten ~key:(Printf.sprintf "k%02d" i) ~data:"vvvv"
  done;
  Alcotest.(check (pair int int)) "ten equal cells" (5, 5) (halves ten);
  let full () =
    let p = mk_page 1 in
    List.iter
      (fun k -> Page.set p ~key:k ~data:(String.make 50 'v'))
      [ "k1"; "k3"; "k5"; "k7" ];
    Alcotest.(check bool) "the page is full" true
      (Page.would_overflow p ~key:"k0" ~data:(String.make 50 'v'));
    p
  in
  List.iter
    (fun key ->
      let l, r = halves ~incoming:(key, String.make 50 'v') (full ()) in
      Alcotest.(check bool)
        (Printf.sprintf "incoming %s: %d/%d is 3/2 or 2/3" key l r)
        true
        ((l, r) = (3, 2) || (l, r) = (2, 3)))
    [ "k0"; "k2"; "k4"; "k6"; "k8" ];
  Alcotest.(check (pair int int)) "a right-edge append keeps the heavier half"
    (3, 2)
    (halves ~incoming:("k8", String.make 50 'v') (full ()))

let test_page_iter_from () =
  let p = mk_page 1 in
  List.iter (fun k -> Page.set p ~key:k ~data:k) [ "a"; "c"; "e" ];
  let seen = ref [] in
  Page.iter_from p "b" (fun k _ ->
      seen := k :: !seen;
      `Continue);
  Alcotest.(check (list string)) "from b" [ "c"; "e" ] (List.rev !seen);
  let seen2 = ref [] in
  Page.iter_from p "" (fun k _ ->
      seen2 := k :: !seen2;
      `Stop);
  Alcotest.(check (list string)) "stop early" [ "a" ] !seen2

let test_page_copy_isolated () =
  let p = mk_page 1 in
  Page.set p ~key:"a" ~data:"1";
  let q = Page.copy p in
  Page.set p ~key:"a" ~data:"mutated";
  Alcotest.(check (option string)) "copy unaffected" (Some "1") (Page.find q "a")

(* --- disk ------------------------------------------------------------ *)

let test_disk_roundtrip () =
  let d = Disk.create () in
  let id = Disk.alloc d in
  let p = Page.create ~id ~kind:Page.Leaf ~capacity:128 in
  Page.set p ~key:"k" ~data:"v";
  Disk.write d p;
  (* post-write mutation must not leak into stable state *)
  Page.set p ~key:"k" ~data:"changed";
  match Disk.read d id with
  | None -> Alcotest.fail "page lost"
  | Some q ->
    Alcotest.(check (option string)) "stable copy" (Some "v") (Page.find q "k")

let test_disk_alloc_free () =
  let d = Disk.create () in
  let a = Disk.alloc d in
  let b = Disk.alloc d in
  Alcotest.(check bool) "distinct" true (not (Page_id.equal a b));
  Disk.free d a;
  Alcotest.(check bool) "freed gone" false (Disk.exists d a);
  let c = Disk.alloc d in
  Alcotest.(check bool) "freed id reused" true (Page_id.equal a c)

(* A read counts only when it finds an image, or a torn one to detect:
   a page never written, or freed, transfers nothing. *)
let test_disk_unwritten_read_counts_nothing () =
  let counters = Untx_util.Instrument.create () in
  let d = Disk.create ~counters () in
  let reads () =
    (Disk.reads d, Untx_util.Instrument.get counters "disk.page_reads")
  in
  let never = Disk.alloc d in
  Alcotest.(check bool) "nothing read" true (Disk.read d never = None);
  Alcotest.(check (pair int int)) "a never-written page" (0, 0) (reads ());
  let written = Disk.alloc d in
  let page v =
    let p = mk_page (Page_id.to_int written) in
    Page.set p ~key:"k" ~data:v;
    p
  in
  Disk.write d (page "v");
  ignore (Disk.read d written);
  Alcotest.(check (pair int int)) "a written page" (1, 1) (reads ());
  Disk.free d written;
  ignore (Disk.read d written);
  Alcotest.(check (pair int int)) "a freed page" (1, 1) (reads ());
  (* a torn first image: nothing good to return, but the read detects it *)
  let torn = Disk.alloc d in
  Untx_fault.Fault.arm ~seed:1
    [ Untx_fault.Fault.crash_at "disk.page_write.torn" 1 ];
  (try
     Disk.write d (mk_page (Page_id.to_int torn));
     Alcotest.fail "expected crash"
   with Untx_fault.Fault.Injected_crash _ -> ());
  Untx_fault.Fault.disarm ();
  Alcotest.(check bool) "no good image" true (Disk.read d torn = None);
  Alcotest.(check int) "torn image detected" 1 (Disk.torn_detected d);
  Alcotest.(check (pair int int)) "a torn page" (2, 2) (reads ())

let test_disk_master () =
  let d = Disk.create () in
  Alcotest.(check (option string)) "initially none" None (Disk.master d);
  Disk.set_master d "catalog-v1";
  Disk.set_master d "catalog-v2";
  Alcotest.(check (option string)) "latest wins" (Some "catalog-v2")
    (Disk.master d)

(* --- cache ----------------------------------------------------------- *)

let test_cache_fault_and_flush () =
  let d = Disk.create () in
  let c = Cache.create ~disk:d ~capacity:4 () in
  let p = Cache.new_page c ~kind:Page.Leaf ~page_capacity:128 in
  Page.set p ~key:"k" ~data:"v";
  Cache.mark_dirty c p;
  Alcotest.(check bool) "not yet stable" false (Disk.exists d (Page.id p));
  Cache.flush_all c;
  Alcotest.(check bool) "stable after flush" true (Disk.exists d (Page.id p));
  Cache.crash c;
  let q = Cache.get c (Page.id p) in
  Alcotest.(check (option string)) "refaulted" (Some "v") (Page.find q "k")

let test_cache_policy_blocks_flush () =
  let d = Disk.create () in
  let c = Cache.create ~disk:d ~capacity:4 () in
  Cache.set_policy c ~can_flush:(fun _ -> false) ~prepare_flush:ignore;
  let p = Cache.new_page c ~kind:Page.Leaf ~page_capacity:128 in
  Cache.mark_dirty c p;
  Cache.flush_all c;
  Alcotest.(check bool) "flush refused" false (Disk.exists d (Page.id p));
  Alcotest.(check bool) "stall recorded" true (Cache.flush_stalls c > 0)

let test_cache_eviction_lru () =
  let d = Disk.create () in
  let c = Cache.create ~disk:d ~capacity:3 () in
  let pages =
    List.init 5 (fun _ -> Cache.new_page c ~kind:Page.Leaf ~page_capacity:64)
  in
  ignore pages;
  Alcotest.(check bool) "capacity respected" true (Cache.resident c <= 3);
  Alcotest.(check bool) "evictions happened" true (Cache.evictions c > 0)

(* Regression: when every resident page is dirty and unflushable (the
   causality rule pins them all), eviction must give up after a bounded
   clock sweep — not spin forever hunting a victim that cannot exist.
   The pool stays over capacity and the skips are counted. *)
let test_cache_eviction_stall_terminates () =
  let d = Disk.create () in
  let counters = Untx_util.Instrument.create () in
  let c = Cache.create ~counters ~disk:d ~capacity:2 () in
  Cache.set_policy c ~can_flush:(fun _ -> false) ~prepare_flush:ignore;
  (* every page is dirty from birth and the policy refuses all flushes,
     so there is never an evictable victim; this call must return *)
  let pages =
    List.init 6 (fun _ -> Cache.new_page c ~kind:Page.Leaf ~page_capacity:64)
  in
  ignore pages;
  Alcotest.(check int) "nothing evicted" 0 (Cache.evictions c);
  Alcotest.(check int) "pool over capacity" 6 (Cache.resident c);
  Alcotest.(check bool) "skips recorded" true
    (Untx_util.Instrument.get counters "cache.evict_skips" > 0);
  (* scan work is bounded: each enforcement pass walks the ring at most
     twice, so the step counter stays linear in residents, not O(n^2) *)
  let steps = Untx_util.Instrument.get counters "cache.evict_scan_steps" in
  Alcotest.(check bool)
    (Printf.sprintf "scan steps bounded (%d)" steps)
    true
    (steps <= 2 * 6 * 6);
  (* once the policy relents, the same pool drains back under capacity *)
  Cache.set_policy c ~can_flush:(fun _ -> true) ~prepare_flush:ignore;
  Cache.enforce_capacity c;
  Alcotest.(check bool) "drains when unpinned" true (Cache.resident c <= 2);
  Alcotest.(check bool) "evictions resumed" true (Cache.evictions c > 0)

(* Leaves-first eviction: the clock takes a leaf while one can go; an
   inner page goes only when every resident leaf is pinned. *)
let new_pages c kinds =
  List.map (fun kind -> Cache.new_page c ~kind ~page_capacity:64) kinds

let resident c p = Cache.cached c (Page.id p) <> None

let test_cache_leaf_before_inner () =
  let c = Cache.create ~disk:(Disk.create ()) ~capacity:2 () in
  match new_pages c [ Page.Inner; Page.Leaf; Page.Leaf ] with
  | [ inner; leaf; newest ] ->
    Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
    Alcotest.(check bool) "the leaf went" false (resident c leaf);
    Alcotest.(check bool) "the inner page stayed" true (resident c inner);
    Alcotest.(check bool) "the new leaf stayed" true (resident c newest)
  | _ -> assert false

let pin_leaves c =
  Cache.set_policy c
    ~can_flush:(fun p -> Page.kind p = Page.Inner)
    ~prepare_flush:ignore

let test_cache_inner_when_leaves_pinned () =
  let d = Disk.create () in
  let c = Cache.create ~disk:d ~capacity:2 () in
  pin_leaves c;
  match new_pages c [ Page.Inner; Page.Leaf; Page.Leaf ] with
  | [ inner; leaf; newest ] ->
    Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
    Alcotest.(check bool) "the inner page went" false (resident c inner);
    Alcotest.(check bool) "flushed as it went" true (Disk.exists d (Page.id inner));
    Alcotest.(check bool) "the pinned leaves stayed" true
      (resident c leaf && resident c newest)
  | _ -> assert false

(* One eviction pass that finds every leaf pinned sweeps the leaf ring
   once (two turns: clear four bits, refuse four leaves) and takes both
   inner pages from the inner ring: 8 + 3 + 1 steps.  Sweeping the leaf
   ring again for the second victim would take 8 more steps and 4 more
   refusals. *)
let test_cache_pinned_leaves_swept_once () =
  let counters = Untx_util.Instrument.create () in
  let c = Cache.create ~counters ~disk:(Disk.create ()) ~capacity:4 () in
  pin_leaves c;
  ignore (new_pages c [ Page.Inner; Page.Inner; Page.Leaf; Page.Leaf ]);
  Cache.with_operation_latch c (fun () ->
      ignore (new_pages c [ Page.Leaf; Page.Leaf ]));
  let get = Untx_util.Instrument.get counters in
  Alcotest.(check int) "two evictions" 2 (Cache.evictions c);
  Alcotest.(check int) "scan steps" 12 (get "cache.evict_scan_steps");
  Alcotest.(check int) "refusals" 4 (get "cache.evict_skips");
  Alcotest.(check int) "four leaves resident" 4 (Cache.resident c)

(* After a crash neither ring holds a page of the lost pool: the next
   pinned-leaves eviction takes the one inner page there is, once. *)
let test_cache_crash_empties_rings () =
  let c = Cache.create ~disk:(Disk.create ()) ~capacity:2 () in
  ignore (new_pages c [ Page.Inner; Page.Leaf ]);
  Cache.crash c;
  Alcotest.(check int) "nothing resident" 0 (Cache.resident c);
  pin_leaves c;
  match new_pages c [ Page.Inner; Page.Leaf; Page.Leaf ] with
  | [ inner; _; _ ] ->
    Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
    Alcotest.(check bool) "the inner page went" false (resident c inner);
    Alcotest.(check int) "two resident" 2 (Cache.resident c)
  | _ -> assert false

(* [install] under the id of a resident page of the other kind moves
   the id from one ring to the other: the leaves churning afterwards
   never take the installed inner page by its old leaf slot. *)
let test_cache_install_other_kind () =
  let c = Cache.create ~disk:(Disk.create ()) ~capacity:2 () in
  let leaf = Cache.new_page c ~kind:Page.Leaf ~page_capacity:64 in
  let inner = Page.create ~id:(Page.id leaf) ~kind:Page.Inner ~capacity:64 in
  Cache.install c inner;
  Alcotest.(check int) "one resident" 1 (Cache.resident c);
  ignore (new_pages c [ Page.Leaf; Page.Leaf; Page.Leaf ]);
  Alcotest.(check int) "two evictions" 2 (Cache.evictions c);
  Alcotest.(check bool) "the installed inner page stayed" true
    (match Cache.cached c (Page.id inner) with
    | Some p -> p == inner
    | None -> false);
  Alcotest.(check int) "at capacity" 2 (Cache.resident c)

let test_cache_prepare_flush_hook () =
  let d = Disk.create () in
  let c = Cache.create ~disk:d ~capacity:4 () in
  Cache.set_policy c
    ~can_flush:(fun _ -> true)
    ~prepare_flush:(fun page -> Page.set_meta page "sync-meta");
  let p = Cache.new_page c ~kind:Page.Leaf ~page_capacity:64 in
  Cache.mark_dirty c p;
  Cache.flush_all c;
  match Disk.read d (Page.id p) with
  | Some q -> Alcotest.(check string) "meta synced" "sync-meta" (Page.meta q)
  | None -> Alcotest.fail "not flushed"

let test_cache_drop_page_reverts () =
  let d = Disk.create () in
  let c = Cache.create ~disk:d ~capacity:4 () in
  let p = Cache.new_page c ~kind:Page.Leaf ~page_capacity:128 in
  Page.set p ~key:"k" ~data:"stable";
  Cache.mark_dirty c p;
  Cache.flush_all c;
  let p = Cache.get c (Page.id p) in
  Page.set p ~key:"k" ~data:"volatile";
  Cache.mark_dirty c p;
  Cache.drop_page c (Page.id p);
  let q = Cache.get c (Page.id p) in
  Alcotest.(check (option string))
    "reverted to stable" (Some "stable") (Page.find q "k")

let suite =
  [
    Alcotest.test_case "page set/find" `Quick test_page_set_find;
    Alcotest.test_case "page remove" `Quick test_page_remove;
    Alcotest.test_case "page byte accounting" `Quick
      test_page_bytes_accounting;
    Alcotest.test_case "page overflow check" `Quick test_page_overflow_check;
    Alcotest.test_case "page find_le" `Quick test_page_find_le;
    Alcotest.test_case "page split_upper" `Quick test_page_split_upper;
    Alcotest.test_case "page split balances the bytes" `Quick
      test_page_split_balance;
    Alcotest.test_case "page iter_from" `Quick test_page_iter_from;
    Alcotest.test_case "page copy isolation" `Quick test_page_copy_isolated;
    Alcotest.test_case "disk roundtrip isolation" `Quick test_disk_roundtrip;
    Alcotest.test_case "disk alloc/free" `Quick test_disk_alloc_free;
    Alcotest.test_case "disk master record" `Quick test_disk_master;
    Alcotest.test_case "a read of a never-written page counts nothing" `Quick
      test_disk_unwritten_read_counts_nothing;
    Alcotest.test_case "cache fault & flush" `Quick test_cache_fault_and_flush;
    Alcotest.test_case "cache policy blocks flush" `Quick
      test_cache_policy_blocks_flush;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction_lru;
    Alcotest.test_case "cache stall terminates" `Quick
      test_cache_eviction_stall_terminates;
    Alcotest.test_case "cache evicts a leaf before an inner page" `Quick
      test_cache_leaf_before_inner;
    Alcotest.test_case "cache evicts an inner page when leaves are pinned"
      `Quick test_cache_inner_when_leaves_pinned;
    Alcotest.test_case "cache sweeps pinned leaves once per pass" `Quick
      test_cache_pinned_leaves_swept_once;
    Alcotest.test_case "cache crash empties both rings" `Quick
      test_cache_crash_empties_rings;
    Alcotest.test_case "cache install over the other kind" `Quick
      test_cache_install_other_kind;
    Alcotest.test_case "cache page-sync hook" `Quick
      test_cache_prepare_flush_hook;
    Alcotest.test_case "cache drop reverts" `Quick test_cache_drop_page_reverts;
  ]
