module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Cache = Untx_storage.Cache
module Codec = Untx_util.Codec

type split_event = {
  level : int;
  old_page : Page.t;
  new_page : Page.t;
  sep_key : string;
  parent : Page.t;
  new_root : bool;
}

type consolidate_event = {
  survivor : Page.t;
  freed_page : Page.t;
  parent : Page.t;
  removed_sep : string;
  root_collapsed_to : Page_id.t option;
}

type hooks = {
  on_split : split_event -> unit;
  on_consolidate : consolidate_event -> unit;
}

let null_hooks = { on_split = ignore; on_consolidate = ignore }

let child_data pid = Codec.varint (Page_id.to_int pid)

let child_of_data data = Page_id.of_int (Codec.of_varint data)

type t = {
  cache : Cache.t;
  page_capacity : int;
  hooks : hooks;
  mutable root : Page_id.t;
  mutable splits : int;
  mutable consolidations : int;
  mutable consolidation_enabled : bool;
}

let create ~cache ~page_capacity ~hooks =
  let root = Cache.new_page cache ~kind:Page.Leaf ~page_capacity in
  {
    cache;
    page_capacity;
    hooks;
    root = Page.id root;
    splits = 0;
    consolidations = 0;
    consolidation_enabled = true;
  }

let attach ~cache ~page_capacity ~hooks ~root =
  { cache; page_capacity; hooks; root; splits = 0; consolidations = 0;
    consolidation_enabled = true }

let root t = t.root

let set_root t root = t.root <- root

(* Routing: the child covering [key] is named by the rightmost separator
   <= key; the leftmost separator acts as minus infinity.  Returns the
   routing cell's index. *)
let route page key =
  let i = Page.find_le page key in
  if i >= 0 then i
  else if Page.cell_count page = 0 then
    invalid_arg "Btree.route: empty inner page"
  else 0

let child_at page i =
  let _, data = Page.nth page i in
  child_of_data data

(* Descend to the leaf covering [key]; the path lists the inner pages
   visited (root first) with the child index taken at each.  Only
   structure modifications need the path. *)
let descend t key =
  let rec go pid path =
    let page = Cache.get t.cache pid in
    match Page.kind page with
    | Page.Leaf -> (page, List.rev path)
    | Page.Inner ->
      let idx = route page key in
      go (child_at page idx) ((page, idx) :: path)
  in
  go t.root []

(* The descent every point operation takes: no path, no closure, and on
   cache hits no allocation at all. *)
let rec leaf_from cache key pid =
  let page = Cache.get cache pid in
  match Page.kind page with
  | Page.Leaf -> page
  | Page.Inner -> leaf_from cache key (child_at page (route page key))

let find_leaf t key = leaf_from t.cache key t.root

let find t key =
  let leaf = find_leaf t key in
  Page.find leaf key

let overflows page = Page.used_bytes page > Page.capacity page

(* Suffix truncation (Bayer and Unterauer's prefix B-tree): given
   [lo < hi], the shortest prefix of [hi] that sorts above [lo] is [hi]
   cut one byte past the two keys' common prefix.  Any shorter prefix is
   a prefix of [lo] too, hence <= [lo]. *)
let separator ~lo ~hi =
  let n = Int.min (String.length lo) (String.length hi) in
  let rec common i = if i < n && lo.[i] = hi.[i] then common (i + 1) else i in
  String.sub hi 0 (common 0 + 1)

(* Split [page] as a system transaction.  [ancestors] is the path from
   the root down to (but excluding) [page]; empty when [page] is the
   root.  [incoming] is the leaf cell whose write did not fit: the cut
   balances the halves with it counted.  An inner split gets none, its
   routing cell being on the page already.  Recursively splits
   ancestors that overflow from the routing insert. *)
let rec split ?incoming t page ancestors ~level =
  let parent, remaining_ancestors, new_root =
    match List.rev ancestors with
    | (parent, _) :: rest -> (parent, List.rev rest, false)
    | [] ->
      (* Root split: grow the tree by one level. *)
      let new_root =
        Cache.new_page t.cache ~kind:Page.Inner ~page_capacity:t.page_capacity
      in
      Page.set new_root ~key:"" ~data:(child_data (Page.id page));
      t.root <- Page.id new_root;
      (new_root, [], true)
  in
  let new_page =
    Cache.new_page t.cache ~kind:(Page.kind page) ~page_capacity:t.page_capacity
  in
  let first_moved, moved = Page.split_upper ?incoming page in
  Page.absorb new_page moved;
  (* A leaf posts the shortest separator between its halves, the
     incoming cell counted on the side the cut gave it: [first_moved]
     is the incoming key when that side is the right one, and an
     incoming key below it stands last on the left.  An inner page
     must post its first moved key unchanged: the new page's first
     routing cell acts as minus infinity, so a shorter separator would
     send keys below [first_moved] to that cell's child instead of to
     the last child kept on the old page. *)
  let sep_key =
    match Page.kind page with
    | Page.Leaf ->
      Page.set_next new_page (Page.next page);
      Page.set_next page (Some (Page.id new_page));
      let last_kept, _ = Page.nth page (Page.cell_count page - 1) in
      let lo =
        match incoming with
        | Some (key, _)
          when String.compare key last_kept > 0
               && String.compare key first_moved < 0 ->
          key
        | _ -> last_kept
      in
      separator ~lo ~hi:first_moved
    | Page.Inner -> first_moved
  in
  Page.set parent ~key:sep_key ~data:(child_data (Page.id new_page));
  Cache.mark_dirty t.cache page;
  Cache.mark_dirty t.cache new_page;
  Cache.mark_dirty t.cache parent;
  t.splits <- t.splits + 1;
  t.hooks.on_split
    { level; old_page = page; new_page; sep_key; parent; new_root };
  if overflows parent then
    split t parent remaining_ancestors ~level:(level + 1)

let write_cell t leaf ~key ~data =
  Page.set leaf ~key ~data;
  Cache.mark_dirty t.cache leaf

(* The split path: descend with the path, split until the cell fits. *)
let rec split_and_set t ~key ~data =
  let leaf, path = descend t key in
  if Page.would_overflow leaf ~key ~data then begin
    split ~incoming:(key, data) t leaf path ~level:0;
    split_and_set t ~key ~data
  end
  else write_cell t leaf ~key ~data

let set_in t leaf ~key ~data =
  if Page.cell_size ~key ~data > t.page_capacity then
    invalid_arg "Btree.set: record larger than a page";
  if Page.would_overflow leaf ~key ~data then split_and_set t ~key ~data
  else write_cell t leaf ~key ~data

let set t ~key ~data = set_in t (find_leaf t key) ~key ~data

let underflows t page = Page.used_bytes page < t.page_capacity / 4

(* Try to consolidate an underflowing leaf with a neighbour under the
   same parent (a page delete, Section 5.2.2).  The survivor is always
   the left page of the pair, so parent routing never loses its leftmost
   separator. *)
let consolidate t leaf path =
  match List.rev path with
  | [] -> () (* the root leaf never consolidates *)
  | (parent, idx) :: _ ->
    let pair =
      if idx > 0 then
        let _, ldata = Page.nth parent (idx - 1) in
        Some (Cache.get t.cache (child_of_data ldata), leaf, idx)
      else if idx + 1 < Page.cell_count parent then
        let _, rdata = Page.nth parent (idx + 1) in
        Some (leaf, Cache.get t.cache (child_of_data rdata), idx + 1)
      else None
    in
    match pair with
    | None -> ()
    | Some (survivor, victim, victim_idx) ->
      if
        Page.kind victim = Page.Leaf
        && Page.used_bytes survivor + Page.used_bytes victim
           <= t.page_capacity
      then begin
        let freed_page = Page.copy victim in
        Page.absorb survivor (Page.cells victim);
        Page.set_next survivor (Page.next victim);
        let victim_sep, _ = Page.nth parent victim_idx in
        ignore (Page.remove parent victim_sep);
        Cache.mark_dirty t.cache survivor;
        Cache.mark_dirty t.cache parent;
        (* Root collapse: an inner root left with a single child drops a
           level. *)
        let root_collapsed_to =
          if
            Page_id.equal (Page.id parent) t.root
            && Page.cell_count parent = 1
          then begin
            let _, only_child = Page.nth parent 0 in
            let child = child_of_data only_child in
            t.root <- child;
            Some child
          end
          else None
        in
        t.consolidations <- t.consolidations + 1;
        t.hooks.on_consolidate
          { survivor; freed_page; parent; removed_sep = victim_sep;
            root_collapsed_to };
        (* The hook has made the consolidation durable; only now may the
           victim's stable image disappear. *)
        Cache.free_page t.cache (Page.id victim);
        match root_collapsed_to with
        | Some _ -> Cache.free_page t.cache (Page.id parent)
        | None -> ()
      end

let set_consolidation_enabled t enabled = t.consolidation_enabled <- enabled

let remove_in t leaf key =
  let removed = Page.remove leaf key in
  if removed then begin
    Cache.mark_dirty t.cache leaf;
    if t.consolidation_enabled && underflows t leaf then
      let _, path = descend t key in
      consolidate t leaf path
  end;
  removed

let remove t key = remove_in t (find_leaf t key) key

let scan t ~from f =
  let leaf = find_leaf t from in
  let stopped = ref false in
  let visit_from page start =
    Page.iter_from page start (fun k d ->
        match f k d with
        | `Continue -> `Continue
        | `Stop ->
          stopped := true;
          `Stop)
  in
  visit_from leaf from;
  let rec follow next =
    match next with
    | None -> ()
    | Some pid when not !stopped ->
      let page = Cache.get t.cache pid in
      visit_from page "";
      follow (Page.next page)
    | Some _ -> ()
  in
  if not !stopped then follow (Page.next leaf)

let leftmost_leaf t =
  let rec go pid =
    let page = Cache.get t.cache pid in
    match Page.kind page with
    | Page.Leaf -> page
    | Page.Inner ->
      let _, data = Page.nth page 0 in
      go (child_of_data data)
  in
  go t.root

let leaf_pages t =
  let rec chain acc page =
    let acc = Page.id page :: acc in
    match Page.next page with
    | None -> List.rev acc
    | Some pid -> chain acc (Cache.get t.cache pid)
  in
  chain [] (leftmost_leaf t)

let cell_count t =
  List.fold_left
    (fun acc pid -> acc + Page.cell_count (Cache.get t.cache pid))
    0 (leaf_pages t)

let height t =
  let rec go pid acc =
    let page = Cache.get t.cache pid in
    match Page.kind page with
    | Page.Leaf -> acc
    | Page.Inner ->
      let _, data = Page.nth page 0 in
      go (child_of_data data) (acc + 1)
  in
  go t.root 1

let all_pages t =
  let rec go pid acc =
    let page = Cache.get t.cache pid in
    match Page.kind page with
    | Page.Leaf -> pid :: acc
    | Page.Inner ->
      List.fold_left
        (fun acc (_, data) -> go (child_of_data data) acc)
        (pid :: acc) (Page.cells page)
  in
  go t.root []

let splits t = t.splits

let consolidations t = t.consolidations

(* Well-formedness: search-correct routing, sorted cells, intact leaf
   chain.  The DC runs this after replaying its own log, before letting
   the TC start redo. *)
let check t =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let errf fmt = Format.kasprintf (fun s -> Error s) fmt in
  let visited = Page_id.Tbl.create 64 in
  let leaves = ref [] in
  (* lo is an inclusive lower bound; hi an exclusive upper bound. *)
  let rec walk pid ~lo ~hi =
    if Page_id.Tbl.mem visited pid then errf "cycle at %a" Page_id.pp pid
    else begin
      Page_id.Tbl.add visited pid ();
      match Cache.lookup t.cache pid with
      | None -> errf "dangling page %a" Page_id.pp pid
      | Some page ->
        let cells = Page.cells page in
        let* () = check_sorted pid cells in
        let* () = check_bounds pid cells ~lo ~hi in
        (match Page.kind page with
        | Page.Leaf ->
          leaves := pid :: !leaves;
          Ok ()
        | Page.Inner ->
          if cells = [] then errf "empty inner page %a" Page_id.pp pid
          else walk_children pid cells ~lo ~hi)
    end
  and check_sorted pid = function
    | (k1, _) :: ((k2, _) :: _ as rest) ->
      if String.compare k1 k2 >= 0 then
        errf "unsorted cells in %a: %S >= %S" Page_id.pp pid k1 k2
      else check_sorted pid rest
    | _ -> Ok ()
  and check_bounds pid cells ~lo ~hi =
    List.fold_left
      (fun acc (k, _) ->
        let* () = acc in
        if String.compare k lo < 0 then
          errf "key %S below bound %S in %a" k lo Page_id.pp pid
        else
          match hi with
          | Some h when String.compare k h >= 0 ->
            errf "key %S above bound %S in %a" k h Page_id.pp pid
          | _ -> Ok ())
      (Ok ()) cells
  and walk_children pid cells ~lo ~hi =
    (* Child i covers [max(sep_i, lo), sep_{i+1}); the first separator is
       -infinity in routing terms, so its child inherits lo. *)
    let rec go i prev_lo = function
      | [] -> Ok ()
      | (sep, data) :: rest ->
        let child_lo = if i = 0 then prev_lo else sep in
        let child_hi =
          match rest with (next_sep, _) :: _ -> Some next_sep | [] -> hi
        in
        let* () = walk (child_of_data data) ~lo:child_lo ~hi:child_hi in
        go (i + 1) prev_lo rest
    in
    let* () = go 0 lo cells in
    ignore pid;
    Ok ()
  in
  let* () = walk t.root ~lo:"" ~hi:None in
  (* The leaf sibling chain must enumerate exactly the in-order leaves. *)
  let in_order = List.rev !leaves in
  let chain = leaf_pages t in
  if List.compare Page_id.compare chain in_order <> 0 then
    errf "leaf chain disagrees with tree order"
  else Ok ()
