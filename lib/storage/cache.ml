module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Fault = Untx_fault.Fault

(* The cache is the DC's buffer manager, hence the dc.* point names:
   a crash on either side of the page write is the classic
   half-flushed-checkpoint scenario of paper Section 5.3. *)
let p_flush_before = Fault.declare "dc.flush.before_page_write"

let p_flush_after = Fault.declare "dc.flush.after_page_write"

type entry = {
  page : Page.t;
  mutable dirty : bool;
  mutable referenced : bool; (* clock reference bit: one second chance *)
  mutable slot : int; (* index in its kind's clock ring; -1 when detached *)
}

(* A second-chance clock over a dense ring of resident entries (removal
   swaps the last slot in), so one eviction inspects each resident page
   at most twice — not the O(pool) fold per candidate the old
   LRU-ticket scan paid. *)
type ring = {
  mutable slots : entry option array;
  mutable len : int;
  mutable hand : int;
}

type t = {
  disk : Disk.t;
  capacity : int;
  entries : entry Page_id.Tbl.t;
  (* "cache.*" counter cells, resolved once *)
  c_flushes : int ref;
  c_flush_stalls : int ref;
  c_evict_scan_steps : int ref;
  c_evict_skips : int ref;
  c_evictions : int ref;
  c_misses : int ref;
  mutable can_flush : Page.t -> bool;
  mutable prepare_flush : Page.t -> unit;
  (* One ring per page kind, leaves first: every access to a leaf
     passes through its ancestors, so an inner page is never colder
     than the leaves below it, and the inner ring gives up a victim
     only when the leaf ring has none. *)
  leaves : ring;
  inners : ring;
  mutable evictions : int;
  mutable flush_stalls : int;
  mutable latch_depth : int; (* operation latches: eviction deferred *)
}

(* The index and the rings start small and grow with the pages
   resident: sizing them by [capacity] would reserve major heap for
   pages a run may never hold. *)
let initial_slots = 16

let new_ring () = { slots = Array.make initial_slots None; len = 0; hand = 0 }

let create ?(counters = Instrument.global) ~disk ~capacity () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    disk;
    capacity;
    entries = Page_id.Tbl.create initial_slots;
    c_flushes = Metrics.counter_cell counters "cache.flushes";
    c_flush_stalls = Metrics.counter_cell counters "cache.flush_stalls";
    c_evict_scan_steps = Metrics.counter_cell counters "cache.evict_scan_steps";
    c_evict_skips = Metrics.counter_cell counters "cache.evict_skips";
    c_evictions = Metrics.counter_cell counters "cache.evictions";
    c_misses = Metrics.counter_cell counters "cache.misses";
    can_flush = (fun _ -> true);
    prepare_flush = ignore;
    leaves = new_ring ();
    inners = new_ring ();
    evictions = 0;
    flush_stalls = 0;
    latch_depth = 0;
  }

let set_policy t ~can_flush ~prepare_flush =
  t.can_flush <- can_flush;
  t.prepare_flush <- prepare_flush

let touch _t entry = entry.referenced <- true

let ring_of t entry =
  match Page.kind entry.page with Page.Leaf -> t.leaves | Page.Inner -> t.inners

let ring_add ring entry =
  if ring.len = Array.length ring.slots then begin
    let bigger = Array.make (2 * Array.length ring.slots) None in
    Array.blit ring.slots 0 bigger 0 ring.len;
    ring.slots <- bigger
  end;
  ring.slots.(ring.len) <- Some entry;
  entry.slot <- ring.len;
  ring.len <- ring.len + 1

let ring_remove ring entry =
  if entry.slot >= 0 then begin
    let last = ring.len - 1 in
    (match ring.slots.(last) with
    | Some moved when entry.slot <> last ->
      ring.slots.(entry.slot) <- Some moved;
      moved.slot <- entry.slot
    | _ -> ());
    ring.slots.(last) <- None;
    ring.len <- last;
    entry.slot <- -1;
    if ring.hand >= ring.len then ring.hand <- 0
  end

(* The stable write itself; the caller has settled that policy allows
   it. *)
let write_out t entry =
  t.prepare_flush entry.page;
  Fault.hit p_flush_before;
  Disk.write t.disk entry.page;
  Fault.hit p_flush_after;
  entry.dirty <- false;
  incr t.c_flushes

let flush_entry t entry =
  if entry.dirty then
    if t.can_flush entry.page then write_out t entry
    else begin
      t.flush_stalls <- t.flush_stalls + 1;
      incr t.c_flush_stalls
    end

(* One clock sweep of [ring]: strip reference bits, skip unflushable
   dirty pages, stop at the first evictable entry — whose flushability
   this has just asked, so the eviction does not ask again.  The budget
   of two full turns guarantees termination when every page in the
   ring is pinned down by the causality rule (all referenced on turn
   one, all skipped on turn two) — the pool then simply stays over
   capacity rather than spin or violate write-ahead ordering. *)
let rec find_victim t ring ~scanned ~budget =
  if ring.len = 0 || scanned >= budget then None
  else begin
    incr t.c_evict_scan_steps;
    let entry =
      match ring.slots.(ring.hand) with Some e -> e | None -> assert false
    in
    ring.hand <- (ring.hand + 1) mod ring.len;
    if entry.referenced then begin
      entry.referenced <- false;
      find_victim t ring ~scanned:(scanned + 1) ~budget
    end
    else if entry.dirty && not (t.can_flush entry.page) then begin
      incr t.c_evict_skips;
      find_victim t ring ~scanned:(scanned + 1) ~budget
    end
    else Some entry
  end

let sweep t ring = find_victim t ring ~scanned:0 ~budget:(2 * ring.len)

(* Once two sweeps of the leaf ring have found every leaf pinned, the
   next victims of the same call come from the inner ring straight
   away: writing an inner page out unpins no leaf, and a failed sweep
   ends where it began with every bit clear, so another would end the
   same way, only repeating each [can_flush] refusal. *)
let evict_down t ~limit =
  let leaves_pinned = ref false in
  while t.latch_depth = 0 && Page_id.Tbl.length t.entries > limit do
    let victim =
      if !leaves_pinned then sweep t t.inners
      else
        match sweep t t.leaves with
        | Some _ as v -> v
        | None ->
          leaves_pinned := true;
          sweep t t.inners
    in
    match victim with
    | None -> raise Exit
    | Some entry ->
      if entry.dirty then write_out t entry;
      Page_id.Tbl.remove t.entries (Page.id entry.page);
      ring_remove (ring_of t entry) entry;
      t.evictions <- t.evictions + 1;
      incr t.c_evictions
  done

let evict_down t ~limit = try evict_down t ~limit with Exit -> ()

let maybe_evict t = evict_down t ~limit:t.capacity

(* [install] may overwrite a resident page under the same id: the old
   entry leaves the index and its ring first, or its stale slot would
   shadow the new one.  Room is made before the page enters, so a page
   coming in, about to be used, is never its own victim: a lone leaf
   in its ring would otherwise be evicted by its own fault (one sweep
   clears its bit, the second takes it) and faulted in again. *)
let add_entry t page dirty =
  (match Page_id.Tbl.find_opt t.entries (Page.id page) with
  | Some old ->
    Page_id.Tbl.remove t.entries (Page.id page);
    ring_remove (ring_of t old) old
  | None -> ());
  evict_down t ~limit:(t.capacity - 1);
  let entry = { page; dirty; referenced = true; slot = -1 } in
  Page_id.Tbl.replace t.entries (Page.id page) entry;
  ring_add (ring_of t entry) entry;
  entry

let new_page t ~kind ~page_capacity =
  let id = Disk.alloc t.disk in
  let page = Page.create ~id ~kind ~capacity:page_capacity in
  let entry = add_entry t page true in
  entry.page

let install t page =
  (* the id is live again even if a replayed free put it on the free list *)
  Disk.reserve t.disk (Page.id page);
  ignore (add_entry t page true)

let cached t id =
  match Page_id.Tbl.find_opt t.entries id with
  | Some entry ->
    touch t entry;
    Some entry.page
  | None -> None

let lookup t id =
  match cached t id with
  | Some page -> Some page
  | None -> (
    match Disk.read t.disk id with
    | None -> None
    | Some page ->
      let entry = add_entry t page false in
      incr t.c_misses;
      Some entry.page)

(* A hit — every level of nearly every descent — allocates nothing. *)
let get t id =
  match Page_id.Tbl.find t.entries id with
  | entry ->
    touch t entry;
    entry.page
  | exception Not_found -> (
    match lookup t id with Some page -> page | None -> raise Not_found)

let mark_dirty t page =
  match Page_id.Tbl.find_opt t.entries (Page.id page) with
  | Some entry ->
    if entry.page != page then
      invalid_arg "Cache.mark_dirty: stale page object";
    entry.dirty <- true
  | None -> ignore (add_entry t page true)

let is_dirty t id =
  match Page_id.Tbl.find_opt t.entries id with
  | Some entry -> entry.dirty
  | None -> false

let detach t id =
  match Page_id.Tbl.find_opt t.entries id with
  | Some entry ->
    Page_id.Tbl.remove t.entries id;
    ring_remove (ring_of t entry) entry
  | None -> ()

let free_page t id =
  detach t id;
  Disk.free t.disk id

let flush_all t =
  Page_id.Tbl.iter (fun _ entry -> flush_entry t entry) t.entries

let drop_page t id = detach t id

let empty_ring ring =
  ring.slots <- Array.make initial_slots None;
  ring.len <- 0;
  ring.hand <- 0

let crash t =
  Page_id.Tbl.reset t.entries;
  empty_ring t.leaves;
  empty_ring t.inners

let enforce_capacity t = maybe_evict t

let with_operation_latch t f =
  t.latch_depth <- t.latch_depth + 1;
  let finish () =
    t.latch_depth <- t.latch_depth - 1;
    if t.latch_depth = 0 then maybe_evict t
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let resident t = Page_id.Tbl.length t.entries

let dirty_pages t =
  Page_id.Tbl.fold
    (fun id entry acc -> if entry.dirty then id :: acc else acc)
    t.entries []

let iter_cached t f = Page_id.Tbl.iter (fun _ entry -> f entry.page) t.entries

let evictions t = t.evictions

let flush_stalls t = t.flush_stalls
