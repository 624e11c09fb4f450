module Instrument = Untx_util.Instrument
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
  mutable slot : int; (* index in the clock ring; -1 when detached *)
}

type t = {
  disk : Disk.t;
  capacity : int;
  entries : entry Page_id.Tbl.t;
  counters : Instrument.t;
  mutable can_flush : Page.t -> bool;
  mutable prepare_flush : Page.t -> unit;
  (* Victim search is a second-chance clock over a dense ring of the
     resident entries (removal swaps the last slot in), so one eviction
     inspects each resident page at most twice — not the O(pool) fold
     per candidate the old LRU-ticket scan paid. *)
  mutable ring : entry option array;
  mutable ring_len : int;
  mutable hand : int;
  mutable evictions : int;
  mutable flush_stalls : int;
  mutable latch_depth : int; (* operation latches: eviction deferred *)
}

(* The index and the ring start small and grow with the pages resident:
   sizing them by [capacity] would reserve major heap for pages a run
   may never hold. *)
let initial_slots = 16

let create ?(counters = Instrument.global) ~disk ~capacity () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    disk;
    capacity;
    entries = Page_id.Tbl.create initial_slots;
    counters;
    can_flush = (fun _ -> true);
    prepare_flush = ignore;
    ring = Array.make initial_slots None;
    ring_len = 0;
    hand = 0;
    evictions = 0;
    flush_stalls = 0;
    latch_depth = 0;
  }

let set_policy t ~can_flush ~prepare_flush =
  t.can_flush <- can_flush;
  t.prepare_flush <- prepare_flush

let disk t = t.disk

let touch _t entry = entry.referenced <- true

let ring_add t entry =
  if t.ring_len = Array.length t.ring then begin
    let bigger = Array.make (2 * Array.length t.ring) None in
    Array.blit t.ring 0 bigger 0 t.ring_len;
    t.ring <- bigger
  end;
  t.ring.(t.ring_len) <- Some entry;
  entry.slot <- t.ring_len;
  t.ring_len <- t.ring_len + 1

let ring_remove t entry =
  if entry.slot >= 0 then begin
    let last = t.ring_len - 1 in
    (match t.ring.(last) with
    | Some moved when entry.slot <> last ->
      t.ring.(entry.slot) <- Some moved;
      moved.slot <- entry.slot
    | _ -> ());
    t.ring.(last) <- None;
    t.ring_len <- last;
    entry.slot <- -1;
    if t.hand >= t.ring_len then t.hand <- 0
  end

let flush_entry t entry =
  if entry.dirty then begin
    if not (t.can_flush entry.page) then begin
      t.flush_stalls <- t.flush_stalls + 1;
      Instrument.bump t.counters "cache.flush_stalls";
      false
    end
    else begin
      t.prepare_flush entry.page;
      Fault.hit p_flush_before;
      Disk.write t.disk entry.page;
      Fault.hit p_flush_after;
      entry.dirty <- false;
      Instrument.bump t.counters "cache.flushes";
      true
    end
  end
  else true

(* One clock sweep: strip reference bits, skip unflushable dirty pages,
   stop at the first evictable entry.  The budget of two full turns
   guarantees termination when every resident page is pinned down by
   the causality rule (all referenced on turn one, all skipped on turn
   two) — the pool then simply stays over capacity rather than spin or
   violate write-ahead ordering. *)
let rec find_victim t ~scanned ~budget =
  if t.ring_len = 0 || scanned >= budget then None
  else begin
    Instrument.bump t.counters "cache.evict_scan_steps";
    let entry =
      match t.ring.(t.hand) with Some e -> e | None -> assert false
    in
    t.hand <- (t.hand + 1) mod t.ring_len;
    if entry.referenced then begin
      entry.referenced <- false;
      find_victim t ~scanned:(scanned + 1) ~budget
    end
    else if entry.dirty && not (t.can_flush entry.page) then begin
      Instrument.bump t.counters "cache.evict_skips";
      find_victim t ~scanned:(scanned + 1) ~budget
    end
    else Some entry
  end

let maybe_evict t =
  while t.latch_depth = 0 && Page_id.Tbl.length t.entries > t.capacity do
    match find_victim t ~scanned:0 ~budget:(2 * t.ring_len) with
    | None -> raise Exit
    | Some entry ->
      if flush_entry t entry then begin
        Page_id.Tbl.remove t.entries (Page.id entry.page);
        ring_remove t entry;
        t.evictions <- t.evictions + 1;
        Instrument.bump t.counters "cache.evictions"
      end
      else raise Exit
  done

let maybe_evict t = try maybe_evict t with Exit -> ()

let add_entry t page dirty =
  (* [install] may overwrite a resident page under the same id: the old
     entry must leave the ring, or its stale slot would shadow the new
     one. *)
  (match Page_id.Tbl.find_opt t.entries (Page.id page) with
  | Some old -> ring_remove t old
  | None -> ());
  let entry = { page; dirty; referenced = true; slot = -1 } in
  Page_id.Tbl.replace t.entries (Page.id page) entry;
  ring_add t entry;
  maybe_evict t;
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
      Instrument.bump t.counters "cache.misses";
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
    ring_remove t entry
  | None -> ()

let free_page t id =
  detach t id;
  Disk.free t.disk id

let flush_all t =
  Page_id.Tbl.iter (fun _ entry -> ignore (flush_entry t entry)) t.entries

let drop_page t id = detach t id

let crash t =
  Page_id.Tbl.reset t.entries;
  t.ring <- Array.make initial_slots None;
  t.ring_len <- 0;
  t.hand <- 0

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
