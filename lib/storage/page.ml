type kind = Leaf | Inner

let slot_overhead = 16

type t = {
  id : Page_id.t;
  kind : kind;
  capacity : int;
  mutable cells : (string * string) array; (* sorted by key *)
  mutable used : int;
  mutable next : Page_id.t option;
  mutable meta : string;
}

let create ~id ~kind ~capacity =
  if capacity <= 0 then invalid_arg "Page.create: capacity must be positive";
  { id; kind; capacity; cells = [||]; used = 0; next = None; meta = "" }

let id t = t.id

let kind t = t.kind

let capacity t = t.capacity

let cell_count t = Array.length t.cells

let used_bytes t = t.used

let cell_size ~key ~data = String.length key + String.length data + slot_overhead

(* Binary search over [cells.(lo .. hi-1)]: the index of [key] if
   present, else [-(insertion_point + 1)].  A top-level loop returning
   an int, so a lookup allocates nothing. *)
let rec search_in cells key lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) / 2 in
    let k, _ = Array.unsafe_get cells mid in
    let c = String.compare key k in
    if c = 0 then mid
    else if c < 0 then search_in cells key lo mid
    else search_in cells key (mid + 1) hi

let search t key = search_in t.cells key 0 (Array.length t.cells)

let find t key =
  let i = search t key in
  if i >= 0 then
    let _, data = t.cells.(i) in
    Some data
  else None

let mem t key = search t key >= 0

let find_le t key =
  let i = search t key in
  if i >= 0 then i else -i - 2

let would_overflow t ~key ~data =
  let i = search t key in
  let delta =
    if i >= 0 then
      let _, old = t.cells.(i) in
      String.length data - String.length old
    else cell_size ~key ~data
  in
  t.used + delta > t.capacity

let insert_at t i cell size_delta =
  let n = Array.length t.cells in
  let cells = Array.make (n + 1) cell in
  Array.blit t.cells 0 cells 0 i;
  Array.blit t.cells i cells (i + 1) (n - i);
  t.cells <- cells;
  t.used <- t.used + size_delta

let set t ~key ~data =
  let i = search t key in
  if i >= 0 then begin
    let _, old = t.cells.(i) in
    t.cells.(i) <- (key, data);
    t.used <- t.used + String.length data - String.length old
  end
  else insert_at t (-i - 1) (key, data) (cell_size ~key ~data)

let remove t key =
  let i = search t key in
  if i < 0 then false
  else
    let k, d = t.cells.(i) in
    let n = Array.length t.cells in
    let cells = Array.make (n - 1) ("", "") in
    Array.blit t.cells 0 cells 0 i;
    Array.blit t.cells (i + 1) cells i (n - 1 - i);
    t.cells <- cells;
    t.used <- t.used - cell_size ~key:k ~data:d;
    true

let min_key t =
  if Array.length t.cells = 0 then None
  else
    let k, _ = t.cells.(0) in
    Some k

let max_key t =
  let n = Array.length t.cells in
  if n = 0 then None
  else
    let k, _ = t.cells.(n - 1) in
    Some k

let cells t = Array.to_list t.cells

let iter_from t key f =
  let i = search t key in
  let start = if i >= 0 then i else -i - 1 in
  let n = Array.length t.cells in
  let rec go i =
    if i < n then
      let k, d = t.cells.(i) in
      match f k d with `Continue -> go (i + 1) | `Stop -> ()
  in
  go start

let nth t i =
  if i < 0 || i >= Array.length t.cells then invalid_arg "Page.nth";
  t.cells.(i)

(* The cut is chosen over the page's cells plus [incoming], the cell
   whose write overflowed the page, at its place: a new key adds a
   cell, a present one resizes its cell.  Each cut [r] keeping cells
   [0 .. r-1] (at least one page cell on each side) is scored by how
   far its left side lies from half the bytes; a new key sorting right
   at the cut may fall on either side of it, so both are scored.  Cell
   sizes are positive, so two candidates never leave the same bytes on
   the left: the score [2|d|], plus one when the left is the lighter
   side, orders them strictly and breaks a balance tie toward the
   heavier left, so a right-edge append leaves the old page the larger
   half. *)
let split_upper ?incoming t =
  let n = Array.length t.cells in
  if n < 2 then invalid_arg "Page.split_upper: needs at least two cells";
  (* [at]: the incoming cell's index among the page's cells (its
     insertion point when [fresh]); [extra]: the bytes it adds. *)
  let at, fresh, extra =
    match incoming with
    | None -> (n, false, 0)
    | Some (key, data) ->
      let i = search t key in
      if i >= 0 then
        let _, old = t.cells.(i) in
        (i, false, String.length data - String.length old)
      else (-i - 1, true, cell_size ~key ~data)
  in
  let total = t.used + extra in
  let score left =
    let d = (2 * left) - total in
    if d >= 0 then 2 * d else 1 - (2 * d)
  in
  let cut = ref 1 and incoming_left = ref false and best = ref max_int in
  let consider r left on_left =
    let s = score left in
    if s < !best then begin
      best := s;
      cut := r;
      incoming_left := on_left
    end
  in
  let left = ref 0 in
  for r = 1 to n - 1 do
    let k, d = t.cells.(r - 1) in
    left := !left + cell_size ~key:k ~data:d + if at = r - 1 then extra else 0;
    consider r !left false;
    if fresh && at = r then consider r (!left + extra) true
  done;
  let cut = !cut in
  let moved = Array.sub t.cells cut (n - cut) in
  let split_key =
    match incoming with
    | Some (key, _) when fresh && at = cut && not !incoming_left -> key
    | _ -> fst moved.(0)
  in
  let moved_bytes =
    Array.fold_left
      (fun acc (k, d) -> acc + cell_size ~key:k ~data:d)
      0 moved
  in
  t.cells <- Array.sub t.cells 0 cut;
  t.used <- t.used - moved_bytes;
  (split_key, Array.to_list moved)

let absorb t cells = List.iter (fun (key, data) -> set t ~key ~data) cells

let next t = t.next

let set_next t next = t.next <- next

let meta t = t.meta

let set_meta t meta = t.meta <- meta

let meta_size t = String.length t.meta

let copy t = { t with cells = Array.copy t.cells }

let replace_cells t cells =
  t.cells <- [||];
  t.used <- 0;
  absorb t cells
