type mode = S | X

type resource =
  | Record of { table : string; key : string }
  | Range of { table : string; slot : int }
  | Table of string

let pp_resource ppf = function
  | Record { table; key } -> Format.fprintf ppf "rec:%s[%s]" table key
  | Range { table; slot } -> Format.fprintf ppf "range:%s/%d" table slot
  | Table table -> Format.fprintf ppf "table:%s" table

(* One resource's lock state, held inline: a lock is contended by a
   handful of owners at most, so short lists beat per-entry tables,
   which a fresh entry would build only to drop them at release.
   Holders are kept oldest first (an upgrade changes the mode in
   place); waiters are the live FIFO, head first. *)
type holder = { h_owner : int; mutable h_mode : mode }

type waiter = { w_owner : int; w_mode : mode }

type entry = {
  mutable holders : holder list;
  mutable x_holders : int; (* holders in X mode, for O(1) grant tests *)
  mutable waiters : waiter list;
}

(* What an owner holds, and where it has a live queued request — so
   releasing or cancelling never scans the whole lock table. *)
type owner = { mutable held : resource list; mutable waits : resource list }

type t = {
  table : (resource, entry) Hashtbl.t;
  owners : (int, owner) Hashtbl.t;
  mutable total_acquisitions : int;
}

let create () =
  { table = Hashtbl.create 256; owners = Hashtbl.create 32;
    total_acquisitions = 0 }

let entry_of t rsrc =
  match Hashtbl.find_opt t.table rsrc with
  | Some e -> e
  | None ->
    let e = { holders = []; x_holders = 0; waiters = [] } in
    Hashtbl.add t.table rsrc e;
    e

let owner_of t owner =
  match Hashtbl.find_opt t.owners owner with
  | Some o -> o
  | None ->
    let o = { held = []; waits = [] } in
    Hashtbl.add t.owners owner o;
    o

let mode_covers held wanted =
  match (held, wanted) with X, _ -> true | S, S -> true | S, X -> false

let compatible m1 m2 = match (m1, m2) with S, S -> true | _ -> false

(* ---- holder bookkeeping ---- *)

let rec holder_in owner = function
  | [] -> None
  | h :: rest -> if h.h_owner = owner then Some h else holder_in owner rest

let holder e owner = holder_in owner e.holders

(* Grant [mode] to [owner]; whether it is a new holder (not an
   upgrade). *)
let set_holder e owner mode =
  let fresh =
    match holder e owner with
    | Some h ->
      if h.h_mode = X then e.x_holders <- e.x_holders - 1;
      h.h_mode <- mode;
      false
    | None ->
      e.holders <- e.holders @ [ { h_owner = owner; h_mode = mode } ];
      true
  in
  if mode = X then e.x_holders <- e.x_holders + 1;
  fresh

let remove_holder e owner =
  match holder e owner with
  | Some h ->
    if h.h_mode = X then e.x_holders <- e.x_holders - 1;
    e.holders <- List.filter (fun h -> h.h_owner <> owner) e.holders
  | None -> ()

(* Can [owner] be granted [mode] on [e] right now?  Re-entrant holders
   and the sole-holder upgrade are allowed; everyone else must be
   compatible. *)
let grantable e owner mode =
  match mode with
  | X -> (
    match e.holders with [] -> true | [ h ] -> h.h_owner = owner | _ -> false)
  | S ->
    e.x_holders = 0
    || e.x_holders = 1
       && match holder e owner with Some { h_mode = X; _ } -> true | _ -> false

let grant t e rsrc owner mode =
  t.total_acquisitions <- t.total_acquisitions + 1;
  if set_holder e owner mode then begin
    let o = owner_of t owner in
    o.held <- rsrc :: o.held
  end

(* ---- waiter bookkeeping ---- *)

let is_waiter owner mode w = w.w_owner = owner && w.w_mode = mode

let queued e owner mode = List.exists (is_waiter owner mode) e.waiters

let drop_wait_index t owner rsrc e =
  if not (List.exists (fun w -> w.w_owner = owner) e.waiters) then
    match Hashtbl.find_opt t.owners owner with
    | Some o -> o.waits <- List.filter (fun r -> r <> rsrc) o.waits
    | None -> ()

let kill_wait t e rsrc owner mode =
  if queued e owner mode then begin
    e.waiters <- List.filter (fun w -> not (is_waiter owner mode w)) e.waiters;
    drop_wait_index t owner rsrc e
  end

let entry_gc t rsrc e =
  if e.holders = [] && e.waiters = [] then Hashtbl.remove t.table rsrc

let acquire t ~owner rsrc mode =
  let e = entry_of t rsrc in
  let current = holder e owner in
  match current with
  | Some h when mode_covers h.h_mode mode -> `Granted
  | _ ->
    (* Fairness: a newcomer must not overtake queued waiters — except an
       upgrade request (current = Some S), which jumps the queue as in
       most real lock managers to avoid self-blocking behind strangers.
       A retry by the waiter at the *head* of the queue is granted when
       compatible: holders can change between its enqueue and its retry,
       and release-time promotion cannot fire if nobody releases. *)
    let at_head =
      match e.waiters with w :: _ -> w.w_owner = owner | [] -> false
    in
    let must_queue =
      (not (grantable e owner mode))
      || (Option.is_none current && e.waiters <> [] && not at_head)
    in
    if not must_queue then begin
      (* Retire only the owner's queued requests the granted mode
         covers: granting S must leave a queued X upgrade in place, or
         the waiting upgrade (and its waits-for edges) silently
         vanishes and both transactions sleep forever. *)
      kill_wait t e rsrc owner S;
      if mode = X then kill_wait t e rsrc owner X;
      grant t e rsrc owner mode;
      `Granted
    end
    else begin
      if not (queued e owner mode) then begin
        e.waiters <- e.waiters @ [ { w_owner = owner; w_mode = mode } ];
        let o = owner_of t owner in
        if not (List.mem rsrc o.waits) then o.waits <- rsrc :: o.waits
      end;
      `Blocked
    end

let holds t ~owner rsrc mode =
  match Hashtbl.find_opt t.table rsrc with
  | None -> false
  | Some e -> (
    match holder e owner with
    | Some h -> mode_covers h.h_mode mode
    | None -> false)

(* Promote waiters at the head of the queue while they are grantable. *)
let rec promote t rsrc e granted =
  match e.waiters with
  | w :: rest when grantable e w.w_owner w.w_mode ->
    e.waiters <- rest;
    drop_wait_index t w.w_owner rsrc e;
    grant t e rsrc w.w_owner w.w_mode;
    promote t rsrc e (w.w_owner :: granted)
  | _ -> granted

(* Kill every queued request of [owner], touching only the entries its
   wait index names — not the whole lock table. *)
let kill_all_waits t o ~owner =
  let resources = o.waits in
  o.waits <- [];
  List.iter
    (fun rsrc ->
      match Hashtbl.find_opt t.table rsrc with
      | None -> ()
      | Some e ->
        kill_wait t e rsrc owner S;
        kill_wait t e rsrc owner X;
        entry_gc t rsrc e)
    resources

let release_all t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> []
  | Some o ->
    kill_all_waits t o ~owner;
    Hashtbl.remove t.owners owner;
    let granted =
      List.fold_left
        (fun granted rsrc ->
          match Hashtbl.find_opt t.table rsrc with
          | None -> granted
          | Some e ->
            remove_holder e owner;
            let granted = promote t rsrc e granted in
            entry_gc t rsrc e;
            granted)
        [] o.held
    in
    List.sort_uniq Int.compare granted

let cancel_waits t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | None -> ()
  | Some o ->
    kill_all_waits t o ~owner;
    if o.held = [] then Hashtbl.remove t.owners owner

let waiting t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | Some o -> o.waits <> []
  | None -> false

(* An entry's holders in the order its former per-entry [Hashtbl]
   listed them — by bucket of the owner id, highest first, then oldest
   first (exact up to 32 holders, as many as that table held without
   growing) — so the waits-for edges, and with them the deadlock victim,
   come out exactly as before. *)
let holders_in_table_order e =
  let bucket h = Hashtbl.hash h.h_owner land 15 in
  List.stable_sort (fun a b -> Int.compare (bucket b) (bucket a)) e.holders
  |> List.map (fun h -> (h.h_owner, h.h_mode))

(* Waits-for edges.  A queued request waits for every current holder it
   is incompatible with, and — because the queue is FIFO — for every
   earlier waiter it is incompatible with.  Compatible-holder edges are
   also added when the waiter sits behind someone (it cannot be granted
   past the queue), which is conservative but keeps detection complete. *)
let find_deadlock t =
  let edges = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ e ->
      let holders = holders_in_table_order e in
      let rec waiters_loop earlier = function
        | [] -> ()
        | (w, wm) :: rest ->
          let queued_behind = earlier <> [] in
          List.iter
            (fun (h, hm) ->
              if h <> w && ((not (compatible hm wm)) || queued_behind) then
                Hashtbl.add edges w h)
            holders;
          List.iter
            (fun (pw, pwm) ->
              if pw <> w && not (compatible pwm wm) then Hashtbl.add edges w pw)
            earlier;
          waiters_loop ((w, wm) :: earlier) rest
      in
      waiters_loop [] (List.map (fun w -> (w.w_owner, w.w_mode)) e.waiters))
    t.table;
  let color = Hashtbl.create 32 in
  let cycle_members = ref [] in
  let rec dfs stack node =
    match Hashtbl.find_opt color node with
    | Some `Done -> ()
    | Some `Active ->
      (* [node] closes a cycle: the stack head is this re-visit of
         [node]; members are everything up to its previous occurrence. *)
      let rec collect acc = function
        | [] -> acc
        | n :: rest -> if n = node then acc else collect (n :: acc) rest
      in
      cycle_members :=
        node :: (match stack with [] -> [] | _ :: rest -> collect [] rest)
    | None ->
      Hashtbl.replace color node `Active;
      List.iter
        (fun succ -> if !cycle_members = [] then dfs (succ :: stack) succ)
        (Hashtbl.find_all edges node);
      if Hashtbl.find_opt color node = Some `Active then
        Hashtbl.replace color node `Done
  in
  Hashtbl.iter
    (fun w _ -> if !cycle_members = [] then dfs [ w ] w)
    edges;
  match !cycle_members with
  | [] -> None
  | members -> Some (List.fold_left Stdlib.max Int.min_int members)

let held_count t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | Some o -> List.length o.held
  | None -> 0

let total_acquisitions t = t.total_acquisitions

let live_locks t =
  Hashtbl.fold (fun _ e acc -> acc + List.length e.holders) t.table 0

let dump t =
  let buf = Buffer.create 256 in
  Hashtbl.iter
    (fun rsrc e ->
      if e.holders <> [] || e.waiters <> [] then begin
        Buffer.add_string buf (Format.asprintf "%a:" pp_resource rsrc);
        List.iter
          (fun (h, m) ->
            Buffer.add_string buf
              (Printf.sprintf " h%d%s" h (match m with S -> "S" | X -> "X")))
          (List.rev (holders_in_table_order e));
        List.iter
          (fun w ->
            Buffer.add_string buf
              (Printf.sprintf " w%d%s" w.w_owner
                 (match w.w_mode with S -> "S" | X -> "X")))
          e.waiters;
        Buffer.add_char buf '\n'
      end)
    t.table;
  Buffer.contents buf
