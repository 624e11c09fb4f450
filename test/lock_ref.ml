(* The lock manager as it was when every lock entry built its own
   tables: holders and the live queue in per-entry [Hashtbl]s, the FIFO
   in a [Queue], each owner's resources in a [Hashtbl].  Kept verbatim
   as the reference model for the differential property in
   props_lock.ml, which checks that [Lock_mgr] decides every step the
   same way. *)

type mode = Untx_tc.Lock_mgr.mode = S | X

type resource = Untx_tc.Lock_mgr.resource =
  | Record of { table : string; key : string }
  | Range of { table : string; slot : int }
  | Table of string

(* A queued request.  The FIFO holds these nodes; removal just marks
   [w_dead] and the queue compacts lazily at the head — O(1) cancel
   without rebuilding the queue. *)
type waiter = { w_owner : int; w_mode : mode; mutable w_dead : bool }

type entry = {
  holders : (int, mode) Hashtbl.t;
  mutable x_holders : int; (* holders in X mode, for O(1) grant tests *)
  queue : waiter Queue.t; (* FIFO: head is next candidate *)
  queued : (int * mode, waiter) Hashtbl.t; (* the live queue members *)
}

type t = {
  table : (resource, entry) Hashtbl.t;
  owner_locks : (int, (resource, unit) Hashtbl.t) Hashtbl.t;
  owner_waits : (int, (resource, unit) Hashtbl.t) Hashtbl.t;
      (* resources where the owner has a live queued request, so
         cancelling waits never scans the whole lock table *)
  mutable total_acquisitions : int;
}

let create () =
  {
    table = Hashtbl.create 256;
    owner_locks = Hashtbl.create 32;
    owner_waits = Hashtbl.create 32;
    total_acquisitions = 0;
  }

let entry_of t rsrc =
  match Hashtbl.find_opt t.table rsrc with
  | Some e -> e
  | None ->
    let e =
      {
        holders = Hashtbl.create 4;
        x_holders = 0;
        queue = Queue.create ();
        queued = Hashtbl.create 4;
      }
    in
    Hashtbl.add t.table rsrc e;
    e

let index_cell index owner =
  match Hashtbl.find_opt index owner with
  | Some c -> c
  | None ->
    let c = Hashtbl.create 8 in
    Hashtbl.add index owner c;
    c

let mode_covers held wanted =
  match (held, wanted) with X, _ -> true | S, S -> true | S, X -> false

let compatible m1 m2 = match (m1, m2) with S, S -> true | _ -> false

(* ---- holder bookkeeping ---- *)

let set_holder e owner mode =
  (match Hashtbl.find_opt e.holders owner with
  | Some X -> e.x_holders <- e.x_holders - 1
  | _ -> ());
  Hashtbl.replace e.holders owner mode;
  if mode = X then e.x_holders <- e.x_holders + 1

let remove_holder e owner =
  match Hashtbl.find_opt e.holders owner with
  | Some held ->
    if held = X then e.x_holders <- e.x_holders - 1;
    Hashtbl.remove e.holders owner
  | None -> ()

(* Can [owner] be granted [mode] on [e] right now?  Re-entrant holders
   and the sole-holder upgrade are allowed; everyone else must be
   compatible. *)
let grantable e owner mode =
  match mode with
  | X -> Hashtbl.length e.holders - (if Hashtbl.mem e.holders owner then 1 else 0) = 0
  | S ->
    e.x_holders
    - (match Hashtbl.find_opt e.holders owner with Some X -> 1 | _ -> 0)
    = 0

let note_granted t owner rsrc =
  t.total_acquisitions <- t.total_acquisitions + 1;
  Hashtbl.replace (index_cell t.owner_locks owner) rsrc ()

(* ---- waiter bookkeeping ---- *)

let live_waiters e =
  Queue.fold
    (fun acc w -> if w.w_dead then acc else (w.w_owner, w.w_mode) :: acc)
    [] e.queue
  |> List.rev

let rec live_head e =
  match Queue.peek_opt e.queue with
  | Some w when w.w_dead ->
    ignore (Queue.pop e.queue);
    live_head e
  | other -> other

let drop_wait_index t owner rsrc e =
  if
    (not (Hashtbl.mem e.queued (owner, S)))
    && not (Hashtbl.mem e.queued (owner, X))
  then
    match Hashtbl.find_opt t.owner_waits owner with
    | Some c ->
      Hashtbl.remove c rsrc;
      if Hashtbl.length c = 0 then Hashtbl.remove t.owner_waits owner
    | None -> ()

let kill_wait t e rsrc owner mode =
  match Hashtbl.find_opt e.queued (owner, mode) with
  | Some w ->
    w.w_dead <- true;
    Hashtbl.remove e.queued (owner, mode);
    drop_wait_index t owner rsrc e
  | None -> ()

let entry_gc t rsrc e =
  if Hashtbl.length e.holders = 0 && Hashtbl.length e.queued = 0 then
    Hashtbl.remove t.table rsrc

let acquire t ~owner rsrc mode =
  let e = entry_of t rsrc in
  match Hashtbl.find_opt e.holders owner with
  | Some held when mode_covers held mode -> `Granted
  | current -> (
    (* Fairness: a newcomer must not overtake queued waiters — except an
       upgrade request (current = Some S), which jumps the queue as in
       most real lock managers to avoid self-blocking behind strangers.
       A retry by the waiter at the *head* of the queue is granted when
       compatible: holders can change between its enqueue and its retry,
       and release-time promotion cannot fire if nobody releases. *)
    let at_head =
      match live_head e with Some w -> w.w_owner = owner | None -> false
    in
    let must_queue =
      (not (grantable e owner mode))
      || (current = None && Hashtbl.length e.queued > 0 && not at_head)
    in
    if not must_queue then begin
      (* Retire only the owner's queued requests the granted mode
         covers: granting S must leave a queued X upgrade in place, or
         the waiting upgrade (and its waits-for edges) silently
         vanishes and both transactions sleep forever. *)
      kill_wait t e rsrc owner S;
      if mode = X then kill_wait t e rsrc owner X;
      set_holder e owner mode;
      note_granted t owner rsrc;
      `Granted
    end
    else begin
      if not (Hashtbl.mem e.queued (owner, mode)) then begin
        let w = { w_owner = owner; w_mode = mode; w_dead = false } in
        Queue.add w e.queue;
        Hashtbl.replace e.queued (owner, mode) w;
        Hashtbl.replace (index_cell t.owner_waits owner) rsrc ()
      end;
      `Blocked
    end)

let holds t ~owner rsrc mode =
  match Hashtbl.find_opt t.table rsrc with
  | None -> false
  | Some e -> (
    match Hashtbl.find_opt e.holders owner with
    | Some held -> mode_covers held mode
    | None -> false)

(* Promote waiters at the head of the queue while they are grantable. *)
let promote t rsrc e granted =
  let rec go granted =
    match live_head e with
    | None -> granted
    | Some w ->
      if grantable e w.w_owner w.w_mode then begin
        ignore (Queue.pop e.queue);
        Hashtbl.remove e.queued (w.w_owner, w.w_mode);
        drop_wait_index t w.w_owner rsrc e;
        set_holder e w.w_owner w.w_mode;
        note_granted t w.w_owner rsrc;
        go (w.w_owner :: granted)
      end
      else granted
  in
  go granted

(* Kill every queued request of [owner], touching only the entries the
   wait index names — not the whole lock table. *)
let kill_all_waits t ~owner =
  match Hashtbl.find_opt t.owner_waits owner with
  | None -> ()
  | Some cell ->
    let resources = Hashtbl.fold (fun rsrc () acc -> rsrc :: acc) cell [] in
    List.iter
      (fun rsrc ->
        match Hashtbl.find_opt t.table rsrc with
        | None -> ()
        | Some e ->
          kill_wait t e rsrc owner S;
          kill_wait t e rsrc owner X;
          entry_gc t rsrc e)
      resources;
    Hashtbl.remove t.owner_waits owner

let release_all t ~owner =
  kill_all_waits t ~owner;
  let resources =
    match Hashtbl.find_opt t.owner_locks owner with
    | Some c -> Hashtbl.fold (fun rsrc () acc -> rsrc :: acc) c []
    | None -> []
  in
  Hashtbl.remove t.owner_locks owner;
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
      [] resources
  in
  List.sort_uniq Int.compare granted

let cancel_waits t ~owner = kill_all_waits t ~owner

let waiting t ~owner = Hashtbl.mem t.owner_waits owner

(* Waits-for edges.  A queued request waits for every current holder it
   is incompatible with, and — because the queue is FIFO — for every
   earlier waiter it is incompatible with.  Compatible-holder edges are
   also added when the waiter sits behind someone (it cannot be granted
   past the queue), which is conservative but keeps detection complete. *)
let find_deadlock t =
  let edges = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ e ->
      let holders = Hashtbl.fold (fun h hm acc -> (h, hm) :: acc) e.holders [] in
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
      waiters_loop [] (live_waiters e))
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
  match Hashtbl.find_opt t.owner_locks owner with
  | Some c -> Hashtbl.length c
  | None -> 0

let total_acquisitions t = t.total_acquisitions

let live_locks t =
  Hashtbl.fold (fun _ e acc -> acc + Hashtbl.length e.holders) t.table 0
