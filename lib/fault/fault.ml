module Rng = Untx_util.Rng

exception Injected_crash of string

exception Io_error of string

type trigger = Nth of int | Prob of float

type action = Crash | Io_fail

type rule = { point : string; trigger : trigger; action : action }

let crash_at point n = { point; trigger = Nth n; action = Crash }

let crash_with_prob point p = { point; trigger = Prob p; action = Crash }

let io_error_at point n = { point; trigger = Nth n; action = Io_fail }

let io_error_with_prob point p = { point; trigger = Prob p; action = Io_fail }

(* --- registry --------------------------------------------------------- *)

(* The registry is only mutated at module-initialization and arm time;
   [hit] never touches it.  The mutex covers the one multi-domain case:
   several domains creating kernels (and thus declaring WAL points)
   concurrently, as the scaling benchmarks do. *)
let registry : (string, unit) Hashtbl.t = Hashtbl.create 64

let registry_mutex = Mutex.create ()

let declare name =
  Mutex.lock registry_mutex;
  if not (Hashtbl.mem registry name) then Hashtbl.add registry name ();
  Mutex.unlock registry_mutex;
  name

let declared () =
  Mutex.lock registry_mutex;
  let names = Hashtbl.fold (fun n () acc -> n :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort String.compare names

(* --- armed plan ------------------------------------------------------- *)

type armed_rule = { rule : rule; mutable seen : int; mutable spent : bool }

type plan = {
  rules : (string, armed_rule list) Hashtbl.t;
  rng : Rng.t;
  hit_counts : (string, int ref) Hashtbl.t;
  mutable fired : string list; (* newest first *)
}

let state : plan option ref = ref None

(* Fires of the most recently disarmed plan, oldest first. *)
let last_fired : string list ref = ref []

let arm ?(seed = 0) rules =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      ignore (declare r.point);
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl r.point) in
      Hashtbl.replace tbl r.point
        (prev @ [ { rule = r; seen = 0; spent = false } ]))
    rules;
  last_fired := [];
  state :=
    Some
      {
        rules = tbl;
        rng = Rng.create ~seed;
        hit_counts = Hashtbl.create 32;
        fired = [];
      }

let disarm () =
  (match !state with
  | Some plan -> last_fired := List.rev plan.fired
  | None -> ());
  state := None

let fired_points () =
  match !state with
  | Some plan -> List.rev plan.fired
  | None -> !last_fired

let hits name =
  match !state with
  | None -> 0
  | Some plan -> (
      match Hashtbl.find_opt plan.hit_counts name with
      | Some r -> !r
      | None -> 0)

let hit name =
  match !state with
  | None -> ()
  | Some plan -> (
      (match Hashtbl.find_opt plan.hit_counts name with
      | Some r -> incr r
      | None -> Hashtbl.add plan.hit_counts name (ref 1));
      match Hashtbl.find_opt plan.rules name with
      | None -> ()
      | Some rules ->
          List.iter
            (fun ar ->
              if not ar.spent then begin
                ar.seen <- ar.seen + 1;
                let fire =
                  match ar.rule.trigger with
                  | Nth n -> ar.seen = n
                  | Prob p -> Rng.chance plan.rng p
                in
                if fire then begin
                  (match ar.rule.trigger with
                  | Nth _ -> ar.spent <- true
                  | Prob _ -> ());
                  plan.fired <- name :: plan.fired;
                  match ar.rule.action with
                  | Crash -> raise (Injected_crash name)
                  | Io_fail -> raise (Io_error name)
                end
              end)
            rules)

(* --- crash routing ---------------------------------------------------- *)

let component_of_point point =
  if
    String.starts_with ~prefix:"tc." point
    || String.starts_with ~prefix:"wal.tc." point
  then `Tc
  else `Dc
(* dc.*, wal.dc.*, disk.*, repl.*, layer.* and transport points all live
   in the DC process. *)

let route_crash kill point =
  let rec go attempts point =
    try kill (component_of_point point)
    with Injected_crash p when attempts > 0 ->
      (* The plan fired again *during* recovery (e.g. "tc.recover.mid"):
         the freshly restarted component dies too.  Nth rules are
         consumed when they fire, so this terminates. *)
      go (attempts - 1) p
  in
  go 8 point
