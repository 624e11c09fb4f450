(* Lock-manager hardening pass: random acquire/upgrade/release
   interleavings driven through the real strict-2PL state machine.
   After every single step, no two owners may hold incompatible modes on
   the same resource; releases must hand queued requests to real
   holders; and a full release drains the table completely — no stuck
   waiter survives its blockers. *)

module Lock_mgr = Untx_tc.Lock_mgr

let test prop = Helpers.qcheck_test prop

let owners = [ 1; 2; 3; 4 ]

(* A small pool so interleavings actually contend. *)
let resources =
  [
    Lock_mgr.Record { table = "t"; key = "a" };
    Lock_mgr.Record { table = "t"; key = "b" };
    Lock_mgr.Record { table = "u"; key = "a" };
    Lock_mgr.Range { table = "t"; slot = 0 };
    Lock_mgr.Range { table = "t"; slot = 1 };
    Lock_mgr.Table "t";
  ]

type step = Acquire of int * int * Lock_mgr.mode | Release of int | Cancel of int

let step_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun o r m -> Acquire (o, r, (if m then Lock_mgr.X else Lock_mgr.S)))
            (int_range 1 4)
            (int_bound (List.length resources - 1))
            bool );
        (1, map (fun o -> Release o) (int_range 1 4));
        (1, map (fun o -> Cancel o) (int_range 1 4));
      ])

let print_step = function
  | Acquire (o, r, m) ->
    Printf.sprintf "acq o%d r%d %s" o r
      (match m with Lock_mgr.S -> "S" | Lock_mgr.X -> "X")
  | Release o -> Printf.sprintf "rel o%d" o
  | Cancel o -> Printf.sprintf "cancel o%d" o

let steps_arb =
  QCheck.make
    ~print:(fun steps -> String.concat ";" (List.map print_step steps))
    QCheck.Gen.(list_size (int_range 1 60) step_gen)

(* Incompatibility as visible through the public API: an X holder
   excludes every other holder ([holds _ S] is true for an X holder,
   since X covers S). *)
let no_incompatible_pair lm =
  List.for_all
    (fun r ->
      List.for_all
        (fun o1 ->
          (not (Lock_mgr.holds lm ~owner:o1 r Lock_mgr.X))
          || List.for_all
               (fun o2 ->
                 o1 = o2 || not (Lock_mgr.holds lm ~owner:o2 r Lock_mgr.S))
               owners)
        owners)
    resources

(* Replay a step list like a TC would: a blocked owner stalls (it issues
   nothing new until a release grants or cancels its wait). *)
let apply lm step =
  match step with
  | Acquire (o, ri, m) ->
    if not (Lock_mgr.waiting lm ~owner:o) then
      ignore (Lock_mgr.acquire lm ~owner:o (List.nth resources ri) m);
    []
  | Release o -> Lock_mgr.release_all lm ~owner:o
  | Cancel o ->
    Lock_mgr.cancel_waits lm ~owner:o;
    []

let prop_no_incompatible_coholders =
  QCheck.Test.make
    ~name:"interleavings never leave a granted-incompatible pair" ~count:300
    steps_arb (fun steps ->
      let lm = Lock_mgr.create () in
      List.for_all
        (fun step ->
          ignore (apply lm step);
          no_incompatible_pair lm)
        steps)

let prop_granted_on_release_really_hold =
  (* An owner promoted by someone's release must actually hold a lock
     afterwards — a phantom grant would let a transaction proceed
     without the lock protecting it. *)
  QCheck.Test.make ~name:"release promotes waiters into real holders"
    ~count:300 steps_arb (fun steps ->
      let lm = Lock_mgr.create () in
      List.for_all
        (fun step ->
          let promoted = apply lm step in
          List.for_all (fun o -> Lock_mgr.held_count lm ~owner:o > 0) promoted)
        steps)

let prop_full_release_drains =
  (* Releasing every owner (in any fixed order) must leave an empty
     table: every queued request was either granted along the way and
     then released, or discarded with its owner — nothing leaks. *)
  QCheck.Test.make ~name:"releasing every owner drains the table" ~count:300
    steps_arb (fun steps ->
      let lm = Lock_mgr.create () in
      List.iter (fun step -> ignore (apply lm step)) steps;
      List.iter (fun o -> ignore (Lock_mgr.release_all lm ~owner:o)) owners;
      Lock_mgr.live_locks lm = 0
      && List.for_all (fun o -> not (Lock_mgr.waiting lm ~owner:o)) owners
      && List.for_all (fun o -> Lock_mgr.held_count lm ~owner:o = 0) owners)

(* ---- differential: Lock_mgr against the reference model ---- *)

(* Scripts the TC could not issue are fair game here too — acquires by
   a waiting owner, several queued requests per owner — because both
   implementations must decide every step the same way.  [Victim] is
   the TC's deadlock resolution: find the victim, cancel its waits,
   release its locks. *)
type dstep =
  | D_acquire of int * int * Lock_mgr.mode
  | D_release of int
  | D_cancel of int
  | D_victim

let d_owners = [ 1; 2; 3; 4; 5 ]

let d_resources = List.filteri (fun i _ -> i < 4) resources

let dstep_gen =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map3
            (fun o r m -> D_acquire (o, r, (if m then Lock_mgr.X else Lock_mgr.S)))
            (int_range 1 5)
            (int_bound (List.length d_resources - 1))
            bool );
        (2, map (fun o -> D_release o) (int_range 1 5));
        (1, map (fun o -> D_cancel o) (int_range 1 5));
        (2, return D_victim);
      ])

let print_dstep = function
  | D_acquire (o, r, m) ->
    Printf.sprintf "acq o%d r%d %s" o r
      (match m with Lock_mgr.S -> "S" | Lock_mgr.X -> "X")
  | D_release o -> Printf.sprintf "rel o%d" o
  | D_cancel o -> Printf.sprintf "cancel o%d" o
  | D_victim -> "victim"

let dsteps_arb =
  QCheck.make
    ~print:(fun steps -> String.concat ";" (List.map print_dstep steps))
    QCheck.Gen.(list_size (int_range 1 80) dstep_gen)

(* What one step returns: the grant decision, or the woken owners. *)
type outcome = Decided of [ `Granted | `Blocked ] | Woken of int list

let step_new lm = function
  | D_acquire (o, r, m) ->
    Decided (Lock_mgr.acquire lm ~owner:o (List.nth d_resources r) m)
  | D_release o -> Woken (Lock_mgr.release_all lm ~owner:o)
  | D_cancel o ->
    Lock_mgr.cancel_waits lm ~owner:o;
    Woken []
  | D_victim -> (
    match Lock_mgr.find_deadlock lm with
    | None -> Woken []
    | Some v ->
      Lock_mgr.cancel_waits lm ~owner:v;
      Woken (v :: Lock_mgr.release_all lm ~owner:v))

let step_ref lm = function
  | D_acquire (o, r, m) ->
    Decided (Lock_ref.acquire lm ~owner:o (List.nth d_resources r) m)
  | D_release o -> Woken (Lock_ref.release_all lm ~owner:o)
  | D_cancel o ->
    Lock_ref.cancel_waits lm ~owner:o;
    Woken []
  | D_victim -> (
    match Lock_ref.find_deadlock lm with
    | None -> Woken []
    | Some v ->
      Lock_ref.cancel_waits lm ~owner:v;
      Woken (v :: Lock_ref.release_all lm ~owner:v))

let victims_seen = ref 0

(* Everything observable after a step: [holds] for every owner,
   resource and mode, each owner's [held_count] and [waiting], the
   deadlock victim, and the totals. *)
let same_state lm rf =
  let victim = Lock_mgr.find_deadlock lm in
  if victim <> None then incr victims_seen;
  victim = Lock_ref.find_deadlock rf
  && Lock_mgr.total_acquisitions lm = Lock_ref.total_acquisitions rf
  && Lock_mgr.live_locks lm = Lock_ref.live_locks rf
  && List.for_all
       (fun o ->
         Lock_mgr.held_count lm ~owner:o = Lock_ref.held_count rf ~owner:o
         && Lock_mgr.waiting lm ~owner:o = Lock_ref.waiting rf ~owner:o
         && List.for_all
              (fun r ->
                List.for_all
                  (fun m ->
                    Lock_mgr.holds lm ~owner:o r m
                    = Lock_ref.holds rf ~owner:o r m)
                  [ Lock_mgr.S; Lock_mgr.X ])
              d_resources)
       d_owners

let prop_matches_reference =
  QCheck.Test.make ~name:"lock manager decides like the reference model"
    ~count:500 dsteps_arb (fun steps ->
      let lm = Lock_mgr.create () and rf = Lock_ref.create () in
      List.for_all
        (fun step -> step_new lm step = step_ref rf step && same_state lm rf)
        steps)

(* The differential property above only means something if its scripts
   reach deadlocks. *)
let test_scripts_reach_deadlocks () =
  Alcotest.(check bool)
    "the property's scripts produced deadlock victims" true
    (!victims_seen > 100)

let suite =
  [
    test prop_no_incompatible_coholders;
    test prop_granted_on_release_really_hold;
    test prop_full_release_drains;
    test prop_matches_reference;
    Alcotest.test_case "differential scripts reach deadlocks" `Quick
      test_scripts_reach_deadlocks;
  ]
