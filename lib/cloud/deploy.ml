module Instrument = Untx_util.Instrument
module Lsn = Untx_util.Lsn
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Repl = Untx_repl.Repl
module Op = Untx_msg.Op
module Layer = Untx_layer.Layer
module Index = Untx_index.Index
module Branch = Untx_branch.Branch
module Tc_id = Untx_util.Tc_id

type scheme = Hash | Range of string list

(* The internal placement algebra: user-visible schemes, plus the
   secondary-hash placement index-entry tables need — hash the decoded
   secondary-key component, so every entry for one secondary key lands
   on one partition and a lookup's prefix scan never crosses DCs. *)
type pscheme = User of scheme | Hash_sec

type ptable = {
  pt_versioned : bool;
  pt_dcs : string array; (* partition id -> DC name *)
  pt_scheme : pscheme;
}

type standby_entry = { sb_standby : Repl.Standby.t; sb_primary : string }

type branch_entry = {
  be_branch : Branch.t;
  be_parent : string option;
      (* the parent branch's name; [None] for a branch forked straight
         off a root TC's layer store *)
  be_tc : string; (* the root TC whose (combined) LSN space it addresses *)
}

type t = {
  counters : Instrument.t;
  policy : Transport.policy;
  durability : Repl.durability;
  layers : bool;
      (* every TC's manager runs a layered log store: truncation floors
         at the store's durable watermark, failover can redo from
         layers, standbys bootstrap from materialized state *)
  mutable seed : int;
  dcs : (string, Dc.t) Hashtbl.t;
  tcs : (string, Tc.t) Hashtbl.t;
  transports : (string * string, Transport.t) Hashtbl.t; (* (tc, dc) *)
  ptables : (string, ptable) Hashtbl.t; (* partitioned table registry *)
  dc_configs : (string, Dc.config) Hashtbl.t;
      (* for minting standbys that match their primary *)
  dc_tables : (string, (string * bool) list ref) Hashtbl.t;
      (* tables created per DC, replayed onto new standbys *)
  standbys : (string, standby_entry) Hashtbl.t; (* keyed by standby name *)
  managers : (string, Repl.Manager.t) Hashtbl.t; (* keyed by TC name *)
  repl_transports : (string * string, Transport.t) Hashtbl.t;
      (* (tc, standby): repl-only links *)
  branches : (string, branch_entry) Hashtbl.t; (* keyed by branch name *)
  mutable next_part : int; (* partition ids handed out by add_dc *)
  mutable last_faulted : string option;
      (* the DC whose handler last raised — the component a mid-traffic
         Injected_crash actually belongs to *)
}

let create ?(counters = Instrument.global) ?(policy = Transport.reliable)
    ?(durability = Repl.Primary_only) ?(layers = false) ?(seed = 42) () =
  {
    counters;
    policy;
    durability;
    layers;
    seed;
    dcs = Hashtbl.create 4;
    tcs = Hashtbl.create 4;
    transports = Hashtbl.create 8;
    ptables = Hashtbl.create 4;
    dc_configs = Hashtbl.create 4;
    dc_tables = Hashtbl.create 4;
    standbys = Hashtbl.create 4;
    managers = Hashtbl.create 4;
    repl_transports = Hashtbl.create 8;
    branches = Hashtbl.create 4;
    next_part = 0;
    last_faulted = None;
  }

let fresh_seed t =
  t.seed <- t.seed + 7919;
  t.seed

(* ------------------------------------------------------------------ *)
(* Partition map                                                       *)

(* FNV-1a over the key, masked positive: a stable hash — the map must
   route identically across TC restarts, or redo would ship records to
   the wrong partition. *)
let hash_key key =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    key;
  !h

let partition_index pt key =
  let n = Array.length pt.pt_dcs in
  match pt.pt_scheme with
  | User Hash -> hash_key key mod n
  | User (Range splits) ->
    (* splits.(i) is the first key of partition i+1 *)
    let rec go i = function
      | [] -> i
      | s :: rest -> if String.compare key s < 0 then i else go (i + 1) rest
    in
    go 0 splits
  | Hash_sec -> hash_key (Index.sec_of_entry key) mod n

let partition_dc t ~table ~key =
  match Hashtbl.find_opt t.ptables table with
  | Some pt -> pt.pt_dcs.(partition_index pt key)
  | None -> invalid_arg ("Deploy.partition_dc: not partitioned: " ^ table)

let partitions t ~table =
  match Hashtbl.find_opt t.ptables table with
  | Some pt -> Array.to_list pt.pt_dcs
  | None -> invalid_arg ("Deploy.partitions: not partitioned: " ^ table)

let install_ptable_route _t tc name pt =
  Tc.map_table_partitioned tc ~table:name ~versioned:pt.pt_versioned
    ~partition:(fun key -> pt.pt_dcs.(partition_index pt key))

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)

let link t ~tc_name ~dc_name =
  if not (Hashtbl.mem t.transports (tc_name, dc_name)) then begin
    let dc = Hashtbl.find t.dcs dc_name in
    let tc = Hashtbl.find t.tcs tc_name in
    (* Each (TC, DC) pair gets its own two-channel byte plane; control
       traffic rides the same adversary as data.  Handlers are wrapped
       so an injected fault escaping the DC is attributed to it — a
       deployment must crash the component that actually died, not
       whichever DC a plan happened to name.  The link declares its
       owning TC to the DC: a frame stamped with another TC's id is a
       wiring bug and is rejected there instead of applied under the
       wrong idempotence state. *)
    let attribute f frame =
      try f frame
      with e ->
        t.last_faulted <- Some dc_name;
        raise e
    in
    let expect = Tc.id tc in
    let transport =
      Transport.create ~counters:t.counters ~policy:t.policy
        ~label:(tc_name ^ ":" ^ dc_name) ~seed:(fresh_seed t)
        ~data:(attribute (Dc.handle_request_frame ~expect dc))
        ~control:(attribute (Dc.handle_control_frame ~expect dc))
        ()
    in
    Hashtbl.add t.transports (tc_name, dc_name) transport;
    Tc.attach_dc tc
      {
        Tc.dc_name;
        part = Dc.part dc;
        send = Transport.send transport;
        send_control = Transport.send_control transport;
        drain = (fun () -> Transport.drain transport);
      }
  end

exception Out_of_range of { wanted : Lsn.t; durable : Lsn.t }

let () =
  Printexc.register_printer (function
    | Out_of_range { wanted; durable } ->
      Some
        (Printf.sprintf "Deploy.Out_of_range { wanted = %s; durable = %s }"
           (Lsn.to_string wanted) (Lsn.to_string durable))
    | _ -> None)

(* Point-in-time reads are answered by the layered managers (looked up
   at call time — managers may not exist yet when the DC is wired).
   Stores are per-TC, and LSNs are per-TC sequences, so [at] is only
   meaningful against the store of the key's updating TC.  Deployments
   keep updaters on disjoint key sets (Section 6): every store is
   probed, and the one that knows the key answers.  Two stores both
   holding history for one key means the disjointness rule was broken —
   refused loudly, because "the" value at [at] is then ill-defined.
   An [at] no store has absorbed is a typed {!Out_of_range}, never a
   silent [None]: absent-at-[at] and unanswerable-at-[at] must not be
   confusable. *)
let wire_history_read t ~dc_name =
  let dc = Hashtbl.find t.dcs dc_name in
  Dc.set_history_read dc (fun ~table ~key ~at ->
      let stores =
        Hashtbl.fold
          (fun tc_name m acc ->
            match Repl.Manager.layer_store m with
            | Some s -> (tc_name, s) :: acc
            | None -> acc)
          t.managers []
      in
      if stores = [] then
        invalid_arg "Deploy.read_as_of: no layered manager yet";
      let answerable =
        List.filter (fun (_, s) -> Lsn.(at <= Layer.ingested_lsn s)) stores
      in
      if answerable = [] then
        raise
          (Out_of_range
             {
               wanted = at;
               durable =
                 List.fold_left
                   (fun acc (_, s) -> Lsn.max acc (Layer.ingested_lsn s))
                   Lsn.zero stores;
             });
      let hits =
        List.filter_map
          (fun (tc_name, store) ->
            Option.map
              (fun v -> (tc_name, v))
              (Layer.reconstruct store ~table ~key ~at))
          (List.sort (fun (a, _) (b, _) -> String.compare a b) answerable)
      in
      match hits with
      | [] -> None
      | [ (_, v) ] -> Some v
      | claimants ->
        invalid_arg
          (Printf.sprintf
             "Deploy.read_as_of: key %S has history under several TCs (%s) — \
              updaters must stay disjoint"
             key
             (String.concat ", " (List.map fst claimants))))

let add_dc t ~name config =
  if Hashtbl.mem t.dcs name then invalid_arg ("Deploy.add_dc: dup " ^ name);
  let dc = Dc.create ~counters:t.counters config in
  Dc.set_identity dc ~part:t.next_part;
  t.next_part <- t.next_part + 1;
  Hashtbl.add t.dcs name dc;
  Hashtbl.add t.dc_configs name config;
  if t.layers then wire_history_read t ~dc_name:name;
  Hashtbl.iter (fun tc_name _ -> link t ~tc_name ~dc_name:name) t.tcs;
  dc

(* ------------------------------------------------------------------ *)
(* Replication wiring                                                  *)

let manager_for t tc_name =
  match Hashtbl.find_opt t.managers tc_name with
  | Some m -> m
  | None ->
    let m =
      Repl.Manager.create ~counters:t.counters
        ~cfg:{ Repl.Manager.default_config with durability = t.durability }
        (Hashtbl.find t.tcs tc_name)
    in
    if t.layers then Repl.Manager.enable_layers m;
    Hashtbl.add t.managers tc_name m;
    m

(* A replica link is its own transport carrying only repl traffic; the
   attribute wrapper matters here too — a DC fault point can fire inside
   the standby's apply, and the component that died is the standby, not
   any primary a plan happened to name. *)
let attach_replica t ~tc_name ~sb_name =
  if not (Hashtbl.mem t.repl_transports (tc_name, sb_name)) then begin
    let e = Hashtbl.find t.standbys sb_name in
    let attribute f frame =
      try f frame
      with ex ->
        t.last_faulted <- Some sb_name;
        raise ex
    in
    let expect = Tc.id (Hashtbl.find t.tcs tc_name) in
    let tr =
      Transport.create ~counters:t.counters ~policy:t.policy
        ~label:(tc_name ^ ":" ^ sb_name) ~seed:(fresh_seed t)
        ~data:(fun _ -> None)
        ~control:(fun _ -> None)
        ~repl:
          (attribute (Repl.Standby.handle_repl_frame ~expect e.sb_standby))
        ()
    in
    Hashtbl.add t.repl_transports (tc_name, sb_name) tr;
    Repl.Manager.attach (manager_for t tc_name) ~name:sb_name
      ~primary:e.sb_primary ~standby:e.sb_standby
      ~send:(Transport.send_repl tr)
      ~drain:(fun () -> Transport.drain_repl tr)
  end

let replicas t ~dc =
  Hashtbl.fold
    (fun name e acc -> if String.equal e.sb_primary dc then name :: acc else acc)
    t.standbys []
  |> List.sort String.compare

let add_replica t ~dc:primary =
  let dc_obj =
    match Hashtbl.find_opt t.dcs primary with
    | Some d -> d
    | None -> invalid_arg ("Deploy.add_replica: unknown DC " ^ primary)
  in
  let name =
    let taken = replicas t ~dc:primary in
    let rec fresh i =
      let n = Printf.sprintf "%s~r%d" primary i in
      if List.mem n taken then fresh (i + 1) else n
    in
    fresh 0
  in
  let sb =
    Repl.Standby.create ~counters:t.counters
      (Hashtbl.find t.dc_configs primary)
      ~part:(Dc.part dc_obj)
  in
  (* the standby's schema mirrors everything ever created on its
     primary; later [create_table]s propagate as they happen *)
  (match Hashtbl.find_opt t.dc_tables primary with
  | Some tabs ->
    List.iter
      (fun (tname, versioned) ->
        Dc.create_table (Repl.Standby.dc sb) ~name:tname ~versioned)
      (List.rev !tabs)
  | None -> ());
  (* With layers on, a fresh standby is born from the store's
     materialized state and only the post-layer suffix ships — also the
     only correct start when truncation already passed LSN 1. *)
  if t.layers then
    Hashtbl.iter
      (fun _ m ->
        if Option.is_some (Repl.Manager.layer_store m) then
          ignore (Repl.Manager.bootstrap_standby m ~standby:sb ~primary))
      t.managers;
  Hashtbl.add t.standbys name { sb_standby = sb; sb_primary = primary };
  Hashtbl.iter (fun tc_name _ -> attach_replica t ~tc_name ~sb_name:name) t.tcs;
  name

(* Top the primary's replica set up to [n] standbys; returns the names
   of the ones added. *)
let add_replicas t ~dc ~n =
  let missing = n - List.length (replicas t ~dc) in
  List.init (max 0 missing) (fun _ -> add_replica t ~dc)

let standby t name =
  match Hashtbl.find_opt t.standbys name with
  | Some e -> e.sb_standby
  | None -> invalid_arg ("Deploy.standby: unknown " ^ name)

let manager t ~tc = manager_for t tc

let settle_replicas t = Hashtbl.iter (fun _ m -> Repl.Manager.settle m) t.managers

let add_tc t ~name config =
  if Hashtbl.mem t.tcs name then invalid_arg ("Deploy.add_tc: dup " ^ name);
  let tc = Tc.create ~counters:t.counters config in
  Hashtbl.add t.tcs name tc;
  (* With layers on, the manager (and its store + TC hooks) must exist
     even for a TC that never gains a replica — truncation floors and
     history replay are layer concerns, not replica concerns. *)
  if t.layers then ignore (manager_for t name);
  Hashtbl.iter (fun dc_name _ -> link t ~tc_name:name ~dc_name) t.dcs;
  (* A late TC routes every already-partitioned table the same way. *)
  Hashtbl.iter (fun tname pt -> install_ptable_route t tc tname pt) t.ptables;
  (* ... and ships to every standby already deployed. *)
  Hashtbl.iter (fun sb_name _ -> attach_replica t ~tc_name:name ~sb_name)
    t.standbys;
  tc

let tc t name = Hashtbl.find t.tcs name

let dc t name = Hashtbl.find t.dcs name

let tc_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.tcs [] |> List.sort String.compare

let dc_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.dcs [] |> List.sort String.compare

let create_table t ~dc:dc_name ~name ~versioned =
  Dc.create_table (dc t dc_name) ~name ~versioned;
  let tabs =
    match Hashtbl.find_opt t.dc_tables dc_name with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.dc_tables dc_name r;
      r
  in
  if not (List.mem_assoc name !tabs) then tabs := (name, versioned) :: !tabs;
  (* keep every standby's schema in lock-step with its primary *)
  List.iter
    (fun sb_name ->
      Dc.create_table
        (Repl.Standby.dc (standby t sb_name))
        ~name ~versioned)
    (replicas t ~dc:dc_name)

let register_ptable t ~replicas ~name ~versioned ~dcs:dc_list pscheme =
  if dc_list = [] then invalid_arg "Deploy.add_partitioned_table: no DCs";
  if Hashtbl.mem t.ptables name then
    invalid_arg ("Deploy.add_partitioned_table: dup " ^ name);
  List.iter
    (fun d ->
      if not (Hashtbl.mem t.dcs d) then
        invalid_arg ("Deploy.add_partitioned_table: unknown DC " ^ d))
    dc_list;
  let pt =
    { pt_versioned = versioned; pt_dcs = Array.of_list dc_list;
      pt_scheme = pscheme }
  in
  Hashtbl.add t.ptables name pt;
  (* The physical table exists at every owning DC (and its standbys);
     each holds only the keys the map routes to it. *)
  List.iter (fun d -> create_table t ~dc:d ~name ~versioned) dc_list;
  Hashtbl.iter (fun _ tc -> install_ptable_route t tc name pt) t.tcs;
  (* [~replicas:k] gives every owning partition k warm standbys. *)
  if replicas > 0 then
    List.iter (fun d -> ignore (add_replicas t ~dc:d ~n:replicas)) dc_list

let add_partitioned_table t ?(scheme = Hash) ?(replicas = 0) ~name ~versioned
    ~dcs:dc_list () =
  (match scheme with
  | Range splits when List.length splits <> List.length dc_list - 1 ->
    invalid_arg "Deploy.add_partitioned_table: need N-1 range splits"
  | _ -> ());
  register_ptable t ~replicas ~name ~versioned ~dcs:dc_list (User scheme)

(* An indexed table is the primary table under the user's scheme plus
   one entry table per index under secondary-hash placement, all
   sharing the replica count and versioned-ness.  Entry tables are
   ordinary partitioned tables end to end: redo, checkpoints,
   replication and failover treat them exactly like the primary. *)
let add_indexed_table t ?(scheme = Hash) ?(replicas = 0) ~idx ~name ~versioned
    ~dcs:dc_list ~indexes () =
  (match scheme with
  | Range splits when List.length splits <> List.length dc_list - 1 ->
    invalid_arg "Deploy.add_indexed_table: need N-1 range splits"
  | _ -> ());
  if indexes = [] then invalid_arg "Deploy.add_indexed_table: no indexes";
  List.iter
    (fun (iname, extract) ->
      Index.define idx ~table:name ~name:iname ~extract)
    indexes;
  register_ptable t ~replicas ~name ~versioned ~dcs:dc_list (User scheme);
  List.iter
    (fun (iname, _) ->
      register_ptable t ~replicas
        ~name:(Index.index_table ~table:name ~name:iname)
        ~versioned ~dcs:dc_list Hash_sec)
    indexes

let drop_in_flight_for t ~dc_name =
  Hashtbl.iter
    (fun (_, d) transport ->
      if String.equal d dc_name then Transport.drop_in_flight transport)
    t.transports

let crash_dc t name =
  let dc = dc t name in
  drop_in_flight_for t ~dc_name:name;
  (try
     Dc.crash dc;
     Dc.recover dc
   with e ->
     (* the fault plan struck again inside this DC's own recovery *)
     t.last_faulted <- Some name;
     raise e);
  (* Prompt every TC: each resends its own history (the DC's per-TC
     abstract LSNs absorb what survived on stable pages).  Sibling
     partitions are untouched — single-partition restart is the point
     of the partitioned deployment. *)
  Hashtbl.iter (fun _ tc -> Tc.on_dc_restart tc ~dc:name) t.tcs

let crash_tc t name =
  let tc_obj = tc t name in
  Hashtbl.iter
    (fun (tcn, _) transport ->
      if String.equal tcn name then Transport.drop_in_flight transport)
    t.transports;
  Tc.crash tc_obj;
  Tc.recover tc_obj;
  (* A DC that turned the partial failure into its own complete one —
     draconian mode, or a selective reset that had to escalate — lost
     other TCs' unflushed work: they must redo. *)
  Hashtbl.iter
    (fun dc_name dc ->
      if Dc.take_escalation dc then begin
        Instrument.bump t.counters "deploy.escalation_redo";
        (* The complete restart killed the DC's sockets: frames in flight
           to or from it died with them, exactly as in [crash_dc].  In
           particular the other TCs' pre-crash watermarks must not reach
           the rebuilt DC — their redo is about to run under a capped
           low-water mark, and a stale high claim would let mid-redo
           stall-policy flushes over-claim coverage (absorbing the rest
           of the redo as duplicates). *)
        drop_in_flight_for t ~dc_name;
        Hashtbl.iter
          (fun tcn tc ->
            if not (String.equal tcn name) then Tc.on_dc_restart tc ~dc:dc_name)
          t.tcs
      end)
    t.dcs

(* A standby died: rebuild it from its own stable state, then reopen
   every session on a fresh epoch.  Its volatile applied cursors are
   gone, so the hello re-adopts zero and the whole stable stream is
   re-shipped — the abstract-LSN idempotence path absorbs everything
   its stable pages already contain.  When checkpoint truncation has
   passed the rejoin cursor that re-ship is impossible; the manager
   demotes the replica to rebuild-required and it stays crashed-out of
   the replica set (an already rebuild-required replica skips the
   rejoin entirely). *)
let crash_standby t name =
  let e =
    match Hashtbl.find_opt t.standbys name with
    | Some e -> e
    | None -> invalid_arg ("Deploy.crash_standby: unknown " ^ name)
  in
  Hashtbl.iter
    (fun (_, sb) tr ->
      if String.equal sb name then Transport.drop_in_flight tr)
    t.repl_transports;
  (try
     Repl.Standby.crash e.sb_standby;
     Repl.Standby.recover e.sb_standby
   with ex ->
     t.last_faulted <- Some name;
     raise ex);
  Hashtbl.iter
    (fun _ m ->
      if
        List.mem name (Repl.Manager.replica_names m ~primary:e.sb_primary)
        && Repl.Manager.state_of m ~name <> Repl.Manager.Rebuild_required
      then Repl.Manager.reattach m ~name)
    t.managers

exception Promotion_refused of string

(* A candidate is promotable only if EVERY TC's manager can prove its
   acked history reconstructible from its retained log — one TC with a
   truncated suffix is one hole too many. *)
let promotion_eligible t name =
  Hashtbl.fold
    (fun _ m acc -> acc && Repl.Manager.promotion_eligible m ~name)
    t.managers true

let attached_replicas t ~dc =
  List.filter
    (fun name ->
      Hashtbl.fold
        (fun _ m acc ->
          acc && Repl.Manager.state_of m ~name = Repl.Manager.Attached)
        t.managers true)
    (replicas t ~dc)

(* Promote the most-caught-up *eligible* standby in place of a dead
   primary (Section 5.3.2 taken one step further: instead of rebuilding
   the crashed DC's cache by redoing from the redo-scan start point, a
   warm standby already holds the shipped prefix and only the gap to
   end-of-stable-log is re-driven).  Three defenses keep the promotion
   durability-preserving:

   - candidates whose missed suffix the log no longer retains are
     refused ({!Promotion_refused}) — never silently promoted with a
     hole where acked commits used to be;
   - the chosen laggard is caught up from the retained log BEFORE being
     installed (skippable with [~catch_up:false], which leans entirely
     on the TC's redo-below-rssp path instead);
   - the TC's failover redo may start below the redo-scan start point
     when the retained suffix covers it (Tc.on_dc_failover). *)
let fail_over ?(catch_up = true) t ~dc:dc_name =
  let t0 = Metrics.start t.counters in
  drop_in_flight_for t ~dc_name;
  let candidates = replicas t ~dc:dc_name in
  if candidates = [] then
    invalid_arg ("Deploy.fail_over: no standby for " ^ dc_name);
  let eligible = List.filter (promotion_eligible t) candidates in
  if eligible = [] then begin
    Instrument.bump t.counters "repl.promote_refusals";
    Trace.record ~tid:0 ~comp:"repl" ~ev:"refuse"
      [ ("dc", dc_name); ("candidates", string_of_int (List.length candidates)) ];
    raise
      (Promotion_refused
         (Printf.sprintf
            "Deploy.fail_over: no eligible standby for %s (%d candidate(s) \
             cannot prove their acked history retained)"
            dc_name (List.length candidates)))
  end;
  (* among the eligible, rank by exactly-applied LSNs (not the ack
     floor — acks may be in flight), summed across TCs *)
  let caught_up name =
    let sb = (Hashtbl.find t.standbys name).sb_standby in
    Hashtbl.fold
      (fun _ tc acc -> acc + Lsn.to_int (Repl.Standby.applied sb ~tc:(Tc.id tc)))
      t.tcs 0
  in
  let chosen =
    List.fold_left
      (fun best name ->
        match best with
        | Some (_, b) when b >= caught_up name -> best
        | _ -> Some (name, caught_up name))
      None eligible
    |> Option.get |> fst
  in
  let sb = (Hashtbl.find t.standbys chosen).sb_standby in
  (* defense 3: re-ship the retained suffix to the chosen laggard while
     it is still a replica, so it is promoted caught-up and the TC redo
     below shrinks to the (usually empty) post-catch-up gap *)
  if catch_up then
    Hashtbl.iter (fun _ m -> Repl.Manager.catch_up m ~name:chosen) t.managers;
  (* the promoted replica leaves the replica set: it no longer holds
     the truncation floor, and its repl links die with its old role *)
  Hashtbl.iter (fun _ m -> Repl.Manager.remove m ~name:chosen) t.managers;
  Hashtbl.remove t.standbys chosen;
  Hashtbl.iter
    (fun tc_name _ -> Hashtbl.remove t.repl_transports (tc_name, chosen))
    t.tcs;
  (* install the standby's DC under the primary's name — sibling
     replicas and the partition map keep working unchanged — and re-link
     every TC so the old transports' closures over the dead DC are
     dropped with their in-flight frames *)
  Hashtbl.replace t.dcs dc_name (Repl.Standby.dc sb);
  Hashtbl.iter
    (fun tc_name _ -> Hashtbl.remove t.transports (tc_name, dc_name))
    t.tcs;
  Hashtbl.iter (fun tc_name _ -> link t ~tc_name ~dc_name) t.tcs;
  (* the promoted DC answers point-in-time reads like the old primary *)
  if t.layers then wire_history_read t ~dc_name;
  (* each TC re-drives only the gap past the standby's applied LSN *)
  Hashtbl.iter
    (fun _ tc ->
      Tc.on_dc_failover tc ~dc:dc_name
        ~from:(Lsn.next (Repl.Standby.applied sb ~tc:(Tc.id tc))))
    t.tcs;
  Instrument.bump t.counters "repl.promotions";
  Metrics.stop t.counters "repl.promote_ns" t0;
  Trace.record ~tid:0 ~comp:"repl" ~ev:"promote"
    [ ("dc", dc_name); ("standby", chosen) ]

(* Rebuild a replica from layers: a fresh standby is populated with the
   store's materialized state and rejoins at the post-layer suffix — the
   recovery path for a [Rebuild_required] replica whose missed history
   the log no longer retains.  The old replica object is discarded
   entirely (manager entries, repl links); the rebuilt one keeps its
   name.  Returns the number of records installed. *)
let rebuild_replica t name =
  let e =
    match Hashtbl.find_opt t.standbys name with
    | Some e -> e
    | None -> invalid_arg ("Deploy.rebuild_replica: unknown " ^ name)
  in
  if not t.layers then
    invalid_arg "Deploy.rebuild_replica: deployment has no layer stores";
  let primary = e.sb_primary in
  Hashtbl.iter (fun _ m -> Repl.Manager.remove m ~name) t.managers;
  Hashtbl.iter
    (fun tc_name _ -> Hashtbl.remove t.repl_transports (tc_name, name))
    t.tcs;
  let dc_obj = Hashtbl.find t.dcs primary in
  let sb =
    Repl.Standby.create ~counters:t.counters
      (Hashtbl.find t.dc_configs primary)
      ~part:(Dc.part dc_obj)
  in
  (match Hashtbl.find_opt t.dc_tables primary with
  | Some tabs ->
    List.iter
      (fun (tname, versioned) ->
        Dc.create_table (Repl.Standby.dc sb) ~name:tname ~versioned)
      (List.rev !tabs)
  | None -> ());
  let installed =
    Hashtbl.fold
      (fun _ m acc ->
        if Option.is_some (Repl.Manager.layer_store m) then
          acc + Repl.Manager.bootstrap_standby m ~standby:sb ~primary
        else acc)
      t.managers 0
  in
  Hashtbl.replace t.standbys name { sb_standby = sb; sb_primary = primary };
  Hashtbl.iter (fun tc_name _ -> attach_replica t ~tc_name ~sb_name:name) t.tcs;
  Instrument.bump t.counters "deploy.replica_rebuilds";
  installed

(* The user-visible point-in-time read: route the key to its owning DC
   (partition map for partitioned tables, the TC's routing otherwise)
   and answer through the DC's history hook, after freshening every
   store to end-of-stable-log so any [at <= stable] is answerable. *)
let read_as_of ?tc:tc_sel t ~table ~key ~at =
  Hashtbl.iter (fun _ m -> Repl.Manager.sync_layers m) t.managers;
  let dc_name =
    if Hashtbl.mem t.ptables table then partition_dc t ~table ~key
    else begin
      let tc_name =
        match tc_sel with
        | Some n -> n
        | None -> (
          match tc_names t with
          | [ n ] -> n
          | _ -> invalid_arg "Deploy.read_as_of: several TCs; pass ~tc")
      in
      Tc.dc_of_op (tc t tc_name) (Op.Read { table; key; mode = Op.Own })
    end
  in
  Dc.read_as_of (dc t dc_name) ~table ~key ~at

(* ------------------------------------------------------------------ *)
(* Copy-on-write branches                                              *)

exception Branch_has_children of { parent : string; children : string list }

let () =
  Printexc.register_printer (function
    | Branch_has_children { parent; children } ->
      Some
        (Printf.sprintf "Deploy.Branch_has_children { parent = %s; children = %s }"
           parent
           (String.concat ", " children))
    | _ -> None)

(* Branch TCs speak on the same identity plane as root TCs: their ids
   must be fresh, or the ~expect plumbing would let a branch frame land
   under a root TC's idempotence state. *)
let fresh_tc_id t =
  let m =
    Hashtbl.fold (fun _ tc acc -> max acc (Tc_id.to_int (Tc.id tc))) t.tcs 0
  in
  let m =
    Hashtbl.fold
      (fun _ e acc -> max acc (Tc_id.to_int (Tc.id (Branch.tc e.be_branch))))
      t.branches m
  in
  Tc_id.of_int (m + 1)

(* Every table created anywhere in the deployment, deduplicated — the
   schema a root-forked branch serves. *)
let all_tables t =
  let seen = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ tabs ->
      List.iter
        (fun (n, v) ->
          if not (Hashtbl.mem seen n) then Hashtbl.add seen n v)
        !tabs)
    t.dc_tables;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) seen [] |> List.sort compare

let branch t name =
  match Hashtbl.find_opt t.branches name with
  | Some e -> e.be_branch
  | None -> invalid_arg ("Deploy.branch: unknown branch " ^ name)

let branch_names t =
  Hashtbl.fold (fun n _ acc -> n :: acc) t.branches []
  |> List.sort String.compare

let branch_children t name =
  Hashtbl.fold
    (fun n e acc -> if e.be_parent = Some name then n :: acc else acc)
    t.branches []
  |> List.sort String.compare

let branch_root_tc t name =
  match Hashtbl.find_opt t.branches name with
  | Some e -> e.be_tc
  | None -> invalid_arg ("Deploy.branch_root_tc: unknown branch " ^ name)

let create_branch ?tc:tc_sel ?from t ~from_lsn ~name =
  if not t.layers then
    invalid_arg "Deploy.create_branch: deployment has no layer stores";
  if Hashtbl.mem t.branches name then
    invalid_arg ("Deploy.create_branch: dup branch " ^ name);
  let parent, be_parent, be_tc, tables =
    match from with
    | Some pname ->
      let e =
        match Hashtbl.find_opt t.branches pname with
        | Some e -> e
        | None ->
          invalid_arg ("Deploy.create_branch: unknown parent branch " ^ pname)
      in
      ( Branch.as_parent e.be_branch,
        Some pname,
        e.be_tc,
        Branch.tables e.be_branch )
    | None ->
      let tc_name =
        match tc_sel with
        | Some n -> n
        | None -> (
          match tc_names t with
          | [ n ] -> n
          | _ -> invalid_arg "Deploy.create_branch: several TCs; pass ~tc")
      in
      if not (Hashtbl.mem t.tcs tc_name) then
        invalid_arg ("Deploy.create_branch: unknown TC " ^ tc_name);
      ( Branch.of_manager ~label:tc_name (manager_for t tc_name),
        None,
        tc_name,
        all_tables t )
  in
  (* the branch DC mirrors a primary's tuning; a fresh partition id
     keeps cross-wiring loud (misrouted frames are rejected) *)
  let dc_config =
    match
      Hashtbl.fold (fun n _ a -> n :: a) t.dc_configs []
      |> List.sort String.compare
    with
    | n :: _ -> Hashtbl.find t.dc_configs n
    | [] -> Dc.default_config
  in
  let part = t.next_part in
  t.next_part <- t.next_part + 1;
  let wrap f frame =
    try f frame
    with e ->
      t.last_faulted <- Some name;
      raise e
  in
  let br =
    try
      Branch.create ~counters:t.counters ~policy:t.policy ~seed:(fresh_seed t)
        ~wrap ~name ~fork_lsn:from_lsn ~parent ~tc_id:(fresh_tc_id t)
        ~dc_config ~part ~tables ()
    with Branch.Out_of_range { wanted; durable } ->
      (* the deployment's typed boundary error, same shape everywhere *)
      raise (Out_of_range { wanted; durable })
  in
  Hashtbl.add t.branches name { be_branch = br; be_parent; be_tc };
  br

let delete_branch t name =
  let e =
    match Hashtbl.find_opt t.branches name with
    | Some e -> e
    | None -> invalid_arg ("Deploy.delete_branch: unknown branch " ^ name)
  in
  (match branch_children t name with
  | [] -> ()
  | children -> raise (Branch_has_children { parent = name; children }));
  Branch.close e.be_branch;
  Hashtbl.remove t.branches name

let crash_branch_dc t name = Branch.crash_dc (branch t name)

(* Rebase one root store's history: fold everything below [below] (as
   clamped by live branch pins and the durable watermark) into a
   snapshot layer.  Branch retention is exactly why the pin floor is in
   the clamp — a fork point stays answerable while its branch lives. *)
let truncate_history ?tc:tc_sel t ~below =
  let tc_name =
    match tc_sel with
    | Some n -> n
    | None -> (
      match tc_names t with
      | [ n ] -> n
      | _ -> invalid_arg "Deploy.truncate_history: several TCs; pass ~tc")
  in
  let m = manager_for t tc_name in
  Repl.Manager.sync_layers m;
  match Repl.Manager.layer_store m with
  | Some s -> Layer.truncate_history s ~below
  | None -> invalid_arg "Deploy.truncate_history: no layer store"

let take_last_faulted t =
  let f = t.last_faulted in
  t.last_faulted <- None;
  f

let crash_for_point t ~point ~tc ~dc =
  Untx_fault.Fault.route_crash
    (function
      | `Tc ->
        ignore (take_last_faulted t);
        crash_tc t tc
      | `Dc ->
        (* Crash the DC the fault actually escaped from: with N
           partitions, killing a sibling of the one mid-SMO would leave
           a half-done system transaction live in an unrestarted
           cache.  A fault that escaped a standby's apply kills the
           standby, not any primary. *)
        let target = Option.value (take_last_faulted t) ~default:dc in
        if Hashtbl.mem t.branches target then crash_branch_dc t target
        else if Hashtbl.mem t.standbys target then crash_standby t target
        else crash_dc t target)
    point

(* Deployment-wide checkpoint round: every TC advances its own
   redo-scan start point against every DC, in name order so the round
   is deterministic.  No cross-TC floor is needed: watermarks, abstract
   LSNs, the undispatched floor and the DC's grant test are all keyed
   per TC, so one TC's truncation covers only its own log — the
   two-TCs-racing-a-checkpoint regression test pins exactly this.
   Returns whether every TC's checkpoint was granted. *)
let checkpoint_all t =
  List.fold_left
    (fun acc name -> Tc.checkpoint (tc t name) && acc)
    true (tc_names t)

(* Detach one standby in every manager at once.  Replica state
   is per (TC, standby): each manager holds its own retention lease and
   burns one unit only on its own TC's granted checkpoints, so M TCs do
   not multiply "one" detachment's burn rate — but a deployment-level
   detach must still hit every manager, or the standby would keep
   confirming one TC's stream while silently missing another's. *)
let detach_replica t name =
  if not (Hashtbl.mem t.standbys name) then
    invalid_arg ("Deploy.detach_replica: unknown " ^ name);
  Hashtbl.iter (fun _ m -> Repl.Manager.detach m ~name) t.managers

let quiesce t =
  Hashtbl.iter (fun _ tc -> Tc.quiesce tc) t.tcs;
  (* replication parity is part of a quiesced replicated deployment:
     every standby has confirmed end-of-stable-log.  Non-replicated
     deployments are untouched (no extra log force). *)
  if Hashtbl.length t.managers > 0 then begin
    Hashtbl.iter (fun _ tc -> Tc.force_log tc) t.tcs;
    Hashtbl.iter (fun _ m -> Repl.Manager.settle m) t.managers
  end;
  Hashtbl.iter (fun _ e -> Branch.quiesce e.be_branch) t.branches

let messages_total t =
  Hashtbl.fold
    (fun _ transport acc -> acc + Transport.requests_delivered transport)
    t.transports 0
