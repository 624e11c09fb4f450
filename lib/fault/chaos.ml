module Kernel = Untx_kernel.Kernel
module Engine = Untx_kernel.Engine
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Rng = Untx_util.Rng
module Zipf = Untx_util.Zipf
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault
module Deploy = Untx_cloud.Deploy
module Repl = Untx_repl.Repl
module Front = Untx_front.Front
module Index = Untx_index.Index
module Branch = Untx_branch.Branch
module Layer = Untx_layer.Layer
module Workload = Untx_workload.Workload

type repl = {
  parts : int;
  replicas : int;
  durability : Repl.durability option;
}

type shape =
  | Kernel
  | Partitioned of int
  | Replicated of repl
  | Detach of repl
  | Front of int
  | Indexed of int
  | Branch of int
  | Bank of Workload.spec

let show_shape shape =
  let repl r =
    Printf.sprintf "{parts = %d; replicas = %d; durability = %s}" r.parts
      r.replicas
      (match r.durability with
      | None -> "None"
      | Some Repl.Primary_only -> "Some Primary_only"
      | Some (Repl.Quorum k) -> Printf.sprintf "Some (Quorum %d)" k)
  in
  match shape with
  | Kernel -> "Kernel"
  | Partitioned n -> Printf.sprintf "Partitioned %d" n
  | Replicated r -> "Replicated " ^ repl r
  | Detach r -> "Detach " ^ repl r
  | Front n -> Printf.sprintf "Front %d" n
  | Indexed n -> Printf.sprintf "Indexed %d" n
  | Branch n -> Printf.sprintf "Branch %d" n
  | Bank _ -> "bank"

type cycle = {
  c_shape : string;
  c_txns : int;
  c_label : string;
  c_seed : int;
  c_fired : string list;
  c_crashes : int;
  c_committed : int;
  c_redelivered : int;
  c_violations : string list;
  c_counters : (string * int) list;
  c_trace : string;
      (* the cycle's span dump (Trace.to_jsonl); captured for every
         violating cycle, and on request via [keep_trace] *)
}

let table = "kv"

(* --- the seed-derived deployment ---------------------------------------- *)

(* Lossier than Transport.chaotic: drops force the resend/backoff path
   to carry real weight during both the workload and recovery redo. *)
let lossy =
  {
    Transport.delay_min = 0;
    delay_max = 2;
    reorder = true;
    dup_prob = 0.05;
    drop_prob = 0.1;
  }

(* Cycle configuration is derived from the seed: small pages and a tiny
   cache force splits, evictions and flushes, so the DC-side fault
   points sit on well-trodden paths. *)
let policy_of seed = if seed mod 3 = 0 then lossy else Transport.reliable

let sync_of seed =
  match seed / 4 mod 3 with
  | 0 -> Dc.Stall_until_lwm
  | 1 -> Dc.Bounded 4
  | _ -> Dc.Full_ablsn

let versioned_of seed = seed land 1 = 0

let tc_config id =
  {
    (Tc.default_config (Tc_id.of_int id)) with
    lwm_every = 8;
  }

let dc_config ~seed ~sync_policy =
  {
    Dc.page_capacity = 160;
    cache_pages = 6;
    sync_policy;
    tc_reset_mode = (if seed mod 5 = 0 then Dc.Complete else Dc.Selective);
    debug_checks = true;
  }

(* Every shape but [Kernel]: the named TCs over [parts] DCs "dc0".. of
   one config; transport, tables and configs are the caller's. *)
let make_deploy ~counters ~seed ~policy ~durability ~layers ~tcs ~dc ~parts =
  let d = Deploy.create ~counters ~policy ~durability ~layers ~seed () in
  List.iter (fun (name, cfg) -> ignore (Deploy.add_tc d ~name cfg)) tcs;
  let dcs = List.init parts (Printf.sprintf "dc%d") in
  List.iter (fun name -> ignore (Deploy.add_dc d ~name dc)) dcs;
  (d, dcs)

(* --- the engine --------------------------------------------------------- *)

(* What every shape's workload shares: the seed's generator, the
   parent's shadow oracle of committed effects, and the cycle's
   counts. *)
type cx = {
  rng : Rng.t;
  oracle : Workload.oracle;
  mutable crashes : int;
  mutable committed : int;
}

(* An injected fault is a hard kill of the component it escaped from;
   [route] kills and recovers it. *)
let handle cx route = function
  | Fault.Injected_crash p ->
    cx.crashes <- cx.crashes + 1;
    route p
  | Fault.Io_error p ->
    (* The bounded retry in Disk gave up: an unrecovered media error.
       Treat it as the DC host dying.  Prob rules would keep firing
       during recovery reads, so the plan comes down first. *)
    cx.crashes <- cx.crashes + 1;
    Fault.disarm ();
    route p
  | e -> raise e

let guard handle f =
  try f () with (Fault.Injected_crash _ | Fault.Io_error _) as e -> handle e

(* Run [f], answering up to [attempts] faults with [handle] and
   retrying. *)
let rec settle handle f attempts =
  try f ()
  with (Fault.Injected_crash _ | Fault.Io_error _) as e when attempts > 0 ->
    handle e;
    settle handle f (attempts - 1)

(* Probe a transaction's unique marker key to learn its fate after an
   ambiguously interrupted commit: the marker is the transaction's
   first write, so it is visible iff the transaction committed. *)
let probe ~handle (module E : Engine.S) ~table marker =
  let attempt () =
    let txn = E.begin_txn () in
    let v =
      match E.read txn ~table ~key:marker with
      | `Ok v -> v
      | `Blocked | `Fail _ -> None
    in
    (match E.commit txn with
    | `Ok () -> ()
    | `Blocked | `Fail _ ->
      if E.is_active txn then E.abort txn ~reason:"chaos probe");
    v
  in
  try attempt ()
  with (Fault.Injected_crash _ | Fault.Io_error _) as e ->
    handle e;
    (try attempt () with Fault.Injected_crash _ | Fault.Io_error _ -> None)

(* Raised under [~strict] on any non-[`Ok] write: the index module's
   Fail-means-caller-aborts contract, since a refused entry op would
   otherwise leave the primary write without its maintenance. *)
exception Dead_txn

let plain_value rng = Printf.sprintf "v%06d" (Rng.int rng 1_000_000)

(* Late in the cycle deletes dominate, to drive pages toward underflow
   and give consolidation points a chance to fire. *)
let late_deletes ~txns i = if 3 * i > 2 * txns then 0.7 else 0.25

(* One generated transaction on [engine] — the marker, then 1-4 writes
   to keys "k00".."k49" — settled into [shadow] by the marker fate
   protocol.  [strict] aborts the transaction on the first refused
   write. *)
let run_txn cx ~handle ~strict (module E : Engine.S) ~shadow ~marker
    ~delete_bias ~value =
  let staged : (string, string option) Hashtbl.t = Hashtbl.create 8 in
  let cur = ref None in
  let phase = ref `Body in
  let committed () =
    cx.committed <- cx.committed + 1;
    Workload.commit shadow ~table staged
  in
  let resolve_by_marker () =
    if probe ~handle (module E) ~table marker <> None then committed ()
  in
  let stage key v = function
    | `Ok () -> Hashtbl.replace staged key v
    | `Blocked | `Fail _ -> if strict then raise Dead_txn
  in
  try
    let txn = E.begin_txn () in
    cur := Some txn;
    stage marker (Some "1") (E.insert txn ~table ~key:marker ~value:"1");
    for _ = 1 to 1 + Rng.int cx.rng 4 do
      let key = Printf.sprintf "k%02d" (Rng.int cx.rng 50) in
      let current =
        if Hashtbl.mem staged key then Hashtbl.find staged key
        else Workload.view shadow ~table key
      in
      match current with
      | None ->
        let value = value cx.rng in
        stage key (Some value) (E.insert txn ~table ~key ~value)
      | Some _ ->
        if Rng.chance cx.rng delete_bias then
          stage key None (E.delete txn ~table ~key)
        else
          let value = value cx.rng in
          stage key (Some value) (E.update txn ~table ~key ~value)
    done;
    phase := `Commit;
    match E.commit txn with
    | `Ok () -> committed ()
    | `Blocked | `Fail _ -> ()
  with
  | Dead_txn -> (
    match !cur with
    | Some txn when E.is_active txn ->
      E.abort txn ~reason:"chaos: index op refused"
    | _ -> ())
  | (Fault.Injected_crash p | Fault.Io_error p) as e -> (
    handle e;
    match (!phase, Fault.component_of_point p, !cur) with
    | `Body, `Tc, _ ->
      (* The transaction died with the TC; recovery rolled it back and
         the handle is stale.  The oracle never saw its writes. *)
      ()
    | _, `Dc, None -> ()
    | `Body, `Dc, Some txn ->
      (* The TC survived, so the transaction is a live loser holding
         locks (on every partition it touched): roll it back like
         suite_recovery's open_loser. *)
      if E.is_active txn then
        E.abort txn ~reason:"chaos: rollback after DC crash"
    | `Commit, `Tc, _ ->
      (* The Commit record may or may not have reached the stable log
         before the kill; the marker knows. *)
      resolve_by_marker ()
    | `Commit, `Dc, Some txn ->
      (* The TC survived, so it must finish what it started: commit is
         re-entrant (a second Commit record is benign, cleanups are
         idempotent).  A further planned kill can land inside the
         retry itself; while the transaction stays active it still
         holds its locks, so keep retrying — the plan is finite — and
         roll back as a last resort rather than leak the locks. *)
      let rec retry attempts =
        if not (E.is_active txn) then
          (* the commit had already finished (the crash hit the
             post-commit auto-checkpoint); the marker settles it *)
          resolve_by_marker ()
        else if attempts = 0 then (
          E.abort txn ~reason:"chaos: commit retries exhausted";
          resolve_by_marker ())
        else
          try
            match E.commit txn with
            | `Ok () -> committed ()
            | `Blocked | `Fail _ -> ()
          with (Fault.Injected_crash _ | Fault.Io_error _) as e ->
            handle e;
            retry (attempts - 1)
      in
      retry 4)

(* What a shape supplies to the engine: how faults are answered, how the
   deployment quiesces, what iteration [i] of the workload does, and the
   audit of the quiesced survivor. *)
type rig = {
  handle : exn -> unit;
  quiesce : unit -> unit;
  iteration : int -> unit;
  audit : unit -> Audit.report;
}

(* One report from several audits of the same survivor. *)
let merge reports =
  {
    Audit.violations = List.concat_map (fun r -> r.Audit.violations) reports;
    redelivered = List.fold_left (fun a r -> a + r.Audit.redelivered) 0 reports;
  }

(* The laws that failed, as violations. *)
let broken laws =
  List.filter_map (fun (holds, msg) -> if holds then None else Some msg) laws

(* The midpoint maintenance of most shapes: quiesce then checkpoint, so
   the checkpoint fault points sit on a realistic RSSP advance. *)
let checkpoint_at_midpoint ~handle ~txns ~quiesce ~checkpoint i =
  if i = txns / 2 then
    guard handle (fun () ->
        quiesce ();
        ignore (checkpoint ()))

(* The plain cycle drives a [Kernel], its TC auto-checkpointing on
   every fourth seed, and the audit is {!Audit.run}. *)
let kernel_rig cx ~counters ~seed ~txns =
  let k =
    Kernel.create ~counters
      {
        Kernel.tc =
          {
            (tc_config 1) with
            checkpoint_every = (if seed mod 4 = 0 then 7 else 0);
          };
        dc = dc_config ~seed ~sync_policy:(sync_of seed);
        policy = policy_of seed;
        seed;
      }
  in
  Kernel.create_table k ~name:table ~versioned:(versioned_of seed);
  let handle = handle cx (Kernel.crash_for_point k) in
  let engine = Engine.of_kernel k in
  let quiesce () = Kernel.quiesce k in
  {
    handle;
    quiesce;
    iteration =
      (fun i ->
        checkpoint_at_midpoint ~handle ~txns ~quiesce
          ~checkpoint:(fun () -> Tc.checkpoint (Kernel.tc k))
          i;
        run_txn cx ~handle ~strict:false engine ~shadow:cx.oracle
          ~marker:(Printf.sprintf "m%03d" i)
          ~delete_bias:(late_deletes ~txns i) ~value:plain_value);
    audit =
      (fun () -> Audit.run k ~table ~expected:(Workload.rows cx.oracle table));
  }

let index_value rng =
  let cat =
    (if Rng.chance rng 0.15 then "c\x00" else "c")
    ^ string_of_int (Rng.int rng 4)
  in
  Printf.sprintf "%s:v%06d" cat (Rng.int rng 1_000_000)

(* One TC over [parts] DCs: the partitioned, replicated, detach and
   indexed shapes.  An injected DC fault kills whichever partition (or
   standby) it actually escaped from ([Deploy.crash_for_point]), which
   then recovers alone while its siblings keep serving.

   Replicated and detach: a kill at the ["repl.ship.batch"] boundary
   means the PRIMARY being shipped from died at that instant — the
   harness answers with {!Deploy.fail_over} (promote the most-caught-up
   eligible standby, re-drive only the gap) instead of a cold
   crash+restart; the point is DC-side, so the TC survives it.  When
   the gate refuses every candidate ({!Deploy.Promotion_refused} — e.g.
   the only standby went rebuild-required after a lease expiry or a
   post-truncation crash) the harness does what an operator would:
   cold-restart the primary, trading availability for zero loss.

   Indexed: every mutation goes through {!Untx_index.Index}, so a kill
   can land between a primary write and its entry maintenance, under a
   seed-picked Section 3.1 lock protocol (never Optimistic — index
   maintenance re-reads its own writes). *)
let one_tc_rig cx ~counters ~seed ~txns shape =
  let idx =
    match shape with Indexed _ -> Some (Index.create ~counters ()) | _ -> None
  in
  let parts, replicas, durability =
    match shape with
    | Replicated r | Detach r ->
      let by_seed =
        (* alternate durability policies so Quorum-gated commits also
           live through mid-workload promotions *)
        if seed land 1 = 0 then Repl.Quorum 1 else Repl.Primary_only
      in
      (r.parts, r.replicas, Option.value r.durability ~default:by_seed)
    | Partitioned n | Indexed n -> (n, 0, Repl.Primary_only)
    | Kernel | Front _ | Branch _ | Bank _ -> invalid_arg "Chaos.one_tc_rig"
  in
  let tc_cfg =
    match idx with
    | Some _ ->
      {
        (tc_config 1) with
        cc_protocol =
          (if seed land 2 = 0 then Tc.Key_locks else Tc.Range_locks 8);
      }
    | None -> tc_config 1
  in
  let d, dcs =
    make_deploy ~counters ~seed ~policy:(policy_of seed) ~durability
      ~layers:false ~tcs:[ ("tc1", tc_cfg) ]
      ~dc:(dc_config ~seed ~sync_policy:(sync_of seed)) ~parts
  in
  let versioned = versioned_of seed in
  (match idx with
  | Some idx ->
    Deploy.add_indexed_table d ~idx ~name:table ~versioned ~dcs
      ~indexes:Workload.indexes ()
  | None ->
    Deploy.add_partitioned_table d ~name:table ~versioned ~replicas ~dcs ());
  let tc = Deploy.tc d "tc1" in
  let default_dc = List.hd (Deploy.partitions d ~table) in
  let crash point = Deploy.crash_for_point d ~point ~tc:"tc1" ~dc:default_dc in
  let killed_inside p =
    (* a second planned kill landed inside the promotion *)
    cx.crashes <- cx.crashes + 1;
    crash p
  in
  let promote primary =
    match Deploy.fail_over d ~dc:primary with
    | () -> ()
    | exception Deploy.Promotion_refused _ -> (
      (* honest refusal: fall back to a cold restart of the primary —
         slower, but every acked commit survives *)
      try Deploy.crash_dc d primary
      with Fault.Injected_crash p -> killed_inside p)
    | exception Fault.Injected_crash p -> killed_inside p
  in
  let route point =
    match shape with
    | (Replicated _ | Detach _) when String.equal point Repl.p_ship_batch ->
      promote
        (Option.value ~default:default_dc
           (Repl.Manager.last_ship_primary (Deploy.manager d ~tc:"tc1")))
    | _ -> crash point
  in
  let handle = handle cx route in
  let engine, value =
    match idx with
    | None -> (Engine.of_tc tc, plain_value)
    | Some idx -> (Index.engine idx tc, index_value)
  in
  let quiesce () = Deploy.quiesce d in
  let maintain =
    match shape with
    | Detach _ -> (
      (* The detach→checkpoint→promote interleaving: dc0's first standby
         is detached a quarter into the workload, a granted checkpoint
         mid-workload advances the redo-scan start point past its frozen
         cursor (consulting — and burning — its retention lease), and at
         the three-quarter mark dc0 "dies" and must fail over to that
         laggard.  The promotion must either catch the laggard up from
         the retained log or refuse and cold-restart — never serve a
         hole.  A plan arming ["repl.lease.expire"] forces the
         refusal. *)
      fun i ->
        if i = txns / 4 then
          guard handle (fun () ->
              match Deploy.replicas d ~dc:"dc0" with
              | sbn :: _ ->
                Repl.Manager.detach (Deploy.manager d ~tc:"tc1") ~name:sbn
              | [] -> ())
        else if i = txns / 2 then
          guard handle (fun () ->
              (* a *granted* checkpoint is the point of this cycle: flush
                 every primary so the grant loop converges under faults *)
              let flush_primaries () =
                Deploy.quiesce d;
                List.iter
                  (fun n -> Dc.flush_all (Deploy.dc d n))
                  (Deploy.dc_names d)
              in
              flush_primaries ();
              let rec grant tries =
                if (not (Tc.checkpoint tc)) && tries > 0 then begin
                  flush_primaries ();
                  grant (tries - 1)
                end
              in
              grant 3)
        else if i = 3 * txns / 4 then
          guard handle (fun () ->
              (* skip if a planned ship-batch kill already promoted dc0's
                 only standby earlier in the cycle *)
              if Deploy.replicas d ~dc:"dc0" <> [] then promote "dc0"))
    | _ ->
      checkpoint_at_midpoint ~handle ~txns ~quiesce ~checkpoint:(fun () ->
          Tc.checkpoint tc)
  in
  {
    handle;
    quiesce;
    iteration =
      (fun i ->
        maintain i;
        run_txn cx ~handle ~strict:(idx <> None) engine ~shadow:cx.oracle
          ~marker:(Printf.sprintf "m%03d" i)
          ~delete_bias:(late_deletes ~txns i) ~value);
    audit =
      (fun () ->
        let report =
          Audit.run_deploy d ~tc:"tc1" ~table
            ~expected:(Workload.rows cx.oracle table)
        in
        match idx with
        | None -> report
        | Some idx ->
          {
            report with
            Audit.violations =
              report.Audit.violations @ Audit.check_index d ~idx ~table;
          });
  }

(* TC-kill-under-load: two TCs share [parts] partitioned DCs behind the
   session front end; at the midpoint one TC is hard-killed while its
   sessions still have queued transactions.  Each TC's sessions update
   their own table with session-scoped keys (the Section 6 disjoint-
   updaters rule), so the surviving TC must sail through untouched and
   the victim's recovery must reset exactly its own lost suffix.  The
   kill is scripted, so no planned fault is routed: one escapes the
   cycle.

   Group-commit batching makes the kill genuinely ambiguous: commits the
   front already reported rode unforced batches, so the crash may disown
   a suffix of them.  The oracle is settled the honest way — after the
   final drain every committed transaction's unique marker is probed,
   and only survivors' effects enter the expected rows.  Per-TC log
   order makes the lost set a suffix, so the surviving fold is exact.

   The audit runs {!Audit.run_deploy} once per TC (structure, hygiene,
   per-TC idempotent redelivery, oracle, and the cross-TC watermark
   check), so one TC's crash leaking into the other's watermark slots —
   the bug the (tc, epoch, seq) keying prevents — is caught here. *)
let front_rig cx ~counters ~seed ~txns ~parts =
  let tc_names = [ "tc1"; "tc2" ] in
  let d, dcs =
    make_deploy ~counters ~seed ~policy:(policy_of seed)
      ~durability:Repl.Primary_only ~layers:false
      ~tcs:(List.mapi (fun i name -> (name, tc_config (i + 1))) tc_names)
      ~dc:(dc_config ~seed ~sync_policy:Dc.Full_ablsn) ~parts
  in
  (* Disjoint updaters: tc1 owns kv1, tc2 owns kv2 — both spread over
     every DC, so the kill exercises per-TC reset on shared partitions. *)
  let table_of_tc = function "tc1" -> "kv1" | _ -> "kv2" in
  List.iter
    (fun tcn ->
      Deploy.add_partitioned_table d ~name:(table_of_tc tcn)
        ~versioned:(versioned_of seed) ~dcs ())
    tc_names;
  let front =
    Front.create ~counters
      ~cfg:
        {
          Front.max_sessions = 8;
          session_queue = 3;
          total_queue = 8;
          batch = 2 + (seed mod 3);
        }
      d
  in
  let sessions = Array.init 4 (fun _ -> Front.open_session front) in
  let victim = if seed land 1 = 0 then "tc1" else "tc2" in
  (* Projected per-session view for choosing sensible ops; divergence
     after a lost suffix only skews op choices (harmless rejections),
     never the oracle, which is rebuilt from surviving markers. *)
  let projected : (string, string option) Hashtbl.t = Hashtbl.create 128 in
  (* ticket -> (table, marker, staged), in submission order *)
  let submitted = ref [] in
  let submit_with_backpressure s ops =
    (* Shed is a refusal, not a stall: pump to free queue space and
       retry a bounded number of times, then give the transaction up. *)
    let rec offer tries =
      match Front.submit front s ops with
      | `Ticket k -> Some k
      | `Overloaded _ ->
        if tries = 0 then None
        else begin
          ignore (Front.pump ~budget:2 front);
          offer (tries - 1)
        end
    in
    offer 6
  in
  let iteration i =
    if i = txns / 2 then begin
      cx.crashes <- cx.crashes + 1;
      Deploy.crash_tc d victim
    end;
    let s = sessions.(i mod Array.length sessions) in
    let sid = Front.session_id s in
    let table = table_of_tc (Front.session_tc s) in
    let marker = Printf.sprintf "s%d-m%03d" sid i in
    let staged : (string, string option) Hashtbl.t = Hashtbl.create 8 in
    let ops = ref [ Front.Insert { table; key = marker; value = "1" } ] in
    Hashtbl.replace staged marker (Some "1");
    for _ = 1 to 1 + Rng.int cx.rng 3 do
      let key = Printf.sprintf "s%d-k%02d" sid (Rng.int cx.rng 30) in
      let current =
        if Hashtbl.mem staged key then Hashtbl.find staged key
        else Option.join (Hashtbl.find_opt projected key)
      in
      let value = plain_value cx.rng in
      match current with
      | None ->
        ops := Front.Insert { table; key; value } :: !ops;
        Hashtbl.replace staged key (Some value)
      | Some _ ->
        if Rng.chance cx.rng 0.3 then begin
          ops := Front.Delete { table; key } :: !ops;
          Hashtbl.replace staged key None
        end
        else begin
          ops := Front.Update { table; key; value } :: !ops;
          Hashtbl.replace staged key (Some value)
        end
    done;
    (match submit_with_backpressure s (List.rev !ops) with
    | Some ticket ->
      Hashtbl.iter (Hashtbl.replace projected) staged;
      submitted := (ticket, table, marker, staged) :: !submitted
    | None -> ());
    (* keep execution overlapped with submission — the kill must land
       on non-empty queues *)
    if i mod 3 = 2 then ignore (Front.pump ~budget:1 front)
  in
  let audit () =
    (* Fate settlement: a commit the front acknowledged may have ridden
       an unforced batch into the kill.  Its unique marker decides. *)
    List.iter
      (fun (ticket, table, marker, staged) ->
        let tcn = if table = "kv1" then "tc1" else "tc2" in
        match Front.poll front ticket with
        | `Done (Front.Committed _)
          when probe ~handle:raise (Engine.of_tc (Deploy.tc d tcn)) ~table marker
               <> None ->
          cx.committed <- cx.committed + 1;
          Workload.commit cx.oracle ~table staged
        | `Done _ | `Pending -> ())
      (List.rev !submitted);
    merge
      (List.map
         (fun tcn ->
           let table = table_of_tc tcn in
           Audit.run_deploy d ~tc:tcn ~table
             ~expected:(Workload.rows cx.oracle table))
         tc_names)
  in
  {
    handle = raise;
    quiesce =
      (fun () ->
        Front.drain front;
        Deploy.quiesce d);
    iteration;
    audit;
  }

(* Fork-under-load on a layered deployment (fork targets resolve through
   the parent's layer store, so no standbys and an unversioned table —
   the store's reconstruction space): a third into the workload the
   deployment forks at its stable LSN; from then on every iteration
   drives one parent and one branch transaction over the same key space
   (so copy-on-write materialization races real parent traffic), and at
   the two-thirds mark the parent compacts, truncates history at its
   stable LSN (the cut must clamp at the live branch's fork pin), and
   the branch DC is killed and recovered.  Faults route by attribution:
   a DC-side point that escaped the branch's stack crashes the branch DC
   ([Deploy.crash_for_point] consults the fault wrapper), a TC-side
   point that escaped a branch operation crash-recovers the branch's
   own TC.  The audit is the full parent [Audit.run_deploy] plus
   {!Audit.check_branch} plus the bank's branch-oracle laws
   ({!Workload.fork_laws}): the branch reads back its own shadow map,
   and the shared prefix at the fork point reads back, through both
   sides, exactly as the parent's oracle stood when the fork was cut. *)
let branch_rig cx ~counters ~seed ~txns ~parts =
  let d, dcs =
    make_deploy ~counters ~seed ~policy:(policy_of seed)
      ~durability:Repl.Primary_only ~layers:true
      ~tcs:[ ("tc1", tc_config 1) ]
      ~dc:(dc_config ~seed ~sync_policy:(sync_of seed)) ~parts
  in
  Deploy.add_partitioned_table d ~name:table ~versioned:false ~replicas:0 ~dcs
    ();
  let tc = Deploy.tc d "tc1" in
  let default_dc = List.hd (Deploy.partitions d ~table) in
  let br = ref None (* the fork and its engine *) in
  let in_branch = ref false in
  let route p =
    match (Fault.component_of_point p, !br) with
    | `Tc, Some (f, _) when !in_branch ->
      (* the point escaped the branch's own TC: recover it, not tc1 *)
      let btc = Branch.tc f.Workload.f_branch in
      Tc.crash btc;
      Tc.recover btc
    | _ -> Deploy.crash_for_point d ~point:p ~tc:"tc1" ~dc:default_dc
  in
  let handle = handle cx route in
  let parent = Engine.of_tc tc in
  let iteration i =
    (* fork at the first stable point past a third of the workload *)
    if i >= txns / 3 && Option.is_none !br then
      guard handle (fun () ->
          let f = Workload.fork d cx.oracle ~tables:[ table ] in
          br := Some (f, Branch.engine f.f_branch));
    if i = 2 * txns / 3 && Option.is_some !br then
      guard handle (fun () ->
          Deploy.quiesce d;
          Repl.Manager.compact_layers (Deploy.manager d ~tc:"tc1");
          ignore (Deploy.truncate_history d ~below:(Tc.stable_lsn tc));
          Deploy.crash_branch_dc d "b");
    run_txn cx ~handle ~strict:false parent ~shadow:cx.oracle
      ~marker:(Printf.sprintf "m%03d" i)
      ~delete_bias:0.3 ~value:plain_value;
    match !br with
    | None -> ()
    | Some (f, engine) ->
      in_branch := true;
      Fun.protect
        ~finally:(fun () -> in_branch := false)
        (fun () ->
          run_txn cx ~handle ~strict:false engine ~shadow:f.Workload.f_oracle
            ~marker:(Printf.sprintf "bm%03d" i)
            ~delete_bias:0.3 ~value:plain_value)
  in
  let audit () =
    let report =
      Audit.run_deploy d ~tc:"tc1" ~table
        ~expected:(Workload.rows cx.oracle table)
    in
    let branch_violations =
      match !br with
      | None -> [ "branch: fork never succeeded" ]
      | Some (f, _) ->
        Audit.check_branch d ~name:"b" ~table @ broken (Workload.fork_laws d f)
    in
    {
      report with
      Audit.violations = report.Audit.violations @ branch_violations;
    }
  in
  { handle; quiesce = (fun () -> Deploy.quiesce d); iteration; audit }

(* --- the workload bank ---------------------------------------------------- *)

(* A bank cycle runs one {!Workload.spec} against [cx.oracle] with every
   read, scan and lookup checked the moment it returns.  [checks] and
   [aborted] are the cycle's "workload.checks" and "workload.aborted"
   counter cells; [violations] collects the differential failures,
   newest first. *)
type bank = {
  spec : Workload.spec;
  d : Deploy.t;
  tc : Tc.t;
  idx : Index.t;
  zipf : Zipf.t option;
  checks : int ref;
  aborted : int ref;
  mutable violations : string list;
}

let violation b msg = b.violations <- msg :: b.violations

let check b cond msg =
  incr b.checks;
  if not cond then violation b msg

let pick_key cx b =
  Workload.key_of
    (match b.zipf with
    | Some z -> Zipf.sample z cx.rng
    | None -> Rng.int cx.rng b.spec.w_keyspace)

let pp_outcome = function
  | `Ok _ -> "`Ok"
  | `Blocked -> "`Blocked"
  | `Fail m -> Printf.sprintf "`Fail %S" m

exception Txn_over

(* One bank transaction on [engine] against [oracle]: a handful of
   oracle-guided operations, optionally a poison probe, then
   commit/abort with the outcome the oracle predicts.  Any surprise is
   recorded and the transaction is rolled back, so one violation cannot
   corrupt the oracle for the rest of the run.  [who] names the side in
   messages; the branch side runs with [~poison:false] and draws no
   probe. *)
let bank_txn cx b (module E : Engine.S) ~oracle ~who ~poison i =
  let spec = b.spec in
  let table, versioned =
    List.nth spec.w_tables (i mod List.length spec.w_tables)
  in
  let txn = E.begin_txn () in
  let staged : (string, string option) Hashtbl.t = Hashtbl.create 8 in
  let view key =
    match Hashtbl.find_opt staged key with
    | Some v -> v
    | None -> Workload.view oracle ~table key
  in
  let abort_dead () =
    if E.is_active txn then E.abort txn ~reason:"workload: txn over";
    incr b.aborted
  in
  let expect_ok label = function
    | `Ok v -> v
    | (`Blocked | `Fail _) as o ->
      violation b
        (Printf.sprintf "%s: %s %d %s on %s came back %s" spec.w_name who i
           label table (pp_outcome o));
      abort_dead ();
      raise Txn_over
  in
  (* under OCC a transaction must not revisit its own buffered writes
     (reads and index maintenance would not see them) *)
  let revisit key = spec.w_protocol = Tc.Optimistic && Hashtbl.mem staged key in
  try
    for _ = 1 to 1 + Rng.int cx.rng 3 do
      let key =
        let k = pick_key cx b in
        if revisit k then pick_key cx b else k
      in
      if not (revisit key) then begin
        match view key with
        | None ->
          let value = Workload.gen_value spec cx.rng in
          expect_ok "insert" (E.insert txn ~table ~key ~value);
          Hashtbl.replace staged key (Some value)
        | Some current ->
          if Rng.chance cx.rng spec.w_rmw_prob then begin
            (* read-modify-write: the read is a differential check *)
            let got = expect_ok "read" (E.read txn ~table ~key) in
            check b
              (got = Some current)
              (Printf.sprintf "%s: %s %d read %s/%s saw %s, oracle says %S"
                 spec.w_name who i table key
                 (match got with Some v -> Printf.sprintf "%S" v | None -> "None")
                 current);
            let value = Workload.gen_value spec cx.rng in
            expect_ok "rmw-update" (E.update txn ~table ~key ~value);
            Hashtbl.replace staged key (Some value)
          end
          else if Rng.chance cx.rng 0.3 then begin
            expect_ok "delete" (E.delete txn ~table ~key);
            Hashtbl.replace staged key None
          end
          else begin
            let value = Workload.gen_value spec cx.rng in
            expect_ok "update" (E.update txn ~table ~key ~value);
            Hashtbl.replace staged key (Some value)
          end
      end
    done;
    (* Poison probe: a deliberately invalid operation must fail exactly
       where the contract says — immediately on unversioned tables (and
       for Index.update's fail-fast read), at commit on versioned
       pipelined ones. *)
    let poison =
      if poison && Rng.chance cx.rng spec.w_poison_prob then begin
        let existing =
          Workload.rows oracle table
          |> List.filter (fun (k, _) -> not (Hashtbl.mem staged k))
        in
        (* Optimistic buffers every write, so even fail-fast tables
           surface the refusal at commit, not at the call. *)
        let fail_fast = (not versioned) && spec.w_protocol <> Tc.Optimistic in
        let update_missing () =
          (* a rank just past the keyspace is never inserted *)
          let key = Workload.key_of (spec.w_keyspace + Rng.int cx.rng 50) in
          let o = E.update txn ~table ~key ~value:"poison" in
          (* Index.update reads the old row first and fails fast on a
             missing key whatever the table's versioned-ness *)
          Some (key, "update-missing", o, fail_fast || spec.w_indexed)
        in
        match existing with
        | (key, _) :: _ when Rng.bool cx.rng ->
          let o = E.insert txn ~table ~key ~value:"poison" in
          Some (key, "insert-existing", o, fail_fast)
        | _ -> update_missing ()
      end
      else None
    in
    match poison with
    | Some (key, label, o, immediate) ->
      let says what ok got =
        check b ok
          (Printf.sprintf "%s: txn %d poison %s on %s/%s should %s, got %s"
             spec.w_name i label table key what (pp_outcome got))
      in
      if immediate then
        says "fail fast" (match o with `Fail _ -> true | _ -> false) o
      else begin
        (* pipelined: the op is accepted, the commit must refuse *)
        says "pipeline as `Ok" (match o with `Ok () -> true | _ -> false) o;
        let c = E.commit txn in
        says "fail the commit" (match c with `Fail _ -> true | _ -> false) c
      end;
      abort_dead ()
    | None ->
      if Rng.chance cx.rng spec.w_abort_prob then begin
        E.abort txn ~reason:"workload: deliberate abort";
        incr b.aborted
      end
      else begin
        match E.commit txn with
        | `Ok () ->
          cx.committed <- cx.committed + 1;
          Workload.commit oracle ~table staged
        | (`Blocked | `Fail _) as o ->
          violation b
            (Printf.sprintf "%s: %s %d commit on %s came back %s" spec.w_name
               who i table (pp_outcome o));
          incr b.aborted
      end
  with Txn_over -> ()

(* A differential range scan in its own read-only transaction: the
   expected rows are the oracle's, filtered to the cursor's owning
   partition (partitioned scans stay inside one partition by design)
   and truncated at the limit. *)
let scan_check cx b (module E : Engine.S) =
  let spec = b.spec in
  let table, _ =
    List.nth spec.w_tables (Rng.int cx.rng (List.length spec.w_tables))
  in
  let from_key = Workload.key_of (Rng.int cx.rng spec.w_keyspace) in
  let limit = 1 + Rng.int cx.rng 16 in
  let part = Deploy.partition_dc b.d ~table ~key:from_key in
  let expected =
    Workload.rows cx.oracle table
    |> List.filter (fun (k, _) ->
           String.compare k from_key >= 0
           && String.equal (Deploy.partition_dc b.d ~table ~key:k) part)
    |> List.filteri (fun n _ -> n < limit)
  in
  let txn = E.begin_txn () in
  (match E.scan txn ~table ~from_key ~limit with
  | `Ok rows ->
    check b (rows = expected)
      (Printf.sprintf
         "%s: scan %s from %S limit %d saw %d row(s), oracle expects %d"
         spec.w_name table from_key limit (List.length rows)
         (List.length expected))
  | (`Blocked | `Fail _) as o ->
    violation b
      (Printf.sprintf "%s: scan %s from %S came back %s" spec.w_name table
         from_key (pp_outcome o)));
  match E.commit txn with
  | `Ok () -> ()
  | `Blocked | `Fail _ ->
    if E.is_active txn then E.abort txn ~reason:"workload scan probe"

(* A differential index lookup: recompute the expected hits from the
   oracle's rows through the same extractor. *)
let lookup_check cx b =
  let spec = b.spec in
  let table, _ = List.hd spec.w_tables in
  let index, sec =
    if Rng.bool cx.rng then ("by_cat", Workload.gen_cat cx.rng)
    else
      let _, hi = spec.w_value_len in
      ("by_len", Printf.sprintf "L%d" (Rng.int cx.rng (1 + (hi / 16))))
  in
  let extract = List.assoc index Workload.indexes in
  let expected =
    Workload.rows cx.oracle table
    |> List.filter (fun (key, value) -> List.mem sec (extract ~key ~value))
  in
  let txn = Tc.begin_txn b.tc in
  (match Index.lookup b.idx b.tc txn ~table ~index ~sec with
  | `Ok rows ->
    check b (rows = expected)
      (Printf.sprintf "%s: lookup %s/%s=%S saw %d row(s), oracle expects %d"
         spec.w_name table index sec (List.length rows) (List.length expected))
  | (`Blocked | `Fail _) as o ->
    violation b
      (Printf.sprintf "%s: lookup %s/%s=%S came back %s" spec.w_name table
         index sec (pp_outcome o)));
  match Tc.commit b.tc txn with
  | `Ok () -> ()
  | `Blocked | `Fail _ ->
    if Tc.is_active txn then Tc.abort b.tc txn ~reason:"workload lookup probe"

(* The bank's deployment: one TC under the spec's protocol over
   [w_parts] DCs on a reliable transport, pages sized so a version chain
   of a few max-size values fits one cell while small-value specs keep
   tiny pages and frequent splits.  Iteration [i] forks at [w_branch_at]
   of the run, fires the scripted kills due before it (spread evenly,
   between transactions, so the oracle carries straight through
   recovery), runs one parent transaction — and one branch transaction
   once forked — then maybe a scan and a lookup check.  No planned
   fault is routed.  The audit is {!Audit.run_deploy} per table,
   {!Audit.check_index} for an indexed spec and {!Workload.fork_laws}
   once forked, after the differential violations. *)
let bank_rig cx ~counters ~seed ~txns (spec : Workload.spec) =
  let idx = Index.create ~counters () in
  let d, dcs =
    make_deploy ~counters ~seed ~policy:Transport.reliable
      ~durability:Repl.Primary_only ~layers:(spec.w_branch_at <> None)
      ~tcs:[ ("tc1", { (tc_config 1) with cc_protocol = spec.w_protocol }) ]
      ~dc:
        {
          Dc.page_capacity = max 192 (5 * (snd spec.w_value_len + 64));
          cache_pages = 8;
          sync_policy = Dc.Full_ablsn;
          tc_reset_mode = Dc.Selective;
          debug_checks = true;
        }
      ~parts:spec.w_parts
  in
  List.iter
    (fun (name, versioned) ->
      let replicas = spec.w_replicas in
      if spec.w_indexed then
        Deploy.add_indexed_table d ~replicas ~idx ~name ~versioned ~dcs
          ~indexes:Workload.indexes ()
      else Deploy.add_partitioned_table d ~replicas ~name ~versioned ~dcs ())
    spec.w_tables;
  let tables = List.map fst spec.w_tables in
  let tc = Deploy.tc d "tc1" in
  let b =
    {
      spec;
      d;
      tc;
      idx;
      zipf =
        (if spec.w_theta > 0. then
           Some (Zipf.create ~n:spec.w_keyspace ~theta:spec.w_theta)
         else None);
      checks = Metrics.counter_cell counters "workload.checks";
      aborted = Metrics.counter_cell counters "workload.aborted";
      violations = [];
    }
  in
  let engine = if spec.w_indexed then Index.engine idx tc else Engine.of_tc tc in
  let br = ref None (* the fork and its engine *) in
  let fork_at =
    Option.map (fun f -> int_of_float (f *. float_of_int txns)) spec.w_branch_at
  in
  let kills = List.length spec.w_crashes in
  let kill j = function
    | Workload.Crash_dc ->
      cx.crashes <- cx.crashes + 1;
      Deploy.crash_dc d (Printf.sprintf "dc%d" (j mod spec.w_parts))
    | Crash_tc ->
      cx.crashes <- cx.crashes + 1;
      Deploy.crash_tc d "tc1"
    | Crash_branch ->
      if Option.is_some !br then begin
        cx.crashes <- cx.crashes + 1;
        Deploy.crash_branch_dc d "b"
      end
  in
  let iteration i =
    if fork_at = Some i then begin
      let f = Workload.fork d cx.oracle ~tables in
      br := Some (f, Branch.engine f.f_branch)
    end;
    List.iteri
      (fun j kind -> if (j + 1) * txns / (kills + 1) = i then kill j kind)
      spec.w_crashes;
    bank_txn cx b engine ~oracle:cx.oracle ~who:"txn" ~poison:true i;
    Option.iter
      (fun (f, engine) ->
        bank_txn cx b engine ~oracle:f.Workload.f_oracle ~who:"branch txn"
          ~poison:false i)
      !br;
    if Rng.chance cx.rng spec.w_scan_prob then scan_check cx b engine;
    if spec.w_indexed && Rng.chance cx.rng spec.w_lookup_prob then
      lookup_check cx b
  in
  let audit () =
    let report =
      merge
        (List.map
           (fun table ->
             Audit.run_deploy d ~tc:"tc1" ~table
               ~expected:(Workload.rows cx.oracle table))
           tables)
    in
    let index =
      if spec.w_indexed then
        List.concat_map (fun table -> Audit.check_index d ~idx ~table) tables
      else []
    in
    let fork =
      match !br with
      | Some (f, _) -> broken (Workload.fork_laws d f)
      | None -> []
    in
    {
      report with
      Audit.violations =
        List.rev b.violations @ report.Audit.violations @ index @ fork;
    }
  in
  {
    handle = raise;
    quiesce =
      (fun () ->
        Deploy.quiesce d;
        Option.iter (fun (f, _) -> Branch.quiesce f.Workload.f_branch) !br);
    iteration;
    audit;
  }

(* Every cycle runs traced: the ring is cleared and re-enabled at the
   start so trace ids are deterministic per cycle, and a violating
   cycle's dump rides along in the report — the auditor's verdict comes
   with the timeline that led to it.  The previous enabled state is
   restored before the audit so probe traffic doesn't muddy the dump. *)
let run_cycle ?(keep_trace = false) ~shape ~label ~plan ~seed ~txns () =
  Fault.disarm ();
  let was_tracing = Trace.enabled () in
  Trace.clear ();
  Trace.set_enabled true;
  let counters = Instrument.create () in
  let cx =
    {
      rng = Rng.create ~seed;
      oracle = Hashtbl.create 4;
      crashes = 0;
      committed = 0;
    }
  in
  let rig =
    match shape with
    | Kernel -> kernel_rig cx ~counters ~seed ~txns
    | Front parts -> front_rig cx ~counters ~seed ~txns ~parts
    | Branch parts -> branch_rig cx ~counters ~seed ~txns ~parts
    | Bank spec -> bank_rig cx ~counters ~seed ~txns spec
    | Partitioned _ | Replicated _ | Detach _ | Indexed _ ->
      one_tc_rig cx ~counters ~seed ~txns shape
  in
  Fault.arm ~seed plan;
  for i = 0 to txns - 1 do
    rig.iteration i
  done;
  (* Quiesce with the plan still armed: rules that only trigger under
     drain pressure get a last chance, and a kill here must be as
     recoverable as any other. *)
  settle rig.handle rig.quiesce 4;
  let fired = Fault.fired_points () in
  Fault.disarm ();
  Trace.set_enabled was_tracing;
  (* Snapshot counters at the same boundary where tracing stops: the
     auditor's probe traffic belongs to neither the counters nor the
     trace, so the two views describe the identical window and a span
     dump can be reconciled against the counters exactly. *)
  let counters_at_quiesce = Instrument.snapshot counters in
  let report = rig.audit () in
  {
    c_shape = show_shape shape;
    c_txns = txns;
    c_label = label;
    c_seed = seed;
    c_fired = fired;
    c_crashes = cx.crashes;
    c_committed = cx.committed;
    c_redelivered = report.Audit.redelivered;
    c_violations = report.Audit.violations;
    c_counters = counters_at_quiesce;
    c_trace =
      (if keep_trace || report.Audit.violations <> [] then Trace.to_jsonl ()
       else "");
  }

(* --- plans -------------------------------------------------------------- *)

let singles sweeps =
  List.concat_map
    (fun (point, nths) ->
      List.map
        (fun n -> (Printf.sprintf "%s@%d" point n, [ Fault.crash_at point n ]))
        nths)
    sweeps

let pair a na b nb =
  ( Printf.sprintf "%s@%d+%s@%d" a na b nb,
    [ Fault.crash_at a na; Fault.crash_at b nb ] )

(* Not crashes: the transport catches this fault itself and flips a
   byte of the frame, so a probability rule corrupts a fraction of all
   traffic (both channels) for the whole cycle; the checksum gate turns
   each hit into a loss the resend contracts must absorb.  Paired with a
   kill, recovery redo also runs over a corrupting wire. *)
let corrupt pct =
  Fault.crash_with_prob "transport.frame.corrupt" (float pct /. 100.)

let corrupt_and pct point n =
  ( Printf.sprintf "transport.frame.corrupt~%d%%+%s@%d" pct point n,
    [ corrupt pct; Fault.crash_at point n ] )

let plans = function
  | Kernel ->
    (* Every registered crash point at several Nth-hit positions, kills
       during recovery, transient I/O errors and a corrupting wire. *)
    singles
      [
        ("wal.tc.force.begin", [ 1; 4; 9 ]);
        ("wal.tc.force.mid", [ 1; 2; 7 ]);
        ("wal.dc.force.begin", [ 1; 3; 8 ]);
        ("wal.dc.force.mid", [ 1; 2; 4 ]);
        ("dc.flush.before_page_write", [ 1; 3; 7 ]);
        ("dc.flush.after_page_write", [ 1; 3; 7 ]);
        ("dc.smo.split.mid", [ 1; 2; 3 ]);
        ("dc.smo.consolidate.before_force", [ 1; 2 ]);
        ("dc.checkpoint.mid", [ 1 ]);
        ("tc.commit.before_force", [ 1; 6; 14 ]);
        ("tc.commit.after_force", [ 1; 6; 14 ]);
        ("disk.page_write.torn", [ 1; 3; 6 ]);
      ]
    @ [
        (* Crash again while recovering from the first crash. *)
        pair "tc.commit.before_force" 2 "tc.recover.mid" 1;
        pair "tc.commit.after_force" 3 "tc.recover.mid" 3;
        pair "wal.tc.force.mid" 2 "tc.recover.mid" 2;
        (* Two independent DC kills in one cycle. *)
        pair "dc.flush.after_page_write" 2 "dc.flush.before_page_write" 5;
        (* A DC kill, then a second one between two operations of a
           redo batch the restart sends: the batch's prefix is applied,
           its reply never sent. *)
        pair "dc.flush.after_page_write" 2 "dc.redo.batch" 1;
        pair "wal.dc.force.begin" 3 "dc.redo.batch" 3;
        (* Torn write, then a later crash over the repaired page. *)
        pair "disk.page_write.torn" 1 "wal.dc.force.begin" 6;
        ("disk.page_write.io@1", [ Fault.io_error_at "disk.page_write.io" 1 ]);
        ("disk.page_read.io@2", [ Fault.io_error_at "disk.page_read.io" 2 ]);
        ( "disk.page_write.io~3%",
          [ Fault.io_error_with_prob "disk.page_write.io" 0.03 ] );
        ("transport.frame.corrupt~10%", [ corrupt 10 ]);
        corrupt_and 5 "tc.commit.before_force" 3;
        corrupt_and 5 "dc.flush.after_page_write" 2;
      ]
  | Partitioned _ ->
    (* DC-side points kill whichever partition the fault escapes from,
       TC-side commit points exercise redo fan-out across all
       partitions, and the doubles kill two different partitions in one
       cycle (the 1st and Nth hits of a point land on different DCs
       under hash placement with high likelihood). *)
    singles
      [
        ("dc.smo.split.mid", [ 1; 2 ]);
        ("dc.checkpoint.mid", [ 1; 2 ]);
        ("dc.flush.before_page_write", [ 1; 4 ]);
        ("dc.flush.after_page_write", [ 2 ]);
        ("wal.dc.force.mid", [ 1; 3 ]);
        ("tc.commit.before_force", [ 2 ]);
        ("tc.commit.after_force", [ 2 ]);
      ]
    @ [
        pair "dc.smo.split.mid" 1 "dc.flush.after_page_write" 3;
        pair "dc.checkpoint.mid" 1 "wal.dc.force.mid" 2;
        pair "dc.smo.split.mid" 1 "dc.redo.batch" 2;
        corrupt_and 5 "dc.smo.split.mid" 1;
      ]
  | Replicated _ ->
    (* Primary kills at every batch boundary: singles sweep the Nth
       shipped batch (early, mid-workload, deep), a double promotes
       twice in one cycle (needs two standbys), and combos land a cold
       kill next to a promotion — cold restart and failover redo must
       coexist.  Standby kills ride the ordinary DC points, which fire
       inside standby applies too. *)
    singles [ ("repl.ship.batch", [ 1; 2; 3; 5; 9; 14 ]) ]
    @ [
        pair "repl.ship.batch" 2 "repl.ship.batch" 9;
        pair "repl.ship.batch" 3 "dc.flush.after_page_write" 2;
        pair "repl.ship.batch" 4 "tc.commit.after_force" 3;
        pair "dc.smo.split.mid" 1 "repl.ship.batch" 6;
      ]
  | Detach _ ->
    (* The pure interleaving (promotion must catch the laggard up from
       the retained log); ["repl.lease.expire"]@1 force-expires the
       detached replica's lease at the mid-cycle checkpoint, so the
       promotion must refuse and the harness cold-restarts instead; the
       combos land a planned primary kill and a TC kill around the same
       interleaving. *)
    [
      ("detach+ckpt+promote", []);
      ("detach+ckpt+lease.expire@1", [ Fault.crash_at "repl.lease.expire" 1 ]);
      ( "detach+ckpt+promote+ship.batch@6",
        [ Fault.crash_at "repl.ship.batch" 6 ] );
      ( "detach+ckpt+lease.expire@1+tc.commit.after_force@3",
        [
          Fault.crash_at "repl.lease.expire" 1;
          Fault.crash_at "tc.commit.after_force" 3;
        ] );
      ( "detach+ckpt+promote+wal.dc.force.mid@2",
        [ Fault.crash_at "wal.dc.force.mid" 2 ] );
    ]
  | Front _ ->
    (* The scripted kill is the plan's backbone; the optional rules
       layer transport adversity on top of it. *)
    [ ("tc-kill@mid", []); ("tc-kill@mid+corrupt~5%", [ corrupt 5 ]) ]
  | Indexed _ ->
    (* Entry tables take real SMO traffic (tiny pages, long escaped
       keys), so the split point rides every plan family; TC commit
       kills exercise redo of interleaved primary+entry ops. *)
    singles
      [
        ("dc.smo.split.mid", [ 1; 2 ]);
        ("dc.flush.before_page_write", [ 1 ]);
        ("wal.dc.force.mid", [ 2 ]);
        ("tc.commit.before_force", [ 2 ]);
        ("tc.commit.after_force", [ 2 ]);
      ]
    @ [
        pair "dc.smo.split.mid" 1 "tc.commit.after_force" 2;
        corrupt_and 5 "dc.smo.split.mid" 1;
      ]
  | Branch _ ->
    (* DC and TC kills land on whichever side's stack the point escapes
       (attribution decides), the layer point dies inside the parent's
       compaction while a branch pins its history, and the corruption
       plan stresses both transports at once. *)
    (("branch.none", [])
    :: singles
         [
           ("dc.flush.before_page_write", [ 1; 3 ]);
           ("wal.dc.force.mid", [ 2 ]);
           ("tc.commit.before_force", [ 2 ]);
           ("tc.commit.after_force", [ 3 ]);
           (Layer.p_compact_mid, [ 1 ]);
         ])
    @ [
        ("transport.frame.corrupt~5%", [ corrupt 5 ]);
        pair "dc.flush.before_page_write" 2 "tc.commit.after_force" 2;
      ]
  | Bank spec ->
    (* the spec's scripted kills are the whole plan *)
    [ ("bank:" ^ spec.w_name, []) ]

(* --- soaks -------------------------------------------------------------- *)

type summary = {
  s_cycles : int;
  s_fired : int;
  s_crashes : int;
  s_violating : cycle list;
  s_fires_by_point : (string * int) list;
  s_counters : (string * int) list;
}

let summarize cycles =
  let fires = Hashtbl.create 32 in
  let counters = Hashtbl.create 64 in
  let add tbl (name, v) =
    Hashtbl.replace tbl name
      (v + Option.value ~default:0 (Hashtbl.find_opt tbl name))
  in
  List.iter
    (fun c ->
      List.iter (fun p -> add fires (p, 1)) c.c_fired;
      List.iter (add counters) c.c_counters)
    cycles;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    s_cycles = List.length cycles;
    s_fired = List.length (List.filter (fun c -> c.c_fired <> []) cycles);
    s_crashes = List.fold_left (fun acc c -> acc + c.c_crashes) 0 cycles;
    s_violating = List.filter (fun c -> c.c_violations <> []) cycles;
    s_fires_by_point = sorted fires;
    s_counters = sorted counters;
  }

(* Plans are numbered across the shapes, in order: plan [p]'s seeds are
   [base + 131 p + 17 s], [s] < [seeds_per_plan], from the first
   shape's fixed base. *)
let soak ~shapes ~seeds_per_plan =
  let base =
    match shapes with
    | [] -> invalid_arg "Chaos.soak: no shapes"
    | Kernel :: _ -> 0xC1D9
    | Partitioned _ :: _ -> 0x5A4D
    | Replicated _ :: _ -> 0x9E97
    | Detach _ :: _ -> 0xD7AC
    | Front _ :: _ -> 0xF207
    | Indexed _ :: _ -> 0x1D8
    | Branch _ :: _ -> 0xB4A7
    | Bank _ :: _ -> 0xB0B
  in
  let txns = function Bank spec -> spec.Workload.w_txns | _ -> 24 in
  let cycles =
    List.concat_map
      (fun shape -> List.map (fun plan -> (shape, plan)) (plans shape))
      shapes
    |> List.mapi (fun p (shape, (label, plan)) ->
           List.init seeds_per_plan (fun s ->
               run_cycle ~shape ~label ~plan
                 ~seed:(base + (131 * p) + (17 * s))
                 ~txns:(txns shape) ()))
    |> List.concat
  in
  (cycles, summarize cycles)
