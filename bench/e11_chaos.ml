(* E11 — chaos soak: deterministic crash→recover→audit cycles.

   Sweeps every fault plan of every Chaos shape across several seeds:
   each cycle runs a randomized workload against a shadow-map oracle,
   kills the owning component at the planned instant (torn page writes,
   mid-SMO splits, partial log forces, crashes during recovery, ...),
   recovers, quiesces through the resend path, and audits the survivor
   (structure, oracle, version hygiene, abLSN idempotence).  [e11] and
   [chaos] (the @chaos alias, which @ci includes) run the same table of
   soaks, at two columns of seeds per plan.

   The whole run is a pure function of the printed base seed. *)

module Chaos = Untx_audit.Chaos
module Analyzer = Untx_obs.Analyzer

(* A violating cycle carries its span dump (c_trace is only populated
   on violations during soaks): print the analyzer's reconstruction —
   per-hop latencies, resend chains, orphan spans — next to the
   violation lines, so the failing cycle arrives pre-digested. *)
let print_cycle_failures cycles =
  List.iter
    (fun (c : Chaos.cycle) ->
      if c.c_violations <> [] then begin
        Printf.printf "VIOLATION shape=%s plan=%s seed=%d txns=%d fired=[%s]\n"
          c.c_shape c.c_label c.c_seed c.c_txns
          (String.concat "," c.c_fired);
        List.iter (fun v -> Printf.printf "  - %s\n" v) c.c_violations;
        if c.c_trace <> "" then
          Format.printf "  trace of the violating cycle:@.%a@."
            Analyzer.pp_summary
            (Analyzer.analyze (Analyzer.of_jsonl c.c_trace))
      end)
    cycles

let interesting_counters =
  [ "tc.resends"; "tc.recoveries"; "tc.control_resends"; "transport.delivered";
    "transport.control_delivered"; "transport.dropped"; "transport.duplicated";
    "transport.frames_corrupted"; "transport.corrupt_dropped";
    "dc.dup_absorbed"; "dc.control_dups_absorbed"; "disk.io_retries";
    "disk.torn_writes"; "disk.torn_pages_detected" ]

let counter (s : Chaos.summary) name =
  Option.value ~default:0 (List.assoc_opt name s.s_counters)

let no_violations (s : Chaos.summary) = s.s_violating = []
let fired point (s : Chaos.summary) = List.mem_assoc point s.s_fires_by_point
let counted name s = counter s name >= 1
let killed_every_cycle (s : Chaos.summary) = s.s_crashes >= s.s_cycles
let killed_once (s : Chaos.summary) = s.s_crashes >= 1

(* One MD5 over every cycle's identity and outcome — shape, plan, seed,
   fired points, kills, commits, audit redeliveries, violations and the
   whole counter snapshot — so a [cmp] of two runs' output catches a
   counter that moved in one cycle while every summed table stayed put. *)
let cycle_digest cycles =
  let b = Buffer.create 4096 in
  let add_list f l =
    Printf.bprintf b "%d[" (List.length l);
    List.iter f l;
    Buffer.add_char b ']'
  in
  let add_string s = Printf.bprintf b "%d:%s;" (String.length s) s in
  List.iter
    (fun (c : Chaos.cycle) ->
      add_string c.c_shape;
      add_string c.c_label;
      Printf.bprintf b "%d;%d;%d;%d;" c.c_seed c.c_crashes c.c_committed
        c.c_redelivered;
      add_list add_string c.c_fired;
      add_list add_string c.c_violations;
      add_list
        (fun (name, v) ->
          add_string name;
          Printf.bprintf b "%d;" v)
        c.c_counters)
    cycles;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* One soak of the table: its shapes, its seeds per plan in [e11] and
   in [chaos], the titles of its fires-per-point table (if it prints
   one) and summary table, the Instrument counters whose sums it
   prints, its summary rows beyond the common ones as (label, counter),
   and its gates as (predicate, message). *)
type soak = {
  name : string;
  shapes : Chaos.shape list;
  seeds : int * int;
  fires : string option;
  summary : string;
  counters : string list;
  rows : (string * string) list;
  gates : ((Chaos.summary -> bool) * string) list;
}

let soaks =
  [
    { name = "kernel"; shapes = [ Kernel ]; seeds = (7, 1);
      fires = Some "E11: fires per fault point";
      summary = "E11: soak summary"; counters = interesting_counters;
      rows = [];
      gates =
        [ (no_violations, "auditor violations");
          (* off below 5 seeds per plan: [s_cycles] is seeds x plans *)
          ( (fun s ->
              s.s_fired >= 200
              || s.s_cycles < 5 * List.length (Chaos.plans Kernel)),
            "fewer than 200 fired cycles" );
          ( (fun s -> List.length s.s_fires_by_point >= 8),
            "fewer than 8 distinct points fired" );
          (fired "disk.page_write.torn", "no torn page write fired");
          (fired "dc.smo.split.mid", "no mid-SMO crash fired") ] };
    (* One TC fronting three hash-partitioned DCs: a killed partition
       recovers alone while its siblings keep serving, and the
       deployment auditor checks every partition plus the merged
       oracle. *)
    { name = "partitioned"; shapes = [ Partitioned 3 ]; seeds = (7, 4);
      fires = Some "E11: partitioned soak (1 TC x 3 DCs), fires per point";
      summary = "E11: partitioned soak summary"; counters = []; rows = [];
      gates =
        [ (no_violations, "partitioned auditor violations");
          ((fun s -> s.s_cycles >= 50), "fewer than 50 partitioned cycles");
          (fired "dc.smo.split.mid", "no mid-SMO partition kill fired");
          (fired "dc.checkpoint.mid", "no mid-checkpoint-grant kill fired") ] };
    (* Warm standbys on both partitions, Quorum 1 / Primary_only
       alternating by seed: a shipped-batch kill is answered by standby
       promotion, and every surviving standby is held to parity with
       its primary. *)
    { name = "replicated";
      shapes = [ Replicated { parts = 2; replicas = 2; durability = None } ];
      seeds = (5, 3);
      fires =
        Some
          "E11: replicated soak (1 TC x 2 DCs x 2 standbys), fires per point";
      summary = "E11: replicated soak summary"; counters = [];
      rows =
        [ ("standby promotions", "repl.promotions");
          ("batches shipped", "repl.ships") ];
      gates =
        [ (no_violations, "replicated auditor violations");
          (fired "repl.ship.batch", "no shipped-batch kill fired");
          (counted "repl.promotions", "no standby was ever promoted") ] };
    (* dc0's standby detaches, a checkpoint passes its frozen cursor and
       it is promoted: the promotion catches it up from the retained log
       or, once its lease expired, refuses and cold-restarts. *)
    { name = "detach";
      shapes = [ Detach { parts = 2; replicas = 1; durability = None } ];
      seeds = (4, 2);
      fires =
        Some
          "E11: detach/checkpoint/promote soak (1 TC x 2 DCs x 1 standby), \
           fires per point";
      summary = "E11: detach soak summary"; counters = [];
      rows =
        [ ("laggard promotions", "repl.promotions");
          ( "promotions refused (cold restart instead)",
            "repl.promote_refusals" );
          ("catch-up ops re-shipped at promotion", "repl.catchup_ops");
          ("retention leases expired", "repl.lease_expirations") ];
      gates =
        [ (no_violations, "detach-soak auditor violations");
          (counted "repl.promotions", "no laggard was ever promoted");
          ( counted "repl.catchup_ops",
            "promotion never had to catch a laggard up" );
          (fired "repl.lease.expire", "no forced lease expiry fired");
          ( counted "repl.promote_refusals",
            "forced lease expiry never produced a refusal" );
          (counted "repl.lease_expirations", "no retention lease ever expired")
        ] };
    (* Two TCs behind the session front end, one hard-killed mid-run with
       queued transactions; the audit runs per TC, with the cross-TC
       watermark check. *)
    { name = "multi-TC"; shapes = [ Front 2 ]; seeds = (6, 2); fires = None;
      summary = "E11: multi-TC front-end soak (2 TCs x 2 DCs) summary";
      counters = [];
      rows =
        [ ("transactions admitted", "front.admitted");
          ("admissions shed", "front.shed");
          ("commits that rode a batch", "front.batched");
          ("misattributed frames", "dc.misattributed") ];
      gates =
        [ (no_violations, "multi-TC auditor violations");
          (killed_every_cycle, "a cycle never killed its TC");
          (counted "front.admitted", "the front never admitted work");
          (counted "front.batched", "group commit never batched") ] };
    (* Every mutation maintains two secondary indexes; the audit holds
       each entry table to exact parity with the surviving rows. *)
    { name = "indexed"; shapes = [ Indexed 2 ]; seeds = (6, 2);
      fires =
        Some
          "E11: indexed soak (1 TC x 2 DCs, 2 secondary indexes), fires per \
           point";
      summary = "E11: indexed soak summary"; counters = []; rows = [];
      gates =
        [ (no_violations, "indexed auditor violations");
          (fired "dc.smo.split.mid", "no mid-SMO kill fired on an entry table");
          (killed_once, "no cycle ever killed a component") ] };
    (* A copy-on-write branch forked under load, the parent compacted and
       truncated past it, the branch DC killed; the audit adds branch
       parity at the fork point. *)
    { name = "branch"; shapes = [ Branch 2 ]; seeds = (4, 1);
      fires =
        Some "E11: branch soak (1 TC x 2 DCs + CoW branch), fires per point";
      summary = "E11: branch soak summary"; counters = []; rows = [];
      gates =
        [ (no_violations, "branch auditor violations");
          (killed_once, "no cycle ever killed a component") ] };
    (* Every workload-bank spec, differentially against its sequential
       oracle with its scripted kills, then the full deployment audit. *)
    { name = "workload bank";
      shapes =
        List.map (fun s -> Chaos.Bank s) (Untx_workload.Workload.bank ());
      seeds = (4, 1); fires = None; summary = "E11: workload-bank soak summary";
      counters = []; rows = [];
      gates =
        [ (no_violations, "workload-bank violations");
          (killed_every_cycle, "a workload cycle never killed a component") ] };
  ]

(* One soak's report: the fires-per-point table if the soak has one, the
   common summary rows with the soak's own, the summed counters it
   names, the per-cycle digest line, the violating cycles, and its
   gates.  The run stops at the first soak that fails a gate. *)
let report soak (cycles, (s : Chaos.summary)) =
  let points = List.length s.s_fires_by_point in
  let table ~title header rows =
    Bench_util.print_table ~title ~header
      (List.map (fun (k, v) -> [ k; string_of_int v ]) rows)
  in
  Option.iter
    (fun title -> table ~title [ "fault point"; "fires" ] s.s_fires_by_point)
    soak.fires;
  table ~title:soak.summary [ "metric"; "value" ]
    ([ ("shapes", List.length soak.shapes);
       ("cycles", s.s_cycles);
       ("cycles with a fire", s.s_fired);
       ("distinct points fired", points);
       ("injected hard kills", s.s_crashes);
       ( "stable ops re-delivered by audits",
         List.fold_left
           (fun n (c : Chaos.cycle) -> n + c.c_redelivered)
           0 cycles ) ]
    @ List.map (fun (label, name) -> (label, counter s name)) soak.rows
    @ [ ("auditor violations", List.length s.s_violating) ]);
  if soak.counters <> [] then
    table ~title:"E11: summed Instrument counters" [ "counter"; "total" ]
      (List.filter_map
         (fun name ->
           Option.map (fun v -> (name, v)) (List.assoc_opt name s.s_counters))
         soak.counters);
  Printf.printf "%s: per-cycle digest %s over %d cycles\n" soak.summary
    (cycle_digest cycles) (List.length cycles);
  print_cycle_failures cycles;
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok s then None else Some msg)
      soak.gates
  in
  if problems <> [] then begin
    List.iter (fun m -> Printf.printf "E11 FAILED: %s\n" m) problems;
    exit 1
  end;
  Printf.printf
    "E11 %s ok: %d cycles, %d fired, %d distinct points, %d kills, 0 \
     violations\n"
    soak.name s.s_cycles s.s_fired points s.s_crashes

(* Every soak of the table in order, at one column's seeds per plan. *)
let run_column column () =
  List.iteri
    (fun i soak ->
      let ((cycles, _) as result) =
        Chaos.soak ~shapes:soak.shapes ~seeds_per_plan:(column soak.seeds)
      in
      if i = 0 then
        Printf.printf
          "base seed: 0x%X   (rerun: every cycle is a pure function of it)\n"
          (List.hd cycles).Chaos.c_seed;
      report soak result)
    soaks

let run = run_column fst
let run_short = run_column snd
