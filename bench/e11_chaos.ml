(* E11 — chaos soak: deterministic crash→recover→audit cycles.

   Sweeps every fault plan of every Chaos shape across several seeds:
   each cycle runs a randomized workload against a shadow-map oracle,
   kills the owning component at the planned instant (torn page writes,
   mid-SMO splits, partial log forces, crashes during recovery, ...),
   recovers, quiesces through the resend path, and audits the survivor
   (structure, oracle, version hygiene, abLSN idempotence).

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
  [
    "tc.resends";
    "tc.request_timeouts";
    "tc.recoveries";
    "tc.control_resends";
    "transport.delivered";
    "transport.control_delivered";
    "transport.dropped";
    "transport.duplicated";
    "transport.frames_corrupted";
    "transport.corrupt_dropped";
    "transport.flush_delivered";
    "dc.dup_absorbed";
    "dc.control_dups_absorbed";
    "disk.io_retries";
    "disk.torn_writes";
    "disk.torn_pages_detected";
  ]


let counter (s : Chaos.summary) name =
  Option.value ~default:0 (List.assoc_opt name s.s_counters)

let fired (s : Chaos.summary) point = List.mem_assoc point s.s_fires_by_point

(* One soak's report: the fires-per-point table when [fires] titles one,
   the summary rows (then "auditor violations"), the summed [counters]
   when any are named, the violating cycles, and the gates — the first
   one being that no cycle violated.  The run stops at the first soak
   that fails a gate. *)
let report ~fires ~summary ~rows ~counters ~violations ~gates ~ok
    (cycles, (s : Chaos.summary)) =
  Option.iter
    (fun title ->
      Bench_util.print_table ~title ~header:[ "fault point"; "fires" ]
        (List.map (fun (p, n) -> [ p; string_of_int n ]) s.s_fires_by_point))
    fires;
  Bench_util.print_table ~title:summary ~header:[ "metric"; "value" ]
    (List.map
       (fun (metric, v) -> [ metric; string_of_int v ])
       (rows @ [ ("auditor violations", List.length s.s_violating) ]));
  if counters <> [] then
    Bench_util.print_table ~title:"E11: summed Instrument counters"
      ~header:[ "counter"; "total" ]
      (List.filter_map
         (fun name ->
           List.assoc_opt name s.s_counters
           |> Option.map (fun v -> [ name; string_of_int v ]))
         counters);
  print_cycle_failures cycles;
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      ((s.s_violating = [], violations) :: gates)
  in
  if problems <> [] then begin
    List.iter (fun m -> Printf.printf "E11 FAILED: %s\n" m) problems;
    exit 1
  end;
  print_endline ok

let run_soak ~seeds_per_plan () =
  let ((cycles, s) as soak) = Chaos.soak ~shape:Kernel ~seeds_per_plan in
  Printf.printf
    "base seed: 0x%X   (rerun: every cycle is a pure function of it)\n"
    (List.hd cycles).Chaos.c_seed;
  let points = List.length s.s_fires_by_point in
  report soak ~fires:(Some "E11: fires per fault point")
    ~summary:"E11: soak summary"
    ~rows:
      [
        ("cycles", s.s_cycles);
        ("cycles with a fire", s.s_fired);
        ("distinct points fired", points);
        ("injected hard kills", s.s_crashes);
        ( "stable ops re-delivered by audits",
          List.fold_left
            (fun acc (c : Chaos.cycle) -> acc + c.c_redelivered)
            0 cycles );
      ]
    ~counters:interesting_counters ~violations:"auditor violations"
    ~gates:
      [
        (s.s_fired >= 200 || seeds_per_plan < 5, "fewer than 200 fired cycles");
        (points >= 8, "fewer than 8 distinct points fired");
        (fired s "disk.page_write.torn", "no torn page write fired");
        (fired s "dc.smo.split.mid", "no mid-SMO crash fired");
      ]
    ~ok:
      (Printf.sprintf
         "E11 ok: %d cycles, %d fired, %d distinct points, 0 violations"
         s.s_cycles s.s_fired points)

(* The partitioned soak: every cycle is one TC fronting [parts]
   hash-partitioned DCs.  Fault plans kill a single partition mid-SMO,
   mid-checkpoint-grant, mid-flush and mid-WAL-force (plus double-kill
   and corrupting-wire plans); the crashed partition recovers alone
   while its siblings keep serving, and the deployment auditor checks
   every partition plus the merged oracle. *)
let run_soak_partitioned ~seeds_per_plan () =
  let parts = 3 in
  let ((_, s) as soak) =
    Chaos.soak ~shape:(Partitioned parts) ~seeds_per_plan
  in
  report soak
    ~fires:
      (Some
         (Printf.sprintf
            "E11: partitioned soak (1 TC x %d DCs), fires per point" parts))
    ~summary:"E11: partitioned soak summary"
    ~rows:
      [
        ("cycles", s.s_cycles);
        ("cycles with a fire", s.s_fired);
        ("injected hard kills", s.s_crashes);
      ]
    ~counters:[] ~violations:"partitioned auditor violations"
    ~gates:
      [
        (s.s_cycles >= 50, "fewer than 50 partitioned cycles");
        (fired s "dc.smo.split.mid", "no mid-SMO partition kill fired");
        (fired s "dc.checkpoint.mid", "no mid-checkpoint-grant kill fired");
      ]
    ~ok:
      (Printf.sprintf
         "E11 partitioned ok: %d cycles over %d partitions, %d kills, 0 \
          violations"
         s.s_cycles parts s.s_crashes)

(* The replicated soak: every cycle gives both partitions warm standbys
   and alternates Quorum 1 / Primary_only durability by seed.  Kills at
   the shipped-batch boundary are answered by standby promotion instead
   of a cold restart; standby-side kills crash and rejoin the standby.
   The auditor additionally holds every surviving standby to logical
   parity with its primary. *)
let run_soak_replicated ~seeds_per_plan () =
  let parts = 2 and replicas = 2 in
  let ((_, s) as soak) =
    Chaos.soak
      ~shape:(Replicated { parts; replicas; durability = None })
      ~seeds_per_plan
  in
  let promotions = counter s "repl.promotions" in
  report soak
    ~fires:
      (Some
         (Printf.sprintf
            "E11: replicated soak (1 TC x %d DCs x %d standbys), fires per \
             point"
            parts replicas))
    ~summary:"E11: replicated soak summary"
    ~rows:
      [
        ("cycles", s.s_cycles);
        ("cycles with a fire", s.s_fired);
        ("injected hard kills", s.s_crashes);
        ("standby promotions", promotions);
        ("batches shipped", counter s "repl.ships");
      ]
    ~counters:[] ~violations:"replicated auditor violations"
    ~gates:
      [
        (fired s "repl.ship.batch", "no shipped-batch kill fired");
        (promotions >= 1, "no standby was ever promoted");
      ]
    ~ok:
      (Printf.sprintf
         "E11 replicated ok: %d cycles, %d kills, %d promotions, 0 violations"
         s.s_cycles s.s_crashes promotions)

(* The detach soak: every cycle detaches dc0's sole standby a quarter
   in, lands a granted checkpoint past its frozen cursor mid-workload
   (burning its retention lease), and promotes it at the three-quarter
   mark.  The promotion must catch the laggard up from the retained log
   — or, under the forced-lease-expiry plan, refuse and cold-restart.
   Either way the auditor must find every acked commit. *)
let run_soak_detach ~seeds_per_plan () =
  let parts = 2 and replicas = 1 in
  let ((_, s) as soak) =
    Chaos.soak
      ~shape:(Detach { parts; replicas; durability = None })
      ~seeds_per_plan
  in
  let promotions = counter s "repl.promotions"
  and refusals = counter s "repl.promote_refusals"
  and catchup_ops = counter s "repl.catchup_ops"
  and expirations = counter s "repl.lease_expirations" in
  report soak
    ~fires:
      (Some
         (Printf.sprintf
            "E11: detach/checkpoint/promote soak (1 TC x %d DCs x %d standby), \
             fires per point"
            parts replicas))
    ~summary:"E11: detach soak summary"
    ~rows:
      [
        ("cycles", s.s_cycles);
        ("injected hard kills", s.s_crashes);
        ("laggard promotions", promotions);
        ("promotions refused (cold restart instead)", refusals);
        ("catch-up ops re-shipped at promotion", catchup_ops);
        ("retention leases expired", expirations);
      ]
    ~counters:[] ~violations:"detach-soak auditor violations"
    ~gates:
      [
        (promotions >= 1, "no laggard was ever promoted");
        (catchup_ops >= 1, "promotion never had to catch a laggard up");
        (fired s "repl.lease.expire", "no forced lease expiry fired");
        (refusals >= 1, "forced lease expiry never produced a refusal");
        (expirations >= 1, "no retention lease ever expired");
      ]
    ~ok:
      (Printf.sprintf
         "E11 detach ok: %d cycles, %d promotions (%d catch-up ops), %d \
          refusals, 0 violations"
         s.s_cycles promotions catchup_ops refusals)

(* The multi-TC soak: two TCs behind the session front end, one
   hard-killed at the midpoint with queued transactions on its
   sessions.  The auditor runs per TC and includes the cross-TC
   watermark check, so the victim's crash leaking into the survivor's
   watermark slots — or a checkpoint truncating the other TC's redo
   window — is a reported violation. *)
let run_soak_mtc ~seeds_per_plan () =
  let parts = 2 in
  let ((_, s) as soak) = Chaos.soak ~shape:(Front parts) ~seeds_per_plan in
  report soak ~fires:None
    ~summary:
      (Printf.sprintf "E11: multi-TC front-end soak (2 TCs x %d DCs) summary"
         parts)
    ~rows:
      [
        ("cycles", s.s_cycles);
        ("injected TC kills", s.s_crashes);
        ("transactions admitted", counter s "front.admitted");
        ("admissions shed", counter s "front.shed");
        ("commits that rode a batch", counter s "front.batched");
        ("misattributed frames", counter s "dc.misattributed");
      ]
    ~counters:[] ~violations:"multi-TC auditor violations"
    ~gates:
      [
        (s.s_crashes >= s.s_cycles, "a cycle never killed its TC");
        (counter s "front.admitted" > 0, "the front never admitted work");
        (counter s "front.batched" > 0, "group commit never batched");
      ]
    ~ok:
      (Printf.sprintf
         "E11 multi-TC ok: %d cycles, %d TC kills under load, 0 violations"
         s.s_cycles s.s_crashes)

(* The indexed soak: every cycle routes all mutations through the
   Index wrappers on a table carrying two secondary indexes, under a
   seed-picked Section 3.1 lock protocol.  Fault plans kill
   mid-entry-table-SMO, mid-flush, mid-WAL-force and at both
   commit-force edges; the audit holds every merged entry table to
   exact parity with the image of the surviving primary rows. *)
let run_soak_indexed ~seeds_per_plan () =
  let parts = 2 in
  let ((_, s) as soak) = Chaos.soak ~shape:(Indexed parts) ~seeds_per_plan in
  report soak
    ~fires:
      (Some
         (Printf.sprintf
            "E11: indexed soak (1 TC x %d DCs, 2 secondary indexes), fires per \
             point"
            parts))
    ~summary:"E11: indexed soak summary"
    ~rows:
      [
        ("cycles", s.s_cycles);
        ("cycles with a fire", s.s_fired);
        ("injected hard kills", s.s_crashes);
      ]
    ~counters:[] ~violations:"indexed auditor violations"
    ~gates:
      [
        (fired s "dc.smo.split.mid", "no mid-SMO kill fired on an entry table");
        (s.s_crashes >= 1, "no cycle ever killed a component");
      ]
    ~ok:
      (Printf.sprintf
         "E11 indexed ok: %d cycles, %d kills, index parity clean, 0 violations"
         s.s_cycles s.s_crashes)

(* The branch soak: every cycle forks a copy-on-write branch at the
   stable LSN a third into the workload, drives parent and branch over
   the same key space, compacts + truncates the parent (the cut must
   clamp at the live fork pin) and kills the branch DC at the two-thirds
   mark.  The audit adds branch-parity to the full deployment audit:
   the branch tracks its own shadow map and the shared prefix at the
   fork point stays bit-identical. *)
let run_soak_branch ~seeds_per_plan () =
  let parts = 2 in
  let ((_, s) as soak) = Chaos.soak ~shape:(Branch parts) ~seeds_per_plan in
  report soak
    ~fires:
      (Some
         (Printf.sprintf
            "E11: branch soak (1 TC x %d DCs + CoW branch), fires per point"
            parts))
    ~summary:"E11: branch soak summary"
    ~rows:
      [
        ("cycles", s.s_cycles);
        ("cycles with a fire", s.s_fired);
        ("injected hard kills", s.s_crashes);
      ]
    ~counters:[] ~violations:"branch auditor violations"
    ~gates:[ (s.s_crashes >= 1, "no cycle ever killed a component") ]
    ~ok:
      (Printf.sprintf
         "E11 branch ok: %d cycles, %d kills, branch parity clean, 0 violations"
         s.s_cycles s.s_crashes)

(* The workload-bank soak: every bank spec runs differentially against
   its sequential oracle (scripted DC/TC kills included) across several
   seeds, then takes the full deployment audit — per-table oracle
   parity plus index parity for the index-maintaining specs. *)
let run_soak_workloads ~seeds_per_spec () =
  let ((_, s) as soak) = Chaos.soak_workloads ~seeds_per_spec in
  let specs = List.length (Untx_workload.Workload.bank ()) in
  report soak ~fires:None ~summary:"E11: workload-bank soak summary"
    ~rows:
      [
        ("bank specs", specs);
        ("cycles", s.s_cycles);
        ("injected DC/TC kills", s.s_crashes);
      ]
    ~counters:[] ~violations:"workload-bank violations"
    ~gates:
      [
        ( s.s_crashes >= s.s_cycles,
          "a workload cycle never killed a component" );
      ]
    ~ok:
      (Printf.sprintf
         "E11 workload bank ok: %d cycles over %d specs, %d kills, 0 violations"
         s.s_cycles specs s.s_crashes)

let run () =
  run_soak ~seeds_per_plan:7 ();
  run_soak_partitioned ~seeds_per_plan:7 ();
  run_soak_replicated ~seeds_per_plan:5 ();
  run_soak_detach ~seeds_per_plan:4 ();
  run_soak_mtc ~seeds_per_plan:6 ();
  run_soak_indexed ~seeds_per_plan:6 ();
  run_soak_branch ~seeds_per_plan:4 ();
  run_soak_workloads ~seeds_per_spec:4 ()

(* Short fixed-seed soak for the @chaos dune alias (which @ci includes):
   single-kernel plans at one seed each, plus the multi-DC soak at four
   seeds per plan — at least 50 partitioned cycles on every CI run —
   plus primary-kill + promotion cycles over the replicated plans,
   detach/checkpoint/promote cycles over the lease plans,
   TC-kill-under-load cycles over the front-end plans,
   kill-mid-index-maintenance cycles over the indexed plans, and one
   seed of every differential workload-bank spec. *)
let run_short () =
  run_soak ~seeds_per_plan:1 ();
  run_soak_partitioned ~seeds_per_plan:4 ();
  run_soak_replicated ~seeds_per_plan:3 ();
  run_soak_detach ~seeds_per_plan:2 ();
  run_soak_mtc ~seeds_per_plan:2 ();
  run_soak_indexed ~seeds_per_plan:2 ();
  run_soak_branch ~seeds_per_plan:1 ();
  run_soak_workloads ~seeds_per_spec:1 ()
