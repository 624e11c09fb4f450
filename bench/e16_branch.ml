(* E16 — copy-on-write branches over the layered log tier.

   1. Fork cost vs database size: forking is O(metadata) — a retention
      pin plus a fresh TC/DC/transport/store — so the time to create a
      branch must stay flat while the parent grows 10x.  A fork that
      copies state would scale with the row count and fail the gate.

   2. Read/write overhead through the branch surface: the first touch
      of a key pays a materialization (one system transaction installing
      the fork-point base state); warm operations ride the branch TC's
      ordinary dispatch path and should price like the parent's.

   3. Parent compaction and history truncation with a live branch: the
      branch's fork-point pin clamps the parent's truncation cut, so
      rounds of divergent traffic + compact + truncate must leave the
      shared prefix byte-identical through both sides.  Audited with
      the same branch-parity checker the chaos soak uses. *)

module Deploy = Untx_cloud.Deploy
module Branch = Untx_branch.Branch
module Repl = Untx_repl.Repl
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Audit = Untx_audit.Audit
module Layer = Untx_layer.Layer
module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics

let table = "t"

let make_deploy ?counters ~parts () =
  let d = Deploy.create ?counters ~layers:true () in
  let tc = Deploy.add_tc d ~name:"tc1" (Tc.default_config (Tc_id.of_int 1)) in
  let dcs = List.init parts (Printf.sprintf "dc%d") in
  List.iter (fun n -> ignore (Deploy.add_dc d ~name:n Dc.default_config)) dcs;
  Deploy.add_partitioned_table d ~replicas:0 ~name:table ~versioned:false ~dcs
    ();
  (d, tc)

let commit_one tc = Bench_util.upsert (Untx_kernel.Engine.of_tc tc) ~table

let fill tc ?(value = "base") n =
  for i = 0 to n - 1 do
    commit_one tc ~key:(Printf.sprintf "k%05d" i) ~value
  done

let stamp d tc =
  Deploy.quiesce d;
  Tc.force_log tc;
  Tc.stable_lsn tc

let br_commit br = Bench_util.upsert (Branch.engine br) ~table

let br_read br ~key =
  let txn = Branch.begin_txn br in
  let v =
    match Branch.read br txn ~table ~key with
    | `Ok v -> v
    | `Blocked | `Fail _ -> failwith "branch read failed"
  in
  (match Branch.commit br txn with
  | `Ok () -> ()
  | `Blocked | `Fail _ -> failwith "branch read-commit failed");
  v

(* --- 1: fork cost vs database size ------------------------------------ *)

(* Min-of-k forks per size: the minimum is robust against allocation
   and GC jitter at the microsecond scale where forks live. *)
let forks_per_size = 7

let run_fork_cost () =
  let sizes = [ 250; 1_000; 2_500 ] in
  let rows, mins =
    List.split
      (List.map
         (fun n ->
           let counters = Instrument.create () in
           let d, tc = make_deploy ~counters ~parts:2 () in
           fill tc n;
           let fork = stamp d tc in
           (* branch.fork_ns only records while timing is on *)
           Metrics.set_timed counters true;
           let copied = ref 0 in
           for i = 0 to forks_per_size - 1 do
             let name = Printf.sprintf "f%d" i in
             let br = Deploy.create_branch d ~from_lsn:fork ~name in
             copied := !copied + Branch.materialized_count br;
             Deploy.delete_branch d name
           done;
           Metrics.set_timed counters false;
           let s =
             match Metrics.hist_snapshot counters "branch.fork_ns" with
             | Some s -> s
             | None -> failwith "no branch.fork_ns samples"
           in
           if s.Metrics.s_count <> forks_per_size then
             failwith "missed fork samples";
           if !copied <> 0 then failwith "fork copied records";
           ( [
               string_of_int n;
               string_of_int (Lsn.to_int fork);
               Printf.sprintf "%.1f" (float_of_int s.Metrics.s_min /. 1e3);
               Printf.sprintf "%.1f"
                 (float_of_int (Metrics.percentile s 50.) /. 1e3);
               Printf.sprintf "%.1f" (float_of_int s.Metrics.s_max /. 1e3);
             ],
             (n, s.Metrics.s_min) ))
         sizes)
  in
  Bench_util.print_table
    ~title:
      (Printf.sprintf "E16: fork cost vs parent size (min of %d forks)"
         forks_per_size)
    ~header:[ "rows"; "fork lsn"; "min us"; "p50 us"; "max us" ]
    rows;
  mins

(* --- 2: branch read/write overhead vs mainline ------------------------- *)

let run_overhead () =
  let keys = 200 in
  let reads = 2_000 in
  let writes = 500 in
  let d, tc = make_deploy ~parts:2 () in
  fill tc keys;
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b" in
  let key i = Printf.sprintf "k%05d" (i mod keys) in
  let parent_read () =
    for i = 0 to reads - 1 do
      if Tc.read_committed tc ~table ~key:(key i) = None then
        failwith "parent read missed"
    done
  in
  let branch_read () =
    for i = 0 to reads - 1 do
      if br_read br ~key:(key i) = None then failwith "branch read missed"
    done
  in
  (* first touch per key: the copy-on-write install *)
  let (), cold_s =
    Bench_util.time (fun () ->
        for i = 0 to keys - 1 do
          ignore (br_read br ~key:(key i))
        done)
  in
  let (), warm_s = Bench_util.time branch_read in
  let (), parent_s = Bench_util.time parent_read in
  let (), pw_s =
    Bench_util.time (fun () ->
        for i = 0 to writes - 1 do
          commit_one tc ~key:(key i) ~value:"pw"
        done)
  in
  let (), bw_s =
    Bench_util.time (fun () ->
        for i = 0 to writes - 1 do
          br_commit br ~key:(key i) ~value:"bw"
        done)
  in
  let us n s = Printf.sprintf "%.2f" (s *. 1e6 /. float_of_int n) in
  let ratio a b = Printf.sprintf "%.2f" (a /. b) in
  Bench_util.print_table
    ~title:
      (Printf.sprintf
         "E16: branch surface overhead (%d keys, %d reads, %d writes)" keys
         reads writes)
    ~header:[ "operation"; "us/op"; "vs parent" ]
    [
      [ "parent point read"; us reads parent_s; "1.00" ];
      [
        "branch first-touch read (CoW install)";
        us keys cold_s;
        ratio (cold_s /. float_of_int keys)
          (parent_s /. float_of_int reads);
      ];
      [
        "branch warm read";
        us reads warm_s;
        ratio (warm_s /. float_of_int reads) (parent_s /. float_of_int reads);
      ];
      [ "parent committed write"; us writes pw_s; "1.00" ];
      [
        "branch committed write (materialized)";
        us writes bw_s;
        ratio (bw_s /. float_of_int writes) (pw_s /. float_of_int writes);
      ];
    ];
  Deploy.delete_branch d "b"

(* --- 3: parent compaction + truncation under a live branch ------------ *)

let run_compaction_soak () =
  let rounds = 6 in
  let base_rows = 300 in
  let d, tc = make_deploy ~parts:2 () in
  fill tc base_rows;
  let fork = stamp d tc in
  let br = Deploy.create_branch d ~from_lsn:fork ~name:"b" in
  let m = Deploy.manager d ~tc:"tc1" in
  let store =
    match Repl.Manager.layer_store m with
    | Some s -> s
    | None -> failwith "no layer store"
  in
  let compactions = ref 0 and last_below = ref Lsn.zero in
  for r = 1 to rounds do
    for i = 0 to 49 do
      commit_one tc
        ~key:(Printf.sprintf "k%05d" ((r * 37) + (i * 3) mod base_rows))
        ~value:(Printf.sprintf "parent-r%d" r)
    done;
    for i = 0 to 24 do
      br_commit br
        ~key:(Printf.sprintf "k%05d" ((r * 53) + (i * 7) mod base_rows))
        ~value:(Printf.sprintf "branch-r%d" r)
    done;
    let stable = stamp d tc in
    Repl.Manager.compact_layers m;
    incr compactions;
    ignore (Deploy.truncate_history d ~below:stable);
    last_below := stable;
    Branch.quiesce br
  done;
  let cut = Layer.history_from store in
  let violations = Audit.check_branch d ~name:"b" ~table in
  (* the pin must have clamped every cut: the fork point still answers *)
  let fork_read =
    Deploy.read_as_of d ~table ~key:"k00000" ~at:fork = Some "base"
    && Branch.read_as_of br ~table ~key:"k00000" ~at:fork = Some "base"
  in
  Bench_util.print_table
    ~title:"E16: parent compaction + truncation under a live branch"
    ~header:
      [
        "rounds"; "compactions"; "fork lsn"; "asked cut"; "pinned cut";
        "violations";
      ]
    [
      [
        string_of_int rounds;
        string_of_int !compactions;
        string_of_int (Lsn.to_int fork);
        string_of_int (Lsn.to_int !last_below);
        string_of_int (Lsn.to_int cut);
        string_of_int (List.length violations);
      ];
    ];
  List.iter (fun v -> Printf.printf "  violation: %s\n" v) violations;
  (* the pin must have clamped every cut at the fork point exactly *)
  let clamped = cut = fork && Lsn.(!last_below > fork) in
  (violations, fork_read && clamped)

(* ----------------------------------------------------------------------- *)

let run () =
  let mins = run_fork_cost () in
  run_overhead ();
  let violations, fork_read = run_compaction_soak () in
  (* acceptance: fork cost flat across a 10x parent — a fork that
     scaled with the row count would blow an 8x allowance wide open *)
  let _, small = List.hd mins in
  let big_n, big = List.nth mins (List.length mins - 1) in
  let ratio = float_of_int big /. float_of_int (max 1 small) in
  if ratio > 8.0 then begin
    Printf.printf
      "E16 FAILED: fork at %d rows cost %.1fx the smallest parent\n" big_n
      ratio;
    exit 1
  end;
  if violations <> [] then begin
    Printf.printf "E16 FAILED: %d branch-parity violations after compaction\n"
      (List.length violations);
    exit 1
  end;
  if not fork_read then begin
    Printf.printf "E16 FAILED: fork-point read lost after truncation\n";
    exit 1
  end;
  Printf.printf "E16 ok: fork cost %.2fx across 10x rows, 0 violations\n"
    ratio
