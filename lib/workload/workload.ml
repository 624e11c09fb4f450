module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Stored_record = Untx_dc.Stored_record
module Tc_id = Untx_util.Tc_id
module Rng = Untx_util.Rng
module Zipf = Untx_util.Zipf
module Instrument = Untx_util.Instrument
module Deploy = Untx_cloud.Deploy
module Index = Untx_index.Index
module Branch = Untx_branch.Branch
module Lsn = Untx_util.Lsn
module Engine = Untx_kernel.Engine

type crash = Crash_dc | Crash_tc | Crash_branch

type spec = {
  w_name : string;
  w_desc : string;
  w_protocol : Tc.cc_protocol;
  w_tables : (string * bool) list;
  w_indexed : bool;
  w_parts : int;
  w_replicas : int;
  w_txns : int;
  w_keyspace : int;
  w_theta : float;
  w_value_len : int * int;
  w_scan_prob : float;
  w_lookup_prob : float;
  w_rmw_prob : float;
  w_abort_prob : float;
  w_poison_prob : float;
  w_crashes : crash list;
  w_branch_at : float option;
}

type result = {
  r_name : string;
  r_committed : int;
  r_aborted : int;
  r_crashes : int;
  r_checks : int;
  r_violations : string list;
}

type env = {
  e_deploy : Deploy.t;
  e_idx : Index.t;
  e_expected : (string * (string * string) list) list;
}

(* ------------------------------------------------------------------ *)
(* The bank                                                            *)

let base =
  {
    w_name = "";
    w_desc = "";
    w_protocol = Tc.Key_locks;
    w_tables = [ ("kv", true) ];
    w_indexed = false;
    w_parts = 2;
    w_replicas = 0;
    w_txns = 60;
    w_keyspace = 200;
    w_theta = 0.;
    w_value_len = (6, 18);
    w_scan_prob = 0.;
    w_lookup_prob = 0.;
    w_rmw_prob = 0.;
    w_abort_prob = 0.08;
    w_poison_prob = 0.1;
    w_crashes = [ Crash_dc ];
    w_branch_at = None;
  }

let bank () =
  [
    {
      base with
      w_name = "zipfian_rmw";
      w_desc = "Zipfian hot keys, read-modify-write, 3 partitions";
      w_parts = 3;
      w_theta = 0.9;
      w_keyspace = 400;
      w_rmw_prob = 0.6;
      w_crashes = [ Crash_dc; Crash_tc ];
    };
    {
      base with
      w_name = "range_scan_keylocks";
      w_desc = "range scans under the fetch-ahead key-lock protocol";
      w_tables = [ ("kv", false) ];
      w_parts = 1;
      w_keyspace = 120;
      w_scan_prob = 0.5;
      w_crashes = [ Crash_dc ];
    };
    {
      base with
      w_name = "range_scan_rangelocks";
      w_desc = "range scans under static range-partition locks";
      w_protocol = Tc.Range_locks 8;
      w_parts = 1;
      w_keyspace = 120;
      w_scan_prob = 0.5;
      w_crashes = [ Crash_tc ];
    };
    {
      base with
      w_name = "occ_uniform";
      w_desc = "optimistic protocol, uniform keys, buffered writes";
      w_protocol = Tc.Optimistic;
      w_tables = [ ("kv", false) ];
      w_scan_prob = 0.25;
      w_crashes = [ Crash_tc ];
    };
    {
      base with
      w_name = "large_values";
      w_desc = "0.5-2 KiB values forcing splits and multi-page churn";
      w_keyspace = 60;
      w_value_len = (512, 2048);
      w_txns = 40;
      w_crashes = [ Crash_dc ];
    };
    {
      base with
      w_name = "mixed_tables";
      w_desc = "versioned and unversioned tables in one transaction mix";
      w_tables = [ ("kv_v", true); ("kv_u", false) ];
      w_crashes = [ Crash_dc; Crash_tc ];
    };
    {
      base with
      w_name = "indexed_zipf";
      w_desc = "index-maintaining transactions over Zipfian hot keys";
      w_indexed = true;
      w_parts = 3;
      w_theta = 0.9;
      w_keyspace = 150;
      w_rmw_prob = 0.3;
      w_lookup_prob = 0.4;
      w_crashes = [ Crash_dc; Crash_tc ];
    };
    {
      base with
      w_name = "indexed_unversioned";
      w_desc = "index maintenance over an unversioned (fail-fast) table";
      w_tables = [ ("kv", false) ];
      w_indexed = true;
      w_lookup_prob = 0.4;
      w_crashes = [ Crash_dc ];
    };
    {
      base with
      w_name = "branched_pitr";
      w_desc =
        "copy-on-write fork at a mid-run LSN; parent and branch run \
         differentially against independent oracles";
      w_tables = [ ("kv", false) ];
      w_keyspace = 150;
      w_scan_prob = 0.25;
      w_branch_at = Some 0.4;
      w_crashes = [ Crash_dc; Crash_branch ];
    };
  ]

let find name = List.find (fun s -> String.equal s.w_name name) (bank ())

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let key_of rank = Printf.sprintf "k%04d" rank

(* Categories occasionally embed a NUL so the order-preserving entry
   escaping is on the differential path, not just in unit tests. *)
let gen_cat rng =
  (if Rng.chance rng 0.15 then "c\x00" else "c")
  ^ string_of_int (Rng.int rng 6)

let extract_cat ~key:_ ~value =
  match String.index_opt value ':' with
  | Some i -> [ String.sub value 0 i ]
  | None -> [ value ]

let len_bucket value = Printf.sprintf "L%d" (String.length value / 16)

let extract_len ~key:_ ~value = [ len_bucket value ]

let indexes = [ ("by_cat", extract_cat); ("by_len", extract_len) ]

let gen_value spec rng =
  let lo, hi = spec.w_value_len in
  let len = lo + Rng.int rng (max 1 (hi - lo)) in
  let payload =
    String.init len (fun _ ->
        let c = Rng.int rng 64 in
        if c = 63 then '\x00' else Char.chr (33 + (c mod 62)))
  in
  if spec.w_indexed then gen_cat rng ^ ":" ^ payload else payload

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

(* Committed state only; per-transaction effects stage in an overlay
   and land here exactly when the TC reports the commit. *)
type oracle = (string, (string, string) Hashtbl.t) Hashtbl.t

let oracle_table (o : oracle) table =
  match Hashtbl.find_opt o table with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 64 in
    Hashtbl.add o table t;
    t

let oracle_rows o table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (oracle_table o table) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let commit_staged o staged =
  Hashtbl.iter
    (fun (table, key) v ->
      let t = oracle_table o table in
      match v with
      | Some v -> Hashtbl.replace t key v
      | None -> Hashtbl.remove t key)
    staged

(* The transaction's own view: staged overlay over committed state. *)
let view o staged table key =
  match Hashtbl.find_opt staged (table, key) with
  | Some v -> v
  | None -> Hashtbl.find_opt (oracle_table o table) key

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)

type state = {
  spec : spec;
  d : Deploy.t;
  tc : Tc.t;
  idx : Index.t;
  engine : (module Engine.S);  (* the parent's; indexed iff the spec is *)
  rng : Rng.t;
  zipf : Zipf.t option;
  oracle : oracle;
  mutable committed : int;
  mutable aborted : int;
  mutable crashes : int;
  mutable checks : int;
  mutable violations : string list;
}

let violation st msg = st.violations <- msg :: st.violations

let check st cond msg =
  st.checks <- st.checks + 1;
  if not cond then violation st msg

let pick_key st =
  key_of
    (match st.zipf with
    | Some z -> Zipf.sample z st.rng
    | None -> Rng.int st.rng st.spec.w_keyspace)

let pp_outcome = function
  | `Ok _ -> "`Ok"
  | `Blocked -> "`Blocked"
  | `Fail m -> Printf.sprintf "`Fail %S" m

exception Txn_over

(* One transaction on [engine] against [oracle]: a handful of
   oracle-guided operations, optionally a poison probe, then
   commit/abort with the outcome the oracle predicts.  Any surprise is
   recorded and the transaction is rolled back, so one violation cannot
   corrupt the oracle for the rest of the run.  [who] names the side in
   messages; the branch side runs with [~poison:false] and draws no
   probe. *)
let run_txn st (module E : Engine.S) ~oracle ~who ~poison i =
  let spec = st.spec in
  let table, versioned =
    List.nth spec.w_tables (i mod List.length spec.w_tables)
  in
  let txn = E.begin_txn () in
  let staged : (string * string, string option) Hashtbl.t =
    Hashtbl.create 8
  in
  let abort_dead () =
    if E.is_active txn then E.abort txn ~reason:"workload: txn over";
    st.aborted <- st.aborted + 1
  in
  let expect_ok label = function
    | `Ok v -> v
    | (`Blocked | `Fail _) as o ->
      violation st
        (Printf.sprintf "%s: %s %d %s on %s came back %s" spec.w_name who i
           label table (pp_outcome o));
      abort_dead ();
      raise Txn_over
  in
  try
    let nops = 1 + Rng.int st.rng 3 in
    for _ = 1 to nops do
      let key =
        (* under OCC a transaction must not revisit its own buffered
           writes (reads and index maintenance would not see them) *)
        let k = pick_key st in
        if spec.w_protocol = Tc.Optimistic && Hashtbl.mem staged (table, k)
        then pick_key st
        else k
      in
      if not (spec.w_protocol = Tc.Optimistic && Hashtbl.mem staged (table, key))
      then begin
        match view oracle staged table key with
        | None ->
          let value = gen_value spec st.rng in
          expect_ok "insert" (E.insert txn ~table ~key ~value);
          Hashtbl.replace staged (table, key) (Some value)
        | Some current ->
          if Rng.chance st.rng spec.w_rmw_prob then begin
            (* read-modify-write: the read is a differential check *)
            let got = expect_ok "read" (E.read txn ~table ~key) in
            check st
              (got = Some current)
              (Printf.sprintf "%s: %s %d read %s/%s saw %s, oracle says %S"
                 spec.w_name who i table key
                 (match got with Some v -> Printf.sprintf "%S" v | None -> "None")
                 current);
            let value = gen_value spec st.rng in
            expect_ok "rmw-update" (E.update txn ~table ~key ~value);
            Hashtbl.replace staged (table, key) (Some value)
          end
          else if Rng.chance st.rng 0.3 then begin
            expect_ok "delete" (E.delete txn ~table ~key);
            Hashtbl.replace staged (table, key) None
          end
          else begin
            let value = gen_value spec st.rng in
            expect_ok "update" (E.update txn ~table ~key ~value);
            Hashtbl.replace staged (table, key) (Some value)
          end
      end
    done;
    (* Poison probe: a deliberately invalid operation must fail exactly
       where the contract says — immediately on unversioned tables (and
       for Index.update's fail-fast read), at commit on versioned
       pipelined ones. *)
    let poison =
      if poison && Rng.chance st.rng spec.w_poison_prob then begin
        let existing =
          oracle_rows oracle table
          |> List.filter (fun (k, _) ->
                 not (Hashtbl.mem staged (table, k)))
        in
        (* Optimistic buffers every write, so even fail-fast tables
           surface the refusal at commit, not at the call. *)
        let fail_fast = (not versioned) && spec.w_protocol <> Tc.Optimistic in
        let update_missing () =
          (* a rank just past the keyspace is never inserted *)
          let key = key_of (spec.w_keyspace + Rng.int st.rng 50) in
          let o = E.update txn ~table ~key ~value:"poison" in
          (* Index.update reads the old row first and fails fast on a
             missing key whatever the table's versioned-ness *)
          Some (key, "update-missing", o, fail_fast || spec.w_indexed)
        in
        match existing with
        | (key, _) :: _ when Rng.bool st.rng ->
          let o = E.insert txn ~table ~key ~value:"poison" in
          Some (key, "insert-existing", o, fail_fast)
        | _ -> update_missing ()
      end
      else None
    in
    match poison with
    | Some (key, label, o, immediate) ->
      if immediate then begin
        check st
          (match o with `Fail _ -> true | _ -> false)
          (Printf.sprintf
             "%s: txn %d poison %s on %s/%s should fail fast, got %s"
             spec.w_name i label table key (pp_outcome o));
        abort_dead ()
      end
      else begin
        (* pipelined: the op is accepted, the commit must refuse *)
        check st
          (match o with `Ok () -> true | _ -> false)
          (Printf.sprintf
             "%s: txn %d poison %s on %s/%s should pipeline as `Ok, got %s"
             spec.w_name i label table key (pp_outcome o));
        let c = E.commit txn in
        check st
          (match c with `Fail _ -> true | _ -> false)
          (Printf.sprintf
             "%s: txn %d poison %s on %s/%s should fail the commit, got %s"
             spec.w_name i label table key (pp_outcome c));
        abort_dead ()
      end
    | None ->
      if Rng.chance st.rng spec.w_abort_prob then begin
        E.abort txn ~reason:"workload: deliberate abort";
        st.aborted <- st.aborted + 1
      end
      else begin
        (match E.commit txn with
        | `Ok () ->
          st.committed <- st.committed + 1;
          commit_staged oracle staged
        | (`Blocked | `Fail _) as o ->
          violation st
            (Printf.sprintf "%s: %s %d commit on %s came back %s" spec.w_name
               who i table (pp_outcome o));
          st.aborted <- st.aborted + 1)
      end
  with Txn_over -> ()

(* A differential range scan in its own read-only transaction: the
   expected rows are the oracle's, filtered to the cursor's owning
   partition (partitioned scans stay inside one partition by design)
   and truncated at the limit. *)
let scan_check st =
  let spec = st.spec in
  let table, _ = List.nth spec.w_tables (Rng.int st.rng (List.length spec.w_tables)) in
  let from_key = key_of (Rng.int st.rng spec.w_keyspace) in
  let limit = 1 + Rng.int st.rng 16 in
  let part = Deploy.partition_dc st.d ~table ~key:from_key in
  let expected =
    oracle_rows st.oracle table
    |> List.filter (fun (k, _) ->
           String.compare k from_key >= 0
           && String.equal (Deploy.partition_dc st.d ~table ~key:k) part)
    |> take limit
  in
  let (module E : Engine.S) = st.engine in
  let txn = E.begin_txn () in
  (match E.scan txn ~table ~from_key ~limit with
  | `Ok rows ->
    check st (rows = expected)
      (Printf.sprintf
         "%s: scan %s from %S limit %d saw %d row(s), oracle expects %d"
         spec.w_name table from_key limit (List.length rows)
         (List.length expected))
  | (`Blocked | `Fail _) as o ->
    violation st
      (Printf.sprintf "%s: scan %s from %S came back %s" spec.w_name table
         from_key (pp_outcome o)));
  match E.commit txn with
  | `Ok () -> ()
  | `Blocked | `Fail _ ->
    if E.is_active txn then E.abort txn ~reason:"workload scan probe"

(* A differential index lookup: recompute the expected hits from the
   oracle's rows through the same extractor. *)
let lookup_check st =
  let spec = st.spec in
  let table, _ = List.hd spec.w_tables in
  let index, extract, sec =
    if Rng.bool st.rng then ("by_cat", extract_cat, gen_cat st.rng)
    else
      let _, hi = spec.w_value_len in
      ("by_len", extract_len, Printf.sprintf "L%d" (Rng.int st.rng (1 + (hi / 16))))
  in
  let expected =
    oracle_rows st.oracle table
    |> List.filter (fun (key, value) -> List.mem sec (extract ~key ~value))
  in
  let txn = Tc.begin_txn st.tc in
  (match Index.lookup st.idx st.tc txn ~table ~index ~sec with
  | `Ok rows ->
    check st (rows = expected)
      (Printf.sprintf
         "%s: lookup %s/%s=%S saw %d row(s), oracle expects %d" spec.w_name
         table index sec (List.length rows) (List.length expected))
  | (`Blocked | `Fail _) as o ->
    violation st
      (Printf.sprintf "%s: lookup %s/%s=%S came back %s" spec.w_name table
         index sec (pp_outcome o)));
  match Tc.commit st.tc txn with
  | `Ok () -> ()
  | `Blocked | `Fail _ ->
    if Tc.is_active txn then Tc.abort st.tc txn ~reason:"workload lookup probe"

(* ------------------------------------------------------------------ *)
(* Final parity                                                        *)

let merged_rows d ~table =
  List.concat_map
    (fun dc_name ->
      Dc.dump_table (Deploy.dc d dc_name) table
      |> List.filter_map (fun (k, r) ->
             Stored_record.current r |> Option.map (fun v -> (k, v))))
    (Deploy.partitions d ~table)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let final_parity st =
  List.iter
    (fun (table, _) ->
      let expected = oracle_rows st.oracle table in
      let got = merged_rows st.d ~table in
      check st (got = expected)
        (Printf.sprintf
           "%s: final state of %s (%d rows) diverges from the oracle (%d \
            rows)"
           st.spec.w_name table (List.length got) (List.length expected));
      if st.spec.w_indexed then
        List.iter
          (fun iname ->
            let itab = Index.index_table ~table ~name:iname in
            let want =
              Index.expected_entries st.idx ~table ~index:iname ~rows:expected
            in
            let have = merged_rows st.d ~table:itab in
            check st (have = want)
              (Printf.sprintf
                 "%s: index %s holds %d entry(ies), primary rows imply %d"
                 st.spec.w_name itab (List.length have) (List.length want)))
          (Index.indexes st.idx ~table))
    st.spec.w_tables

(* ------------------------------------------------------------------ *)
(* Forks                                                               *)

type fork = {
  f_branch : Branch.t;
  f_lsn : Lsn.t;
  f_rows : (string * (string * string option) list) list;
}

let fork d ~tables ~rows =
  Deploy.quiesce d;
  let tc = Deploy.tc d "tc1" in
  Tc.force_log tc;
  let at = Tc.stable_lsn tc in
  let b = Deploy.create_branch d ~from_lsn:at ~name:"b" in
  { f_branch = b; f_lsn = at; f_rows = List.map (fun t -> (t, rows t)) tables }

let fork_laws d f ~own =
  let b = f.f_branch in
  let durable = Branch.durable b in
  let whole ~at ~what ~holder table expected =
    let got = Branch.rows_at b ~table ~at in
    ( got = expected,
      Printf.sprintf "%s of %s (%d rows) diverges from %s (%d rows)" what
        table (List.length got) holder (List.length expected) )
  in
  let show = function Some v -> Printf.sprintf "%S" v | None -> "None" in
  List.concat_map
    (fun (table, rows) ->
      let live =
        List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) rows
      in
      whole ~at:durable ~what:"branch state" ~holder:"the branch oracle" table
        (own table)
      :: whole ~at:f.f_lsn ~what:"fork prefix" ~holder:"the fork's rows" table
           live
      :: List.concat_map
           (fun (key, v) ->
             let law side got =
               ( got = v,
                 Printf.sprintf
                   "fork prefix of %s/%s through the %s reads %s, the fork \
                    held %s"
                   table key side (show got) (show v) )
             in
             [
               law "branch" (Branch.read_as_of b ~table ~key ~at:f.f_lsn);
               law "parent" (Deploy.read_as_of d ~table ~key ~at:f.f_lsn);
             ])
           rows)
    f.f_rows

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let make_deploy spec ~counters ~seed ~idx =
  let d =
    Deploy.create ~counters ~seed ~layers:(spec.w_branch_at <> None) ()
  in
  ignore
    (Deploy.add_tc d ~name:"tc1"
       {
         (Tc.default_config (Tc_id.of_int 1)) with
         cc_protocol = spec.w_protocol;
         lwm_every = 8;
         debug_checks = true;
       });
  let dc_names = List.init spec.w_parts (Printf.sprintf "dc%d") in
  List.iter
    (fun name ->
      ignore
        (Deploy.add_dc d ~name
           {
             (* headroom for a version chain of a few max-size values
                on one cell, while small-value specs keep tiny pages so
                splits stay frequent *)
             Dc.page_capacity = max 192 (5 * (snd spec.w_value_len + 64));
             cache_pages = 8;
             sync_policy = Dc.Full_ablsn;
             tc_reset_mode = Dc.Selective;
             debug_checks = true;
           }))
    dc_names;
  List.iter
    (fun (table, versioned) ->
      if spec.w_indexed then
        Deploy.add_indexed_table d ~replicas:spec.w_replicas ~idx ~name:table
          ~versioned ~dcs:dc_names ~indexes ()
      else
        Deploy.add_partitioned_table d ~replicas:spec.w_replicas ~name:table
          ~versioned ~dcs:dc_names ())
    spec.w_tables;
  d

let run ?(seed = 0xB0B) spec =
  let counters = Instrument.create () in
  let idx = Index.create ~counters () in
  let d = make_deploy spec ~counters ~seed ~idx in
  let tc = Deploy.tc d "tc1" in
  let st =
    {
      spec;
      d;
      tc;
      idx;
      engine =
        (if spec.w_indexed then Index.engine idx tc else Engine.of_tc tc);
      rng = Rng.create ~seed;
      zipf =
        (if spec.w_theta > 0. then
           Some (Zipf.create ~n:spec.w_keyspace ~theta:spec.w_theta)
         else None);
      oracle = Hashtbl.create 4;
      committed = 0;
      aborted = 0;
      crashes = 0;
      checks = 0;
      violations = [];
    }
  in
  (* Copy-on-write fork state: [w_branch_at] forks the deployment at
     the stable LSN that fraction into the run; from then on every
     iteration also drives one branch transaction against the branch's
     own oracle (seeded from the parent's committed state at the fork),
     so divergence is differential on both sides. *)
  let branch = ref None in
  let br_oracle : oracle = Hashtbl.create 4 in
  let fork_at =
    Option.map
      (fun f -> int_of_float (f *. float_of_int spec.w_txns))
      spec.w_branch_at
  in
  let do_fork () =
    let f =
      fork st.d ~tables:(List.map fst spec.w_tables)
        ~rows:(fun t ->
          List.map (fun (k, v) -> (k, Some v)) (oracle_rows st.oracle t))
    in
    List.iter
      (fun (t, rows) ->
        let bt = oracle_table br_oracle t in
        List.iter (fun (k, v) -> Option.iter (Hashtbl.replace bt k) v) rows)
      f.f_rows;
    branch := Some (f, Branch.engine f.f_branch)
  in
  (* Scripted kills, spread evenly: crash j lands before transaction
     (j+1) * txns / (n+1), between transactions — unambiguous, so the
     oracle carries straight through recovery. *)
  let n_crashes = List.length spec.w_crashes in
  let crash_plan =
    List.mapi
      (fun j kind -> ((j + 1) * spec.w_txns / (n_crashes + 1), j, kind))
      spec.w_crashes
  in
  for i = 0 to spec.w_txns - 1 do
    (match fork_at with
    | Some at when at = i -> do_fork ()
    | _ -> ());
    List.iter
      (fun (at, j, kind) ->
        if at = i then
          match kind with
          | Crash_dc ->
            st.crashes <- st.crashes + 1;
            Deploy.crash_dc st.d (Printf.sprintf "dc%d" (j mod spec.w_parts))
          | Crash_tc ->
            st.crashes <- st.crashes + 1;
            Deploy.crash_tc st.d "tc1"
          | Crash_branch -> (
            match !branch with
            | Some _ ->
              st.crashes <- st.crashes + 1;
              Deploy.crash_branch_dc st.d "b"
            | None -> ()))
      crash_plan;
    run_txn st st.engine ~oracle:st.oracle ~who:"txn" ~poison:true i;
    (match !branch with
    | Some (_, engine) ->
      run_txn st engine ~oracle:br_oracle ~who:"branch txn" ~poison:false i
    | None -> ());
    if Rng.chance st.rng spec.w_scan_prob then scan_check st;
    if spec.w_indexed && Rng.chance st.rng spec.w_lookup_prob then
      lookup_check st
  done;
  Deploy.quiesce st.d;
  final_parity st;
  (match !branch with
  | None -> ()
  | Some (f, _) ->
    Branch.quiesce f.f_branch;
    List.iter
      (fun (ok, msg) -> check st ok (spec.w_name ^ ": " ^ msg))
      (fork_laws st.d f ~own:(oracle_rows br_oracle)));
  ( {
      r_name = spec.w_name;
      r_committed = st.committed;
      r_aborted = st.aborted;
      r_crashes = st.crashes;
      r_checks = st.checks;
      r_violations = List.rev st.violations;
    },
    {
      e_deploy = st.d;
      e_idx = st.idx;
      e_expected =
        List.map
          (fun (table, _) -> (table, oracle_rows st.oracle table))
          spec.w_tables;
    } )
