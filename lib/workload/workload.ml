module Tc = Untx_tc.Tc
module Rng = Untx_util.Rng
module Deploy = Untx_cloud.Deploy
module Branch = Untx_branch.Branch
module Lsn = Untx_util.Lsn

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

(* A value with no ':' (a chaos marker row, a poison value) has no
   category. *)
let extract_cat ~key:_ ~value =
  match String.index_opt value ':' with
  | Some i -> [ String.sub value 0 i ]
  | None -> []

let extract_len ~key:_ ~value =
  [ Printf.sprintf "L%d" (String.length value / 16) ]

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

type oracle = (string, (string, string option) Hashtbl.t) Hashtbl.t

let oracle_table (o : oracle) table =
  match Hashtbl.find_opt o table with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 64 in
    Hashtbl.add o table t;
    t

let view o ~table key =
  Option.join (Hashtbl.find_opt (oracle_table o table) key)

let entries o table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) (oracle_table o table) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let live l = List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) l

let rows o table = live (entries o table)

let commit o ~table staged =
  Hashtbl.iter (Hashtbl.replace (oracle_table o table)) staged

(* ------------------------------------------------------------------ *)
(* Forks                                                               *)

type fork = {
  f_branch : Branch.t;
  f_lsn : Lsn.t;
  f_rows : (string * (string * string option) list) list;
  f_oracle : oracle;
}

let fork d o ~tables =
  Deploy.quiesce d;
  let tc = Deploy.tc d "tc1" in
  Tc.force_log tc;
  let at = Tc.stable_lsn tc in
  let b = Deploy.create_branch d ~from_lsn:at ~name:"b" in
  let f_oracle = Hashtbl.create 4 in
  List.iter
    (fun t -> Hashtbl.replace f_oracle t (Hashtbl.copy (oracle_table o t)))
    tables;
  {
    f_branch = b;
    f_lsn = at;
    f_rows = List.map (fun t -> (t, entries o t)) tables;
    f_oracle;
  }

let fork_laws d f =
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
    (fun (table, entries) ->
      whole ~at:durable ~what:"branch state" ~holder:"the branch oracle" table
        (rows f.f_oracle table)
      :: whole ~at:f.f_lsn ~what:"fork prefix" ~holder:"the fork's rows" table
           (live entries)
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
           entries)
    f.f_rows
