(* Index-vs-primary parity under random interleavings.

   A generated program is a list of steps — multi-op transactions over a
   small keyspace (so inserts collide and updates/deletes hit real rows)
   interleaved with DC and TC kills.  Executing it against an indexed
   deployment while a sequential oracle shadows every committed
   transaction, the property demands, after recovery and quiesce:

   - merged primary fragments = the oracle's rows (oracle equality);
   - every entry table = the image of the live primary rows under its
     extractor (index-vs-primary parity, [Audit.check_index]);
   - the full deployment audit stays silent.

   Any refused operation aborts its transaction (the
   Fail-means-caller-aborts contract), so invalid generated ops —
   duplicate inserts, updates of absent keys — exercise the rollback
   path rather than derailing the oracle. *)

module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Deploy = Untx_cloud.Deploy
module Index = Untx_index.Index
module Audit = Untx_audit.Audit

let test prop = Helpers.qcheck_test prop

let table = "items"

let extract_cat ~key:_ ~value =
  match String.index_opt value ':' with
  | Some i -> [ String.sub value 0 i ]
  | None -> []

type pop = Ins of int * int | Upd of int * int | Del of int

type step = Txn of pop list | Crash_dc of int | Crash_tc

let pp_pop = function
  | Ins (k, c) -> Printf.sprintf "Ins(k%d,c%d)" k c
  | Upd (k, c) -> Printf.sprintf "Upd(k%d,c%d)" k c
  | Del k -> Printf.sprintf "Del(k%d)" k

let pp_step = function
  | Txn ops -> "Txn[" ^ String.concat ";" (List.map pp_pop ops) ^ "]"
  | Crash_dc p -> Printf.sprintf "Crash_dc(%d)" p
  | Crash_tc -> "Crash_tc"

let gen_step =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map
            (fun ops -> Txn ops)
            (list_size (int_range 1 3)
               (oneof
                  [
                    map2 (fun k c -> Ins (k, c)) (int_bound 11) (int_bound 3);
                    map2 (fun k c -> Upd (k, c)) (int_bound 11) (int_bound 3);
                    map (fun k -> Del k) (int_bound 11);
                  ])) );
        (1, map (fun p -> Crash_dc p) (int_bound 1));
        (1, return Crash_tc);
      ])

let steps_arb =
  QCheck.make
    ~print:(fun steps -> String.concat " " (List.map pp_step steps))
    QCheck.Gen.(list_size (int_range 1 25) gen_step)

let key_of k = Printf.sprintf "k%02d" k

let value_of k c = Printf.sprintf "c%d:v-%02d-%d" c k c

let make_deploy ~versioned () =
  let idx = Index.create () in
  let d = Deploy.create ~seed:3 () in
  ignore
    (Deploy.add_tc d ~name:"tc1"
       {
         (Tc.default_config (Tc_id.of_int 1)) with
         lwm_every = 4;
       });
  let dc_names = [ "dc0"; "dc1" ] in
  List.iter
    (fun name ->
      ignore
        (Deploy.add_dc d ~name
           {
             Dc.page_capacity = 160;
             cache_pages = 6;
             sync_policy = Dc.Full_ablsn;
             tc_reset_mode = Dc.Selective;
             debug_checks = true;
           }))
    dc_names;
  Deploy.add_indexed_table d ~idx ~name:table ~versioned ~dcs:dc_names
    ~indexes:[ ("by_cat", extract_cat) ]
    ();
  (d, idx)

exception Refused

let run_steps ~versioned steps =
  let d, idx = make_deploy ~versioned () in
  let tc = Deploy.tc d "tc1" in
  let oracle : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Crash_dc p -> Deploy.crash_dc d (Printf.sprintf "dc%d" p)
      | Crash_tc -> Deploy.crash_tc d "tc1"
      | Txn ops ->
        let txn = Tc.begin_txn tc in
        let staged = Hashtbl.create 4 in
        let apply key v = function
          | `Ok () -> Hashtbl.replace staged key v
          | `Blocked | `Fail _ -> raise Refused
        in
        (try
           List.iter
             (fun op ->
               match op with
               | Ins (k, c) ->
                 let key = key_of k in
                 apply key
                   (Some (value_of k c))
                   (Index.insert idx tc txn ~table ~key ~value:(value_of k c))
               | Upd (k, c) ->
                 let key = key_of k in
                 apply key
                   (Some (value_of k c))
                   (Index.update idx tc txn ~table ~key ~value:(value_of k c))
               | Del k ->
                 let key = key_of k in
                 apply key None (Index.delete idx tc txn ~table ~key))
             ops;
           match Tc.commit tc txn with
           | `Ok () ->
             Hashtbl.iter
               (fun key v ->
                 match v with
                 | Some v -> Hashtbl.replace oracle key v
                 | None -> Hashtbl.remove oracle key)
               staged
           | `Blocked | `Fail _ -> ()
         with Refused ->
           if Tc.is_active txn then
             Tc.abort tc txn ~reason:"props_index: refused op"))
    steps;
  Deploy.quiesce d;
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle []
    |> List.sort compare
  in
  let report = Audit.run_deploy d ~tc:"tc1" ~table ~expected in
  let index_violations = Audit.check_index d ~idx ~table in
  match report.Audit.violations @ index_violations with
  | [] -> true
  | vs ->
    QCheck.Test.fail_reportf "parity violations:@.%a"
      (Format.pp_print_list Format.pp_print_string)
      vs

let prop_parity_versioned =
  QCheck.Test.make
    ~name:"random interleavings keep index parity (versioned)" ~count:60
    steps_arb
    (run_steps ~versioned:true)

let prop_parity_unversioned =
  QCheck.Test.make
    ~name:"random interleavings keep index parity (unversioned)" ~count:60
    steps_arb
    (run_steps ~versioned:false)

let suite = [ test prop_parity_versioned; test prop_parity_unversioned ]
