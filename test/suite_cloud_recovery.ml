(* Multi-TC crash-point sweep (Section 6.1): several updater TCs share
   one DC; one TC crashes at a random point; the other's data must be
   byte-identical afterwards (record-granular reset on shared pages),
   the crashed TC's committed prefix must survive, and its losers must
   vanish.  DC crashes must preserve every TC's committed prefix. *)

module Deploy = Untx_cloud.Deploy
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Rng = Untx_util.Rng

let table = "shared"

let ok = function
  | `Ok v -> v
  | `Blocked -> Alcotest.fail "unexpected `Blocked"
  | `Fail m -> Alcotest.fail ("unexpected `Fail: " ^ m)

(* The chaos engine's DC geometry: small pages split often, and a tiny
   cache evicts and flushes them mid-workload. *)
let small_pages =
  { Dc.default_config with page_capacity = 160; cache_pages = 6 }

let mk_deploy ~dc ~reset_mode ~n_tcs =
  let d = Deploy.create () in
  ignore
    (Deploy.add_dc d ~name:"dc1"
       { dc with Dc.tc_reset_mode = reset_mode; debug_checks = true });
  Deploy.create_table d ~dc:"dc1" ~name:table ~versioned:true;
  let tcs =
    List.init n_tcs (fun i ->
        let tc =
          Deploy.add_tc d
            ~name:(Printf.sprintf "tc%d" (i + 1))
            (Tc.default_config (Tc_id.of_int (i + 1)))
        in
        Tc.map_table tc ~table ~dc:"dc1" ~versioned:true;
        tc)
  in
  (d, Array.of_list tcs)

(* Each TC owns the key prefix of its index: disjoint write sets, but
   interleaved on shared pages. *)
let key owner i = Printf.sprintf "%c%03d" (Char.chr (Char.code 'a' + owner)) i

(* One committed transaction by TC [o], mirrored into its oracle. *)
let run_txn tcs oracles rng o =
  let tc = tcs.(o) in
  let oracle = oracles.(o) in
  let txn = Tc.begin_txn tc in
  let staged = Hashtbl.create 4 in
  for _ = 1 to 1 + Rng.int rng 4 do
    let k = key o (Rng.int rng 60) in
    let v = Printf.sprintf "v%d" (Rng.int rng 100_000) in
    let exists =
      Hashtbl.mem staged k
      || (Hashtbl.mem oracle k && Hashtbl.find oracle k <> None)
    in
    let exists =
      if Hashtbl.mem staged k then Hashtbl.find staged k <> None else exists
    in
    if exists then (
      ok (Tc.update tc txn ~table ~key:k ~value:v);
      Hashtbl.replace staged k (Some v))
    else (
      ok (Tc.insert tc txn ~table ~key:k ~value:v);
      Hashtbl.replace staged k (Some v))
  done;
  match Tc.commit tc txn with
  | `Ok () -> Hashtbl.iter (fun k v -> Hashtbl.replace oracle k v) staged
  | `Blocked | `Fail _ -> Alcotest.fail "commit failed in disjoint workload"

let check_oracle ?(seed = 0) tcs oracles reader_ix o =
  let reader = tcs.(reader_ix) in
  Hashtbl.iter
    (fun k v ->
      let got = Tc.read_committed reader ~table ~key:k in
      if got <> v then
        Alcotest.failf "seed %d owner %d key %s: want %s got %s" seed o k
          (Option.value ~default:"NONE" v)
          (Option.value ~default:"NONE" got))
    oracles.(o)

let sweep ?(dc = Dc.default_config) ~reset_mode ~crash_dc_instead ~seeds () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let n_tcs = 2 + Rng.int rng 2 in
      let d, tcs = mk_deploy ~dc ~reset_mode ~n_tcs in
      let oracles = Array.init n_tcs (fun _ -> Hashtbl.create 64) in
      for _ = 1 to 20 + Rng.int rng 40 do
        run_txn tcs oracles rng (Rng.int rng n_tcs)
      done;
      let victim = Rng.int rng n_tcs in
      (* the victim leaves uncommitted work behind *)
      if Rng.chance rng 0.7 then begin
        let txn = Tc.begin_txn tcs.(victim) in
        for _ = 1 to 1 + Rng.int rng 3 do
          ignore
            (Tc.update tcs.(victim) txn ~table
               ~key:(key victim (Rng.int rng 60))
               ~value:"LOSER")
        done;
        Tc.quiesce tcs.(victim)
      end;
      if crash_dc_instead then Deploy.crash_dc d "dc1"
      else Deploy.crash_tc d (Printf.sprintf "tc%d" (victim + 1));
      (match Dc.check (Deploy.dc d "dc1") with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d ill-formed: %s" seed m);
      (* every TC's committed prefix intact, read via a different TC *)
      for o = 0 to n_tcs - 1 do
        check_oracle ~seed tcs oracles ((o + 1) mod n_tcs) o
      done;
      (* the deployment still works: every TC commits one more txn *)
      for o = 0 to n_tcs - 1 do
        run_txn tcs oracles rng o
      done;
      for o = 0 to n_tcs - 1 do
        check_oracle ~seed tcs oracles ((o + 1) mod n_tcs) o
      done)
    (List.init seeds (fun i -> 4000 + (i * 53)))

let test_record_reset_metric () =
  (* interleaved single-key commits per TC force genuinely shared pages,
     so a TC crash exercises the record-granular reset *)
  let d, tcs =
    mk_deploy ~dc:Dc.default_config ~reset_mode:Dc.Selective ~n_tcs:2
  in
  for i = 0 to 40 do
    List.iteri
      (fun o tc ->
        let txn = Tc.begin_txn tc in
        ok (Tc.insert tc txn ~table ~key:(key o i) ~value:"committed");
        ok (Tc.commit tc txn))
      (Array.to_list tcs)
  done;
  let txn = Tc.begin_txn tcs.(0) in
  ok (Tc.update tcs.(0) txn ~table ~key:(key 0 7) ~value:"lost");
  Tc.quiesce tcs.(0);
  let dc = Deploy.dc d "dc1" in
  let resets_before = Dc.records_reset dc in
  Deploy.crash_tc d "tc1";
  Alcotest.(check bool) "record-granular reset used" true
    (Dc.records_reset dc > resets_before);
  Alcotest.(check (option string))
    "tc2 record untouched" (Some "committed")
    (Tc.read_committed tcs.(1) ~table ~key:(key 1 7));
  Alcotest.(check (option string))
    "tc1 loser reverted" (Some "committed")
    (Tc.read_committed tcs.(1) ~table ~key:(key 0 7))

let suite =
  [
    Alcotest.test_case "multi-TC sweep: TC crash, selective" `Slow
      (sweep ~reset_mode:Dc.Selective ~crash_dc_instead:false ~seeds:10);
    Alcotest.test_case "multi-TC sweep: TC crash, draconian" `Slow
      (sweep ~reset_mode:Dc.Complete ~crash_dc_instead:false ~seeds:8);
    Alcotest.test_case "multi-TC sweep: DC crash" `Slow
      (sweep ~reset_mode:Dc.Selective ~crash_dc_instead:true ~seeds:10);
    Alcotest.test_case "record-granular reset" `Quick test_record_reset_metric;
    Alcotest.test_case "multi-TC sweep: TC crash, selective, small pages" `Slow
      (sweep ~dc:small_pages ~reset_mode:Dc.Selective ~crash_dc_instead:false
         ~seeds:10);
  ]
