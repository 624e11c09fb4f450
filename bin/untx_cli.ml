(* untx-cli — drive the unbundled kernel from the command line.

   Subcommands:
     workload   run a transactional key-value mix and print statistics
     crash      run a workload, crash a component, verify recovery
     movie      run the Section 6.3 movie-site scenario
     inspect    show internal counters after a workload

   Every run is deterministic for a given seed. *)

open Cmdliner
module K = Untx.Kernel
module Driver = Untx.Driver
module Engine = Untx.Engine
module Tc = Untx.Tc
module Dc = Untx.Dc
module Transport = Untx.Transport
module Instrument = Untx.Instrument

let mk_kernel ~chaos ~seed ~counters =
  let policy = if chaos then Transport.chaotic else Transport.reliable in
  let cfg =
    {
      K.default_config with
      tc = { K.default_config.tc with checkpoint_every = 50 };
      policy;
      seed;
    }
  in
  let k = K.create ~counters cfg in
  K.create_table k ~name:"kv" ~versioned:true;
  k

let run_spec ~txns ~ops ~reads ~keys ~conc ~seed =
  {
    Driver.default_spec with
    txns;
    ops_per_txn = ops;
    read_ratio = reads;
    key_space = keys;
    concurrency = conc;
    seed;
  }

(* --- workload --------------------------------------------------------- *)

let workload txns ops reads keys conc seed chaos =
  let counters = Instrument.create () in
  let k = mk_kernel ~chaos ~seed ~counters in
  let e = Engine.of_kernel k in
  let spec = run_spec ~txns ~ops ~reads ~keys ~conc ~seed in
  Driver.preload e spec;
  let t0 = Unix.gettimeofday () in
  let r = Driver.run e spec in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "committed   %d\n" r.Driver.committed;
  Printf.printf "aborted     %d\n" r.Driver.aborted;
  Printf.printf "deadlocks   %d\n" r.Driver.deadlocks;
  Printf.printf "ops         %d\n" r.Driver.op_count;
  Printf.printf "txns/s      %.1f\n" (float_of_int r.Driver.committed /. dt);
  Printf.printf "messages    %d\n" (Tc.messages_sent (K.tc k));
  Printf.printf "resends     %d\n" (Tc.resends (K.tc k));
  Printf.printf "log bytes   %d\n" (Tc.log_bytes (K.tc k));
  0

(* --- crash ------------------------------------------------------------- *)

let crash component txns seed =
  let counters = Instrument.create () in
  let k = mk_kernel ~chaos:false ~seed ~counters in
  let e = Engine.of_kernel k in
  let spec = run_spec ~txns ~ops:5 ~reads:0.3 ~keys:2_000 ~conc:2 ~seed in
  Driver.preload e spec;
  ignore (Driver.run e spec);
  let count () =
    match Tc.begin_txn (K.tc k) |> fun txn ->
          let r = Tc.scan (K.tc k) txn ~table:"kv" ~from_key:"" ~limit:max_int in
          ignore (Tc.commit (K.tc k) txn);
          r
    with
    | `Ok rows -> List.length rows
    | `Blocked | `Fail _ -> -1
  in
  let before = count () in
  let t0 = Unix.gettimeofday () in
  (match component with
  | "tc" -> K.crash_tc k
  | "dc" -> K.crash_dc k
  | "both" -> K.crash_both k
  | other ->
    Printf.eprintf "unknown component %S (tc|dc|both)\n" other;
    exit 1);
  let dt = (Unix.gettimeofday () -. t0) *. 1000. in
  let after = count () in
  Printf.printf "rows before crash  %d\n" before;
  Printf.printf "recovery time      %.1f ms\n" dt;
  Printf.printf "rows after crash   %d\n" after;
  (match Dc.check (K.dc k) with
  | Ok () -> Printf.printf "index check        well-formed\n"
  | Error m -> Printf.printf "index check        BROKEN: %s\n" m);
  if before = after then begin
    Printf.printf "verdict            committed state preserved\n";
    0
  end
  else begin
    Printf.printf "verdict            DIVERGENCE\n";
    1
  end

(* --- movie ------------------------------------------------------------- *)

let movie users movies events seed =
  let m = Untx.Movie.create ~n_user_tcs:2 ~n_movie_dcs:2 ~seed () in
  Untx.Movie.seed_movies m movies;
  Untx.Movie.seed_users m users;
  let rng = Untx_util.Rng.create ~seed in
  let posted = ref 0 and read_reviews = ref 0 in
  for _ = 1 to events do
    let uid = Untx_util.Rng.int rng users in
    let mid = Untx_util.Rng.int rng movies in
    match Untx_util.Rng.int rng 10 with
    | 0 | 1 -> (
      match Untx.Movie.w2_add_review m ~uid ~mid ~text:"review" with
      | Ok () -> incr posted
      | Error _ -> ())
    | 2 ->
      ignore (Untx.Movie.w3_update_profile m ~uid ~profile:"p")
    | 3 -> ignore (Untx.Movie.w4_my_reviews m ~uid)
    | _ ->
      read_reviews :=
        !read_reviews
        + List.length (Untx.Movie.w1_reviews_for_movie m ~mid ~mode:`Committed)
  done;
  Printf.printf "events           %d\n" events;
  Printf.printf "reviews posted   %d\n" !posted;
  Printf.printf "reviews read     %d\n" !read_reviews;
  Printf.printf "messages         %d\n" (Untx.Movie.messages_total m);
  0

(* --- inspect ----------------------------------------------------------- *)

let inspect txns seed =
  let counters = Instrument.create () in
  let k = mk_kernel ~chaos:false ~seed ~counters in
  let e = Engine.of_kernel k in
  let spec = run_spec ~txns ~ops:6 ~reads:0.5 ~keys:2_000 ~conc:2 ~seed in
  Driver.preload e spec;
  ignore (Driver.run e spec);
  ignore (Tc.checkpoint (K.tc k));
  Format.printf "%a@." Instrument.pp counters;
  0

(* --- cmdliner wiring ---------------------------------------------------- *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")

let workload_cmd =
  let txns = Arg.(value & opt int 1000 & info [ "txns" ] ~doc:"Transactions.") in
  let ops = Arg.(value & opt int 6 & info [ "ops" ] ~doc:"Operations per txn.") in
  let reads =
    Arg.(value & opt float 0.5 & info [ "reads" ] ~doc:"Read fraction.")
  in
  let keys = Arg.(value & opt int 2000 & info [ "keys" ] ~doc:"Key space.") in
  let conc =
    Arg.(value & opt int 4 & info [ "concurrency" ] ~doc:"Concurrent txns.")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ] ~doc:"Lossy/reordering transport.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a transactional key-value mix.")
    Term.(const workload $ txns $ ops $ reads $ keys $ conc $ seed_t $ chaos)

let crash_cmd =
  let component =
    Arg.(value & pos 0 string "both" & info [] ~docv:"COMPONENT"
           ~doc:"tc, dc, or both.")
  in
  let txns = Arg.(value & opt int 500 & info [ "txns" ] ~doc:"Transactions.") in
  Cmd.v
    (Cmd.info "crash" ~doc:"Crash a component mid-workload and verify recovery.")
    Term.(const crash $ component $ txns $ seed_t)

let movie_cmd =
  let users = Arg.(value & opt int 32 & info [ "users" ] ~doc:"Users.") in
  let movies = Arg.(value & opt int 20 & info [ "movies" ] ~doc:"Movies.") in
  let events = Arg.(value & opt int 500 & info [ "events" ] ~doc:"Events.") in
  Cmd.v
    (Cmd.info "movie" ~doc:"Run the Section 6.3 movie-site scenario.")
    Term.(const movie $ users $ movies $ events $ seed_t)

let inspect_cmd =
  let txns = Arg.(value & opt int 300 & info [ "txns" ] ~doc:"Transactions.") in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Dump internal counters after a workload.")
    Term.(const inspect $ txns $ seed_t)

let () =
  let info =
    Cmd.info "untx-cli" ~version:"1.0"
      ~doc:"Drive the unbundled transaction kernel (CIDR 2009 reproduction)."
  in
  exit (Cmd.eval' (Cmd.group info [ workload_cmd; crash_cmd; movie_cmd; inspect_cmd ]))
