(* The benchmark executable.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
       [--spans-dir DIR]

   Untraced runs (--trace 0) report the end-to-end metrics, traced runs
   (--trace 1) the per-layer ones; both check correctness and print the
   result object as the last line.  perfbench/run.py builds this and
   selects the metrics BENCHMARK.json lists. *)

let workloads =
  [
    ("oltp_mix", (Kv.oltp_mix, Kv.oltp_mix_traced));
    ("dc_restart", (Kv.dc_restart, Kv.dc_restart_traced));
    ("front_ingest", (Ingest.front_ingest, Ingest.front_ingest_traced));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and spans_dir = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME oltp_mix, dc_restart or front_ingest");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--spans-dir", Arg.String (fun d -> spans_dir := Some d), "DIR where traced runs write spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some (plain, traced) ->
    let out = Report.create () in
    let seed = !seed and seconds = !seconds in
    Report.line "workload %s, seed %d, %.0f s, trace %d" !workload seed seconds !trace;
    if !trace = 0 then plain out ~seed ~seconds
    else traced out ~seed ~seconds ~spans_dir:!spans_dir;
    Report.finish out
