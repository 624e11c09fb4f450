(* What one benchmark run reports: named metrics with units, a verdict
   from the correctness checks, and the attempt/failure tally.  Human
   lines go to stdout as they are produced; [finish] prints the result
   object as the last line. *)

type t = {
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable correct : bool;
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; correct = true; attempted = 0; failed = 0 }

let metric t name unit v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "metric %s is not finite" name);
  t.metrics <- (name, v, unit) :: t.metrics

let line fmt = Printf.ksprintf print_endline fmt

(* A failed check fails the run: the result says [correct: false] and
   every attempted operation counts as failed. *)
let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        t.correct <- false;
        print_endline ("CHECK FAILED: " ^ msg)
      end)
    fmt

let per x n = if n = 0 then 0. else float_of_int x /. float_of_int n

(* The end-to-end metrics every workload reports.  [tps], [heaps] and
   [setups] hold one figure per episode; [lat] holds every latency
   sample of the run.  [tail] is the workload's tail percentile, and a
   tail with fewer than ten samples beyond it fails the run.  [slow] is
   the slowness of every timed piece (see [Probe.Speed]), which the
   timings are already divided by; [measured] is [tps] before that. *)
let end_to_end t ~what ~tps ~measured ~(lat : Probe.Samples.t) ~tail ~wire_bytes
    ~storage_ios ~units ~heaps ~setups ~slow =
  let module S = Probe.Samples in
  let beyond = S.beyond lat tail in
  check t (beyond >= 10) "%s: only %d samples beyond p%g" what beyond tail;
  let figures xs = String.concat " " (List.map (Printf.sprintf "%.0f") xs) in
  line "episode txns/s: %s" (figures tps);
  line "episode txns/s as measured: %s" (figures measured);
  line "slowness: median %.3f, %.3f to %.3f over %d timed pieces"
    (Probe.median_of slow)
    (List.fold_left Float.min Float.infinity slow)
    (List.fold_left Float.max 0. slow)
    (List.length slow);
  line "%s: n=%d p50=%.1f us p%g=%.1f us (%d beyond)" what (S.count lat)
    (S.median lat) tail (S.percentile lat tail) beyond;
  metric t "txn_per_s" "1/s" (Probe.median_of tps);
  metric t "latency_p50_us" "us" (S.median lat);
  metric t "latency_tail_us" "us" (S.percentile lat tail);
  metric t "wire_bytes_per_txn" "B" (per wire_bytes units);
  metric t "storage_ios_per_txn" "count" (per storage_ios units);
  metric t "peak_heap_mb" "MB" (Probe.median_of heaps);
  metric t "setup_s" "s" (Probe.median_of setups)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let finish t =
  let metrics = List.rev t.metrics in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %16.6g %s\n" name v unit)
    metrics;
  let failed = if t.correct then t.failed else t.attempted in
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name)
          v (json_string unit))
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    t.correct (max 1 t.attempted) failed
    (String.concat ", " fields)
