(* The observability registry: named counters (the old Instrument
   contract, unchanged) plus fixed-bucket histograms for latencies and
   sizes.  Histogram buckets are geometric with four sub-buckets per
   power of two, so a recorded value is attributed to a bucket whose
   upper bound overshoots it by at most 25% — enough for p50/p95/p99
   reporting without per-sample storage, and snapshots merge by plain
   bucket addition.

   Timing is opt-in per registry ([set_timed]): when off, the [start]/
   [stop] pair at every instrumented site reduces to one mutable-field
   read and one float compare, so the hooks can stay in the hot paths
   permanently. *)

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
  h_buckets : int array;
}

(* Index layout: 0..3 are exact values 0..3; above that, four
   sub-buckets per bit length up to 63-bit values. *)
let n_buckets = 248

let bucket_of v =
  if v <= 3 then max 0 v
  else begin
    let bl = ref 0 and x = ref v in
    while !x <> 0 do
      incr bl;
      x := !x lsr 1
    done;
    let sub = (v lsr (!bl - 3)) land 3 in
    min (n_buckets - 1) (4 + (4 * (!bl - 3)) + sub)
  end

let bucket_upper idx =
  if idx <= 3 then idx
  else
    let k = idx - 4 in
    let bl = 3 + (k / 4) and sub = k mod 4 in
    let w = 1 lsl (bl - 3) in
    (1 lsl (bl - 1)) + (sub * w) + w - 1

type hsnap = {
  s_count : int;
  s_sum : int;
  s_min : int;
  s_max : int;
  s_buckets : int array;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable timed : bool;
}

let create () =
  { counters = Hashtbl.create 64; hists = Hashtbl.create 16; timed = false }

let global = create ()

(* ---- counters (the Instrument contract) ---- *)

let counter_cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let bump t name = incr (counter_cell t name)

let bump_by t name n =
  let r = counter_cell t name in
  r := !r + n

let get_counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let reset_counters t = Hashtbl.iter (fun _ r -> r := 0) t.counters

let counter_snapshot t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_counters ppf t =
  let items = counter_snapshot t in
  Format.fprintf ppf "@[<v>";
  List.iter (fun (name, v) -> Format.fprintf ppf "%-32s %d@," name v) items;
  Format.fprintf ppf "@]"

(* ---- histograms ---- *)

let hist_cell t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h =
      {
        h_count = 0;
        h_sum = 0;
        h_min = max_int;
        h_max = 0;
        h_buckets = Array.make n_buckets 0;
      }
    in
    Hashtbl.add t.hists name h;
    h

let observe t name v =
  let v = max 0 v in
  let h = hist_cell t name in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_of v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let set_timed t b = t.timed <- b

let timed t = t.timed

(* [start] returns the sentinel -1 when timing is off; [stop] then does
   one int compare and returns.  An int timestamp is immediate, so a
   caller that keeps one (an inlined [start], a record field) boxes
   nothing.  Nanosecond integers ride on gettimeofday, so the effective
   resolution is ~1µs. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let start t = if t.timed then now_ns () else -1

let stop t name t0 = if t0 >= 0 then observe t name (now_ns () - t0)

let hist_snapshot t name =
  match Hashtbl.find_opt t.hists name with
  | None -> None
  | Some h ->
    Some
      {
        s_count = h.h_count;
        s_sum = h.h_sum;
        s_min = h.h_min;
        s_max = h.h_max;
        s_buckets = Array.copy h.h_buckets;
      }

let hist_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.hists []
  |> List.sort String.compare

let empty_hsnap =
  { s_count = 0; s_sum = 0; s_min = max_int; s_max = 0;
    s_buckets = Array.make n_buckets 0 }

let merge a b =
  {
    s_count = a.s_count + b.s_count;
    s_sum = a.s_sum + b.s_sum;
    s_min = min a.s_min b.s_min;
    s_max = max a.s_max b.s_max;
    s_buckets = Array.init n_buckets (fun i -> a.s_buckets.(i) + b.s_buckets.(i));
  }

let percentile s p =
  if s.s_count = 0 then 0
  else begin
    let target =
      let raw = int_of_float (ceil (p /. 100. *. float_of_int s.s_count)) in
      min s.s_count (max 1 raw)
    in
    let acc = ref 0 and result = ref s.s_max in
    (try
       for i = 0 to n_buckets - 1 do
         acc := !acc + s.s_buckets.(i);
         if !acc >= target then begin
           result := min (bucket_upper i) s.s_max;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let fmt_ns ns =
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then
    Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else Printf.sprintf "%.2fs" (float_of_int ns /. 1e9)

let pp_hsnap ppf s =
  if s.s_count = 0 then Format.pp_print_string ppf "n=0"
  else
    Format.fprintf ppf "n=%d p50=%s p95=%s p99=%s max=%s" s.s_count
      (fmt_ns (percentile s 50.))
      (fmt_ns (percentile s 95.))
      (fmt_ns (percentile s 99.))
      (fmt_ns s.s_max)
