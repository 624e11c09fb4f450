(* Timing primitives for the benchmark: the ns monotonic clock, sample
   sets with nearest-rank percentiles, a loop that measures how fast the
   machine runs right now, and an in-memory span recorder that
   attributes self time to named layers. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Seconds [f ()] takes. *)
let time f =
  let t0 = now_ns () in
  f ();
  secs_since t0

(* --- sample sets --------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let append t u =
    for i = 0 to u.n - 1 do
      add t u.a.(i)
    done

  (* Multiply the samples added since the count was [from] by [f]. *)
  let scale_since t ~from f =
    for i = from to t.n - 1 do
      t.a.(i) <- t.a.(i) *. f
    done

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort compare b;
    b

  let rank t p = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))

  (* nearest rank on the sorted samples; 0 when empty *)
  let percentile t p =
    if t.n = 0 then 0.
    else
      let b = sorted t in
      b.(max 0 (min (t.n - 1) (rank t p - 1)))

  let median t = percentile t 50.

  (* How many samples lie above the [p]th percentile. *)
  let beyond t p = t.n - rank t p
end

let median_of xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.median s

(* Run [f] again and again until [seconds] have passed and it has run at
   least [min] times; the results, in order. *)
let repeat ~seconds ~min f =
  let t0 = now_ns () in
  let rec go n acc =
    if n < min || secs_since t0 < seconds then go (n + 1) (f () :: acc)
    else List.rev acc
  in
  go 0 []

(* --- machine speed ----------------------------------------------------- *)

(* A shared machine runs faster and slower in phases of seconds to
   minutes, and a phase moves every timing of a run alike.  [Speed]
   times a fixed loop next to each timed piece of work: it hashes 4000
   short string keys into a fresh table and reads them back, the
   allocation, hashing and pointer chasing the program itself does.
   The loop's time against [reference_ns] is the piece's slowness; a
   time divided by it reads as on a machine where the loop takes
   [reference_ns].  (A loop over a small array tracked the program
   less well: window times grew as its time to the power 1.3 to 1.5.) *)
module Speed = struct
  let reference_ns = 1.2e6

  let keys = Array.init 4000 (fun i -> Printf.sprintf "k%07d" (i * 7919))

  let loop () =
    let h = Hashtbl.create 16 in
    Array.iteri (fun i k -> Hashtbl.replace h k (string_of_int i)) keys;
    Array.fold_left (fun acc k -> acc + String.length (Hashtbl.find h k)) 0 keys

  let once () =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (loop ()));
    now_ns () - t0

  (* The median of three loops, so an interrupt in one does not count. *)
  let slowness () =
    let a = once () in
    let b = once () in
    let c = once () in
    float_of_int (max (min a b) (min (max a b) c)) /. reference_ns

  (* [f ()] and the seconds it took, divided by the mean slowness of the
     loops just before and just after it. *)
  let timed f =
    let s0 = slowness () in
    let t0 = now_ns () in
    let v = f () in
    let dt = secs_since t0 in
    (v, dt /. ((s0 +. slowness ()) /. 2.))

  (* Run the pieces [f 0] .. [f (n-1)], each returning the seconds it
     timed, with the loop run before, between and after them.  A piece's
     slowness is the mean of the loops on its two sides.  The samples a
     piece added to [lat] are divided by its slowness.  Each piece's
     seconds and slowness, in order. *)
  let pieces ?(lat = Samples.create ()) n f =
    let before = ref (slowness ()) in
    Array.init n (fun i ->
        let from = Samples.count lat in
        let dt = f i in
        let after = slowness () in
        let s = (!before +. after) /. 2. in
        before := after;
        Samples.scale_since lat ~from (1. /. s);
        (dt, s))

  (* The pieces' seconds, each divided by its slowness. *)
  let seconds ps = Array.fold_left (fun acc (dt, s) -> acc +. (dt /. s)) 0. ps

  (* The pieces' seconds as measured. *)
  let raw ps = Array.fold_left (fun acc (dt, _) -> acc +. dt) 0. ps

  let slownesses ps = Array.to_list (Array.map snd ps)
end

(* --- spans ---------------------------------------------------------- *)

(* Spans are kept in growable parallel arrays and written out after the
   run.  A span's parent is the innermost span open when it began; its
   request id is the transaction xid (0 outside a transaction).  Self
   time — duration minus the part covered by child spans — is summed per
   layer as spans close, so tiling needs no second pass. *)
module Spans = struct
  type t = {
    names : (string, int) Hashtbl.t;
    mutable name_of : string array;
    mutable self_ns : int array;  (* per name id *)
    mutable durations : Samples.t array;  (* per name id, ns *)
    mutable s_name : int array;
    mutable s_start : int array;
    mutable s_end : int array;
    mutable s_parent : int array;
    mutable s_rid : int array;
    mutable n : int;
    mutable stack : (int * int ref) list;  (* open span index, child ns *)
    mutable on : bool;  (* spans are recorded only inside measured regions *)
  }

  let create () =
    {
      names = Hashtbl.create 32;
      name_of = [||];
      self_ns = [||];
      durations = [||];
      s_name = Array.make 4096 0;
      s_start = Array.make 4096 0;
      s_end = Array.make 4096 0;
      s_parent = Array.make 4096 0;
      s_rid = Array.make 4096 0;
      n = 0;
      stack = [];
      on = false;
    }

  let name_id t name =
    match Hashtbl.find_opt t.names name with
    | Some i -> i
    | None ->
      let i = Array.length t.name_of in
      Hashtbl.replace t.names name i;
      t.name_of <- Array.append t.name_of [| name |];
      t.self_ns <- Array.append t.self_ns [| 0 |];
      t.durations <- Array.append t.durations [| Samples.create () |];
      i

  let grow a n = Array.append a (Array.make n 0)

  let push t ~name ~rid ~start =
    if t.n = Array.length t.s_name then begin
      let n = t.n in
      t.s_name <- grow t.s_name n;
      t.s_start <- grow t.s_start n;
      t.s_end <- grow t.s_end n;
      t.s_parent <- grow t.s_parent n;
      t.s_rid <- grow t.s_rid n
    end;
    let i = t.n in
    t.n <- i + 1;
    t.s_name.(i) <- name;
    t.s_start.(i) <- start;
    t.s_parent.(i) <- (match t.stack with (p, _) :: _ -> p | [] -> -1);
    t.s_rid.(i) <- rid;
    i

  let current_rid t =
    match t.stack with (p, _) :: _ -> t.s_rid.(p) | [] -> 0

  (* Run [f] inside a span named [name] (interned once with [name_id]);
     [rid] defaults to the enclosing span's request id. *)
  let span t ?rid id f =
    if not t.on then f ()
    else
    let rid = match rid with Some r -> r | None -> current_rid t in
    let i = push t ~name:id ~rid ~start:(now_ns ()) in
    let child = ref 0 in
    t.stack <- (i, child) :: t.stack;
    let close () =
      let stop = now_ns () in
      t.s_end.(i) <- stop;
      t.stack <- List.tl t.stack;
      let dur = stop - t.s_start.(i) in
      t.self_ns.(id) <- t.self_ns.(id) + dur - !child;
      Samples.add t.durations.(id) (float_of_int dur);
      match t.stack with (_, c) :: _ -> c := !c + dur | [] -> ()
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e

  let self_ns t name =
    match Hashtbl.find_opt t.names name with Some i -> t.self_ns.(i) | None -> 0

  let durations t name =
    match Hashtbl.find_opt t.names name with
    | Some i -> t.durations.(i)
    | None -> Samples.create ()

  (* Sum of self time over every span whose name starts with [prefix]. *)
  let layer_self_ns t prefix =
    Hashtbl.fold
      (fun name i acc ->
        if String.starts_with ~prefix name then acc + t.self_ns.(i) else acc)
      t.names 0

  let count t = t.n

  (* One span per line: index, name, start ns, end ns, parent index
     (-1 for a root), request id. *)
  let write t path =
    let oc = open_out path in
    output_string oc "# span\tname\tstart_ns\tend_ns\tparent\trid\n";
    let base = if t.n > 0 then t.s_start.(0) else 0 in
    for i = 0 to t.n - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i
        t.name_of.(t.s_name.(i))
        (t.s_start.(i) - base)
        (t.s_end.(i) - base)
        t.s_parent.(i) t.s_rid.(i)
    done;
    close_out oc
end
