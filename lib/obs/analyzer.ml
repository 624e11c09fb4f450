(* Reconstruct per-operation timelines from a trace dump.

   The input is the JSONL produced by [Trace.to_jsonl] (or the live
   event list).  Events sharing a non-zero trace id form one operation's
   timeline; consecutive events become "hops" whose latencies are
   aggregated into mergeable histograms, resend/duplicate chains are
   counted per operation, and completed round trips are grouped by
   partition to expose skew. *)

type timeline = {
  tl_tid : int;
  tl_events : Trace.event list; (* causal (seq) order *)
  tl_part : int option;
  tl_resends : int;
  tl_skips : int; (* DC idempotence-skips: duplicate deliveries absorbed *)
  tl_complete : bool; (* has both a dispatch and an ack *)
  tl_rtt_ns : int option; (* first dispatch -> last ack *)
}

type report = {
  r_timelines : timeline list;
  r_orphans : int;
  r_hops : (string * Metrics.hsnap) list;
  r_parts : (int * Metrics.hsnap) list; (* per-partition round trips *)
  r_counts : (string * (string * int) list) list;
      (* per component without per-operation spans, its events by kind *)
}

(* ---- JSONL parsing ---------------------------------------------------- *)

(* A strict parser for exactly the shape [Trace.to_jsonl] emits; raises
   [Invalid_argument] on anything else.  Keeping emitter and parser as a
   pinned pair (see the round-trip property in the test suite) avoids a
   JSON dependency. *)

let fail () = invalid_arg "Analyzer: malformed trace line"

type cursor = { s : string; mutable pos : int }

let expect c lit =
  let n = String.length lit in
  if c.pos + n > String.length c.s || String.sub c.s c.pos n <> lit then fail ();
  c.pos <- c.pos + n

let parse_int c =
  let start = c.pos in
  if c.pos < String.length c.s && c.s.[c.pos] = '-' then c.pos <- c.pos + 1;
  while c.pos < String.length c.s
        && match c.s.[c.pos] with '0' .. '9' -> true | _ -> false do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail ();
  match int_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some i -> i
  | None -> fail ()

let parse_float c =
  let start = c.pos in
  while c.pos < String.length c.s
        && match c.s.[c.pos] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail ();
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some f -> f
  | None -> fail ()

(* The opening quote has been consumed; reads through the closing one. *)
let parse_string c =
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then fail ();
    match c.s.[c.pos] with
    | '"' -> c.pos <- c.pos + 1
    | '\\' ->
      if c.pos + 1 >= String.length c.s then fail ();
      (match c.s.[c.pos + 1] with
      | '"' -> Buffer.add_char buf '"'; c.pos <- c.pos + 2
      | '\\' -> Buffer.add_char buf '\\'; c.pos <- c.pos + 2
      | 'n' -> Buffer.add_char buf '\n'; c.pos <- c.pos + 2
      | 'r' -> Buffer.add_char buf '\r'; c.pos <- c.pos + 2
      | 't' -> Buffer.add_char buf '\t'; c.pos <- c.pos + 2
      | 'u' ->
        if c.pos + 6 > String.length c.s then fail ();
        (match int_of_string_opt ("0x" ^ String.sub c.s (c.pos + 2) 4) with
        | Some code when code < 256 ->
          Buffer.add_char buf (Char.chr code);
          c.pos <- c.pos + 6
        | _ -> fail ())
      | _ -> fail ());
      go ()
    | ch ->
      Buffer.add_char buf ch;
      c.pos <- c.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_attrs c =
  expect c "{";
  if c.pos < String.length c.s && c.s.[c.pos] = '}' then begin
    c.pos <- c.pos + 1;
    []
  end
  else begin
    let rec pairs acc =
      expect c "\"";
      let k = parse_string c in
      expect c ":\"";
      let v = parse_string c in
      let acc = (k, v) :: acc in
      if c.pos < String.length c.s && c.s.[c.pos] = ',' then begin
        c.pos <- c.pos + 1;
        pairs acc
      end
      else begin
        expect c "}";
        List.rev acc
      end
    in
    pairs []
  end

let parse_line line =
  let c = { s = line; pos = 0 } in
  expect c "{\"tid\":";
  let tid = parse_int c in
  expect c ",\"seq\":";
  let seq = parse_int c in
  expect c ",\"t\":";
  let t = parse_float c in
  expect c ",\"comp\":\"";
  let comp = parse_string c in
  expect c ",\"ev\":\"";
  let ev = parse_string c in
  expect c ",\"attrs\":";
  let attrs = parse_attrs c in
  expect c "}";
  if c.pos <> String.length line then fail ();
  { Trace.e_tid = tid; e_seq = seq; e_t = t; e_comp = comp; e_ev = ev;
    e_attrs = attrs }

let of_jsonl s =
  String.split_on_char '\n' s
  |> List.filter (fun l -> l <> "")
  |> List.map parse_line

(* ---- reconstruction --------------------------------------------------- *)

(* A hop label folds the direction attribute in, so the request and
   reply legs of the data channel aggregate separately. *)
let label (e : Trace.event) =
  match List.assoc_opt "dir" e.Trace.e_attrs with
  | Some d -> e.Trace.e_ev ^ "." ^ d
  | None -> e.Trace.e_ev

let ns_between (a : Trace.event) (b : Trace.event) =
  max 0 (int_of_float ((b.Trace.e_t -. a.Trace.e_t) *. 1e9))

let analyze events =
  let by_tid : (int, Trace.event list) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.e_tid <> 0 then begin
        if not (Hashtbl.mem by_tid e.Trace.e_tid) then
          order := e.Trace.e_tid :: !order;
        Hashtbl.replace by_tid e.Trace.e_tid
          (e :: Option.value ~default:[] (Hashtbl.find_opt by_tid e.Trace.e_tid))
      end)
    events;
  let hops = Metrics.create () in
  let parts : (int, Metrics.hsnap) Hashtbl.t = Hashtbl.create 8 in
  let part_reg = Metrics.create () in
  let timelines =
    List.rev_map
      (fun tid ->
        let evs =
          List.sort
            (fun (a : Trace.event) b -> Int.compare a.Trace.e_seq b.Trace.e_seq)
            (Hashtbl.find by_tid tid)
        in
        let rec hop_walk = function
          | a :: (b :: _ as rest) ->
            Metrics.observe hops (label a ^ "->" ^ label b) (ns_between a b);
            hop_walk rest
          | _ -> ()
        in
        hop_walk evs;
        let count ev =
          List.length (List.filter (fun e -> e.Trace.e_ev = ev) evs)
        in
        let find ev = List.find_opt (fun e -> e.Trace.e_ev = ev) evs in
        let find_last ev =
          List.fold_left
            (fun acc e -> if e.Trace.e_ev = ev then Some e else acc)
            None evs
        in
        let part =
          List.find_map
            (fun e ->
              Option.bind
                (List.assoc_opt "part" e.Trace.e_attrs)
                int_of_string_opt)
            evs
        in
        let rtt =
          match (find "dispatch", find_last "ack") with
          | Some d, Some a -> Some (ns_between d a)
          | _ -> None
        in
        (match (rtt, part) with
        | Some ns, Some p ->
          Metrics.observe part_reg (string_of_int p) ns;
          Hashtbl.replace parts p Metrics.empty_hsnap
        | _ -> ());
        {
          tl_tid = tid;
          tl_events = evs;
          tl_part = part;
          tl_resends = count "resend";
          tl_skips = count "skip";
          tl_complete = rtt <> None;
          tl_rtt_ns = rtt;
        })
      !order
  in
  let r_parts =
    Hashtbl.fold
      (fun p _ acc ->
        match Metrics.hist_snapshot part_reg (string_of_int p) with
        | Some s -> (p, s) :: acc
        | None -> acc)
      parts []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (* Replication, layer-store, front-end and branch events have no
     per-operation span — no transaction owns a ship, a compaction, a
     shed admission or a fork — so they are counted by kind instead of
     joined into timelines. *)
  let r_counts =
    List.filter_map
      (fun comp ->
        let counts = Hashtbl.create 4 in
        List.iter
          (fun (e : Trace.event) ->
            if e.Trace.e_comp = comp then
              Hashtbl.replace counts e.Trace.e_ev
                (1
                + Option.value ~default:0 (Hashtbl.find_opt counts e.Trace.e_ev)
                ))
          events;
        match
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        with
        | [] -> None
        | kinds -> Some (comp, kinds))
      [ "repl"; "layer"; "front"; "branch" ]
  in
  {
    r_timelines = timelines;
    r_orphans =
      List.length (List.filter (fun tl -> not tl.tl_complete) timelines);
    r_hops =
      List.filter_map
        (fun name ->
          Option.map (fun s -> (name, s)) (Metrics.hist_snapshot hops name))
        (Metrics.hist_names hops);
    r_parts;
    r_counts;
  }

let pp_summary ppf r =
  Format.fprintf ppf "@[<v>ops traced: %d (orphans: %d)@,"
    (List.length r.r_timelines) r.r_orphans;
  let resends =
    List.fold_left (fun acc tl -> acc + tl.tl_resends) 0 r.r_timelines
  and skips =
    List.fold_left (fun acc tl -> acc + tl.tl_skips) 0 r.r_timelines
  in
  Format.fprintf ppf "resends: %d, duplicate deliveries absorbed: %d@,"
    resends skips;
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "hop %-24s %a@," name Metrics.pp_hsnap s)
    r.r_hops;
  List.iter
    (fun (p, s) ->
      Format.fprintf ppf "partition %d rtt: %a@," p Metrics.pp_hsnap s)
    r.r_parts;
  List.iter
    (fun (comp, kinds) ->
      Format.fprintf ppf "%s:" comp;
      List.iter (fun (ev, n) -> Format.fprintf ppf " %s=%d" ev n) kinds;
      Format.fprintf ppf "@,")
    r.r_counts;
  Format.fprintf ppf "@]"
