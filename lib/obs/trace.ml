(* Causal spans across the TC/DC boundary.

   Every TC-originated operation gets a trace id stamped into its wire
   frame's header (checksummed with the rest of the frame, so a
   corrupted id can never misattribute a span — the frame is simply
   dropped).  The TC, both transport channels, the DC and the WAL
   record span events against that id into one process-wide bounded
   ring; [to_jsonl] dumps the ring for the analyzer.

   The ring is global, like [Fault]'s registry: components record
   without threading a handle, and a test or chaos cycle brackets its
   run with [clear]/[set_enabled].  When disabled, [record] is one
   boolean load, [fresh_tid] returns 0 (frames carry tid 0 and no
   events are recorded). *)

type event = {
  e_tid : int;  (* 0 = untraced (control traffic, WAL forces) *)
  e_seq : int;  (* causal order within the process *)
  e_t : float;  (* wall clock, seconds *)
  e_comp : string;
  e_ev : string;
  e_attrs : (string * string) list;
}

let dummy =
  { e_tid = 0; e_seq = 0; e_t = 0.; e_comp = ""; e_ev = ""; e_attrs = [] }

type ring = {
  mutable enabled : bool;
  mutable cap : int;
  mutable slots : event array; (* allocated lazily on first enable *)
  mutable n : int; (* total recorded since clear *)
  mutable next_tid : int;
  mutable next_seq : int;
}

let g =
  { enabled = false; cap = 65_536; slots = [||]; n = 0; next_tid = 0;
    next_seq = 0 }

let enabled () = g.enabled

let clear () =
  g.n <- 0;
  g.next_tid <- 0;
  g.next_seq <- 0

let set_enabled b =
  if b && Array.length g.slots <> g.cap then g.slots <- Array.make g.cap dummy;
  g.enabled <- b

let set_capacity cap =
  if cap <= 0 then invalid_arg "Trace.set_capacity";
  g.cap <- cap;
  g.slots <- (if g.enabled then Array.make cap dummy else [||]);
  clear ()

(* Trace ids are frame-header fields (4 bytes on the wire), so they wrap
   at 32 bits; 0 is reserved for "untraced". *)
let fresh_tid () =
  if not g.enabled then 0
  else begin
    g.next_tid <- (g.next_tid + 1) land 0xFFFFFFFF;
    if g.next_tid = 0 then g.next_tid <- 1;
    g.next_tid
  end

let record ~tid ~comp ~ev attrs =
  if g.enabled then begin
    let e =
      { e_tid = tid; e_seq = g.next_seq; e_t = Unix.gettimeofday ();
        e_comp = comp; e_ev = ev; e_attrs = attrs }
    in
    g.next_seq <- g.next_seq + 1;
    g.slots.(g.n mod g.cap) <- e;
    g.n <- g.n + 1
  end

let recorded () = g.n

let dropped () = max 0 (g.n - g.cap)

let events () =
  if g.n <= g.cap then List.init g.n (fun i -> g.slots.(i))
  else List.init g.cap (fun i -> g.slots.((g.n + i) mod g.cap))

(* ---- structured dump ---- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let event_to_buf buf e =
  Buffer.add_string buf (Printf.sprintf "{\"tid\":%d,\"seq\":%d" e.e_tid e.e_seq);
  Buffer.add_string buf (Printf.sprintf ",\"t\":%.7f" e.e_t);
  Buffer.add_string buf ",\"comp\":\"";
  escape buf e.e_comp;
  Buffer.add_string buf "\",\"ev\":\"";
  escape buf e.e_ev;
  Buffer.add_string buf "\",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      escape buf k;
      Buffer.add_string buf "\":\"";
      escape buf v;
      Buffer.add_char buf '"')
    e.e_attrs;
  Buffer.add_string buf "}}\n"

let to_jsonl () =
  let buf = Buffer.create 4096 in
  List.iter (event_to_buf buf) (events ());
  Buffer.contents buf
