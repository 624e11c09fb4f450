module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Fault = Untx_fault.Fault

(* Fault points: transient I/O errors on either side of the platter, and
   the torn write — a crash mid-write that leaves only a prefix of the
   new image on disk. *)
let p_write_io = Fault.declare "disk.page_write.io"

let p_read_io = Fault.declare "disk.page_read.io"

let p_torn = Fault.declare "disk.page_write.torn"

type t = {
  pages : Page.t Page_id.Tbl.t;
  torn : Page.t Page_id.Tbl.t;
      (* torn images pending detection, keyed by page id; the last good
         image (if any) stays in [pages] untouched *)
  mutable next_id : int;
  mutable free_list : Page_id.Set.t;
  counters : Instrument.t;
  c_page_reads : int ref; (* "disk.page_reads", resolved once *)
  c_page_writes : int ref; (* "disk.page_writes" *)
  mutable master : string option;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_written : int;
  mutable io_retries : int;
  mutable torn_writes : int;
  mutable torn_detected : int;
}

let create ?(counters = Instrument.global) () =
  {
    pages = Page_id.Tbl.create 256;
    torn = Page_id.Tbl.create 4;
    next_id = 1;
    free_list = Page_id.Set.empty;
    counters;
    c_page_reads = Metrics.counter_cell counters "disk.page_reads";
    c_page_writes = Metrics.counter_cell counters "disk.page_writes";
    master = None;
    reads = 0;
    writes = 0;
    bytes_written = 0;
    io_retries = 0;
    torn_writes = 0;
    torn_detected = 0;
  }

let alloc t =
  match Page_id.Set.min_elt_opt t.free_list with
  | Some id ->
    t.free_list <- Page_id.Set.remove id t.free_list;
    id
  | None ->
    let id = Page_id.of_int t.next_id in
    t.next_id <- t.next_id + 1;
    id

let free t id =
  Page_id.Tbl.remove t.pages id;
  Page_id.Tbl.remove t.torn id;
  t.free_list <- Page_id.Set.add id t.free_list

let reserve t id = t.free_list <- Page_id.Set.remove id t.free_list

(* Transient I/O faults are retried a bounded number of times, as a real
   driver would; a fault that persists past the retries propagates as
   [Fault.Io_error]. *)
let io_attempts = 4

let with_io_retries t point =
  let rec go n =
    try Fault.hit point
    with Fault.Io_error _ when n < io_attempts - 1 ->
      t.io_retries <- t.io_retries + 1;
      Instrument.bump t.counters "disk.io_retries";
      go (n + 1)
  in
  go 0

let write t page =
  with_io_retries t p_write_io;
  (try Fault.hit p_torn
   with Fault.Injected_crash _ as e ->
     (* The crash lands mid-write: only a prefix of the new image's
        sectors reach the platter.  The torn image is stored separately
        so [read] can detect it (a real disk would fail the checksum)
        and fall back to the last fully written image. *)
     let torn = Page.copy page in
     let cells = Page.cells torn in
     let keep = List.length cells / 2 in
     Page.replace_cells torn
       (List.filteri (fun i _ -> i < keep) cells);
     Page_id.Tbl.replace t.torn (Page.id page) torn;
     t.torn_writes <- t.torn_writes + 1;
     Instrument.bump t.counters "disk.torn_writes";
     raise e);
  Page_id.Tbl.remove t.torn (Page.id page);
  t.free_list <- Page_id.Set.remove (Page.id page) t.free_list;
  t.writes <- t.writes + 1;
  t.bytes_written <- t.bytes_written + Page.used_bytes page + Page.meta_size page;
  incr t.c_page_writes;
  Page_id.Tbl.replace t.pages (Page.id page) (Page.copy page)

(* A read that finds neither an image nor a torn one transfers nothing
   and counts no read: DC-log replay asks for every page an SMO record
   names, most of them never written. *)
let read t id =
  with_io_retries t p_read_io;
  let torn = Page_id.Tbl.mem t.torn id in
  if torn then begin
    (* Checksum mismatch: discard the torn image, return the previous
       good one (or [None] if the page had never been fully written). *)
    Page_id.Tbl.remove t.torn id;
    t.torn_detected <- t.torn_detected + 1;
    Instrument.bump t.counters "disk.torn_pages_detected"
  end;
  let image = Page_id.Tbl.find_opt t.pages id in
  if torn || Option.is_some image then begin
    t.reads <- t.reads + 1;
    incr t.c_page_reads
  end;
  Option.map Page.copy image

let exists t id = Page_id.Tbl.mem t.pages id

let set_master t blob =
  t.bytes_written <- t.bytes_written + String.length blob;
  Instrument.bump t.counters "disk.master_writes";
  t.master <- Some blob

let master t = t.master

let reads t = t.reads

let writes t = t.writes

let bytes_written t = t.bytes_written

let io_retries t = t.io_retries

let torn_writes t = t.torn_writes

let torn_detected t = t.torn_detected
