(** Causal spans across the TC/DC boundary.

    Each TC-originated operation carries a trace id in its wire frame
    header (inside the checksummed region — a corrupted id fails frame
    validation and the frame is dropped, so a span is never
    misattributed).  TC, transport (both channels), DC and WAL record
    span events — dispatch, xmit, recv, apply, skip (idempotence),
    force, ack, resend, drop — into one process-wide bounded ring.

    The ring is global so components record without threading a handle;
    a test or chaos cycle brackets its run with [clear]/[set_enabled].
    While disabled, [record] is a single boolean load and [fresh_tid]
    returns 0 (frames then carry the reserved "untraced" id). *)

type event = {
  e_tid : int;  (** 0 = untraced (control traffic, WAL forces) *)
  e_seq : int;  (** causal order within the process *)
  e_t : float;  (** wall clock, seconds *)
  e_comp : string;  (** recording component: "tc", "transport", "dc", … *)
  e_ev : string;
  e_attrs : (string * string) list;
}

val enabled : unit -> bool

val set_enabled : bool -> unit

val clear : unit -> unit
(** Drop all events and restart trace-id/sequence numbering. *)

val set_capacity : int -> unit
(** Resize (and clear) the ring.  Default 65536 events. *)

val fresh_tid : unit -> int
(** A new non-zero trace id, or 0 while tracing is disabled.  Wraps at
    32 bits — the id's width in the frame header. *)

val record :
  tid:int -> comp:string -> ev:string -> (string * string) list -> unit

val events : unit -> event list
(** Ring contents, oldest first. *)

val recorded : unit -> int
(** Total events recorded since [clear] (including overwritten ones). *)

val dropped : unit -> int
(** Events lost to ring wrap-around since [clear]. *)

val to_jsonl : unit -> string
(** One JSON object per line:
    [{"tid":…,"seq":…,"t":…,"comp":"…","ev":"…","attrs":{…}}].
    Parsed back by {!Analyzer.of_jsonl}. *)
