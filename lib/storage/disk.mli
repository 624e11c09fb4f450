(** Simulated stable storage.

    The paper's recovery arguments depend only on the distinction between
    stable state (survives any crash) and volatile state (lost on crash).
    This module is the stable side: a page store whose contents survive
    every simulated crash, with I/O accounting so experiments can report
    read/write/flush counts and bytes.

    Pages written here are deep-copied, so later in-cache mutation cannot
    leak into "stable" state — the classic bug this substrate must make
    impossible.

    Fault points (see {!Untx_fault.Fault}): ["disk.page_write.io"] and
    ["disk.page_read.io"] inject transient I/O errors that are retried a
    bounded number of times before propagating; ["disk.page_write.torn"]
    simulates a crash mid-write that persists only a prefix of the new
    image — the torn image fails its checksum on the next {!read}, which
    falls back to the last fully written image. *)

type t

val create : ?counters:Untx_util.Instrument.t -> unit -> t

val alloc : t -> Page_id.t
(** Allocate a fresh page id (from the free list if possible). *)

val free : t -> Page_id.t -> unit
(** Return a page's space; its stored image is dropped.  Idempotent. *)

val reserve : t -> Page_id.t -> unit
(** Mark a page id as live so the allocator will not hand it out —
    recovery uses this when re-materializing a page whose id an earlier
    (replayed) free pushed onto the free list. *)

val write : t -> Page.t -> unit
(** Atomically replace the stable image of the page (a flush). *)

val read : t -> Page_id.t -> Page.t option
(** A deep copy of the stable image, or [None] if never written/freed. *)

val exists : t -> Page_id.t -> bool

val iter : t -> (Page.t -> unit) -> unit
(** Visit a copy of every stored page (order unspecified). *)

val set_master : t -> string -> unit
(** Atomically replace the master record — the well-known boot block
    where a component keeps its catalog (table roots etc.).  Stable. *)

val master : t -> string option

val reads : t -> int

val writes : t -> int

val bytes_written : t -> int

val io_retries : t -> int
(** Transient injected I/O errors absorbed by retrying. *)

val torn_writes : t -> int
(** Injected torn writes (crash mid-write, prefix persisted). *)

val torn_detected : t -> int
(** Torn images detected (checksum) and discarded by {!read}. *)
