(** Buffer pool: volatile page cache in front of a {!Disk}.

    Cache management is a DC responsibility in the unbundled architecture,
    but the mechanism is generic; the DC (or the monolithic baseline)
    injects its *policy* through two hooks:

    - [can_flush page]: whether writing this page to stable storage now
      would violate causality — the unbundled WAL rule of paper
      Section 4.2 ([end_of_stable_log]) or the classical WAL rule in the
      monolithic engine.
    - [prepare_flush page]: called just before the stable write, to embed
      recovery metadata (abstract LSNs, dLSN, page LSN) in the page's
      metadata blob atomically with the flush — the paper's "page sync"
      (Section 5.1.2).

    Everything in the cache is volatile: {!crash} drops it all. *)

type t

(** {2 Eviction}

    Victims are chosen by a second-chance clock, one ring per page
    kind, leaves first: the inner ring gives up a victim only when two
    sweeps of the leaf ring find no evictable leaf (every leaf
    referenced, then every dirty one refused by [can_flush]).  Every
    access to a leaf passes through its ancestors, so an inner page is
    never colder than the leaves below it, and a B-tree's upper levels
    — which every descent reads — stay resident while the pool holds
    cold leaves.  Room is made before a page enters, so a page just
    faulted in is never its own victim.  A sweep's [can_flush] answer
    for its victim stands: the eviction writes it without asking
    again; and once the leaf ring has failed, the rest of the same
    eviction pass takes inner pages without sweeping it again. *)

val create :
  ?counters:Untx_util.Instrument.t -> disk:Disk.t -> capacity:int -> unit -> t
(** [capacity] is the maximum number of resident pages; the pool evicts
    clean or flushable pages beyond it. *)

val set_policy :
  t -> can_flush:(Page.t -> bool) -> prepare_flush:(Page.t -> unit) -> unit

val new_page : t -> kind:Page.kind -> page_capacity:int -> Page.t
(** Allocate a fresh page, resident and dirty (not yet stable). *)

val install : t -> Page.t -> unit
(** Make the given page resident and dirty under its own id, replacing
    any cached version.  Recovery uses this to materialize pages rebuilt
    from log images (including pages whose ids pre-date the crash). *)

val get : t -> Page_id.t -> Page.t
(** The resident page, faulting it in from disk if needed.
    Raises [Not_found] if the page exists neither cached nor on disk. *)

val lookup : t -> Page_id.t -> Page.t option
(** Like {!get} but [None] instead of raising. *)

val cached : t -> Page_id.t -> Page.t option
(** Only consult the cache; never touches the disk. *)

val mark_dirty : t -> Page.t -> unit
(** Mark the page dirty.  If the pool evicted it while the caller was
    still operating on the object (a fetch during a structure
    modification can do that), the object is re-installed: it is by
    construction at least as new as the stable copy the eviction wrote. *)

val is_dirty : t -> Page_id.t -> bool

val free_page : t -> Page_id.t -> unit
(** Discard the page everywhere (cache and stable storage): page delete. *)

val flush_all : t -> unit
(** Flush every dirty page whose policy allows it. *)

val drop_page : t -> Page_id.t -> unit
(** Remove the page from the cache *without* flushing — the selective
    cache reset used when a TC fails (Section 5.3.2).  The stable version
    becomes current again on the next {!get}. *)

val crash : t -> unit
(** Lose all volatile state (DC failure). *)

val with_operation_latch : t -> (unit -> 'a) -> 'a
(** Run [f] with eviction deferred: every page it touches stays resident
    and unflushed until it finishes, the pool catching up afterwards.
    This is the cache-level face of the paper's operation atomicity rule
    (Section 4.1.2): "each operation will need to latch whatever pages
    it operates on, until the operation has been performed on all the
    pages".  Without it, an eviction in the middle of an operation or a
    structure modification could write a page to stable storage with
    metadata that does not yet reflect the half-applied change.
    Nestable. *)

val enforce_capacity : t -> unit
(** Evict down to capacity if possible right now.  Useful after an
    end-of-stable-log advance turns previously unflushable pages
    flushable — eviction opportunities otherwise only arise when pages
    are touched. *)

val resident : t -> int

val dirty_pages : t -> Page_id.t list

val iter_cached : t -> (Page.t -> unit) -> unit

val evictions : t -> int

val flush_stalls : t -> int
(** Times a flush was refused by policy — E4's stall metric. *)
