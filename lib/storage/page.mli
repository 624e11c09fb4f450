(** Slotted pages.

    A page holds a sorted run of [(key, data)] cells plus an opaque
    metadata blob.  The metadata blob is where the owning component stores
    the recovery bookkeeping that must be made stable atomically with the
    page — abstract LSNs and dLSNs for a DC page (paper Section 5.1.2,
    "page sync"), a plain page LSN for the monolithic baseline.

    Cell data is uninterpreted here: leaf pages of a B-tree store encoded
    records, inner pages store encoded child page ids. *)

type kind = Leaf | Inner

type t

val create : id:Page_id.t -> kind:kind -> capacity:int -> t
(** [capacity] is the byte budget for cells (keys + data + per-cell
    overhead); metadata is accounted separately by {!meta_size}. *)

val id : t -> Page_id.t

val kind : t -> kind

val capacity : t -> int

val cell_count : t -> int

val used_bytes : t -> int

val cell_size : key:string -> data:string -> int
(** Bytes a cell occupies, including slot overhead. *)

val would_overflow : t -> key:string -> data:string -> bool
(** Whether setting [key] to [data] would exceed the page's capacity. *)

val find : t -> string -> string option
(** Exact-key lookup. *)

val mem : t -> string -> bool
(** Whether the page holds [key]; allocates nothing. *)

val find_le : t -> string -> int
(** Index of the rightmost cell with key <= the argument ({!nth} reads
    it); [-1] if every cell is greater (or the page is empty).  This is
    the routing primitive for inner B-tree pages, and allocates
    nothing. *)

val set : t -> key:string -> data:string -> unit
(** Insert or replace.  The caller must have checked {!would_overflow};
    this function does not enforce the capacity (structure modification
    policy lives in the access method). *)

val remove : t -> string -> bool
(** [remove t key] deletes the cell; [false] if absent. *)

val min_key : t -> string option

val max_key : t -> string option

val cells : t -> (string * string) list
(** All cells in key order. *)

val iter_from : t -> string -> (string -> string -> [ `Continue | `Stop ]) -> unit
(** [iter_from t key f] visits cells with key >= [key] in order until [f]
    stops or the page is exhausted. *)

val nth : t -> int -> string * string
(** Cell at position [i] in key order; raises [Invalid_argument] if out of
    range. *)

val split_upper :
  ?incoming:string * string -> t -> string * (string * string) list
(** [split_upper ?incoming t] moves the upper cells of [t] out and
    returns [(split_key, moved_cells)]: every kept cell has key <
    split_key, every moved one key >= split_key.  The cut balances the
    bytes of the two sides, [incoming] counted at its place: the
    [(key, data)] cell whose write did not fit, which the caller sets
    after the split (a present key's cell counted at its new size).  A
    new key sorting between the two sides is counted on the side that
    balances better, and sorts below [split_key] exactly when that is
    the left one ([split_key] is then the first moved key, else the
    incoming key).  The sides differ by at most one cell's bytes,
    unless keeping a page cell on each side forbids it, and a tie goes
    to the left: four equal cells and an appended fifth split 3/2, ten
    equal cells 5/5.  Requires at least two cells. *)

val absorb : t -> (string * string) list -> unit
(** Add the given cells (used by consolidation and split redo). *)

val next : t -> Page_id.t option
(** Right sibling link (leaf chains). *)

val set_next : t -> Page_id.t option -> unit

val meta : t -> string
(** The opaque metadata blob, [""] initially. *)

val set_meta : t -> string -> unit

val meta_size : t -> int

val copy : t -> t
(** Deep copy; disk snapshots rely on this. *)

val replace_cells : t -> (string * string) list -> unit
(** Overwrite the cell content wholesale (recovery from a physical page
    image).  The list need not be sorted. *)

