(** B+-tree access method over slotted pages.

    This is the DC-side storage structure of the paper: the TC never sees
    it.  Leaf pages hold encoded records; inner pages hold
    [(separator_key, child_page_id)] routing cells; leaves are chained
    left-to-right for range scans.

    Structure modifications — page splits, page deletes/consolidations,
    root growth and collapse — are *system transactions* (Section 5.2):
    they execute atomically under latches and are reported to the owner
    through {!hooks} while the affected pages are still latched, so the
    owner can stamp dLSNs and write its structure-modification log before
    anything can reach stable storage.  The tree itself does no logging:
    recovery policy belongs to the component that owns the tree (the DC,
    or the monolithic baseline, which install different hooks).

    Simplifications relative to a production tree (documented in
    DESIGN.md): consolidation is implemented for leaves plus root
    collapse; inner-node underflow is tolerated (searches stay correct,
    space is reclaimed only at the leaf level where nearly all garbage
    arises). *)

type t

(** A split system transaction, reported with all pages still latched.
    [old_page] has already lost its upper cells, [new_page] holds them,
    [parent] already contains the new routing cell.  [new_root] is set
    when this split grew the tree (then [parent] = the new root). *)
type split_event = {
  level : int;  (** 0 for a leaf split *)
  old_page : Untx_storage.Page.t;
  new_page : Untx_storage.Page.t;
  sep_key : string;
      (** The routing key posted to [parent], the one boundary between
          the halves: [old_page] keeps the keys below it and [new_page]
          covers the keys at or above it.  A leaf split posts the
          shortest prefix of the right half's first key that sorts
          above the left half's last key (suffix truncation), the key
          being written counted in the half the balanced cut gave it
          ({!Untx_storage.Page.split_upper}): it is set after the
          event, so it can stand first on the right or last on the
          left.  An inner split posts [new_page]'s first routing key
          unchanged. *)
  parent : Untx_storage.Page.t;
  new_root : bool;
}

(** A page-delete/consolidate system transaction.  [survivor] has already
    absorbed [freed_page]'s cells; [freed_page] is a copy of the deleted
    page as it was (the owner needs its metadata to merge abstract LSNs,
    Section 5.2.2); the routing cell has already left [parent].
    [root_collapsed_to] is set when the root dropped a level. *)
type consolidate_event = {
  survivor : Untx_storage.Page.t;
  freed_page : Untx_storage.Page.t;
  parent : Untx_storage.Page.t;
  removed_sep : string;  (** routing cell removed from [parent] *)
  root_collapsed_to : Untx_storage.Page_id.t option;
}

type hooks = {
  on_split : split_event -> unit;
  on_consolidate : consolidate_event -> unit;
}

val null_hooks : hooks
(** Hooks that do nothing — for tests of pure structure behaviour. *)

val child_data : Untx_storage.Page_id.t -> string
(** The cell-data encoding of a child pointer in inner pages: the page
    id as one unsigned LEB128 varint and nothing else
    ({!Untx_util.Codec.varint}; page 300 is [\xac\x02]).  Exposed so a
    recovery manager can redo routing-cell insertions. *)

val create :
  cache:Untx_storage.Cache.t ->
  page_capacity:int ->
  hooks:hooks ->
  t
(** Create an empty tree (allocates the root leaf). *)

val attach :
  cache:Untx_storage.Cache.t ->
  page_capacity:int ->
  hooks:hooks ->
  root:Untx_storage.Page_id.t ->
  t
(** Re-open an existing tree at a known root (recovery path). *)

val root : t -> Untx_storage.Page_id.t

val set_root : t -> Untx_storage.Page_id.t -> unit
(** Recovery override (replaying a root-changing system transaction). *)

val find_leaf : t -> string -> Untx_storage.Page.t
(** The leaf page whose key range covers the given key.  The page is
    resident on return; the caller is responsible for latching. *)

val find : t -> string -> string option

val set : t -> key:string -> data:string -> unit
(** Insert or replace, splitting as needed. *)

val remove : t -> string -> bool
(** Delete the cell, consolidating pages when the leaf underflows. *)

val set_in : t -> Untx_storage.Page.t -> key:string -> data:string -> unit
(** [set_in t leaf ~key ~data] is [set t ~key ~data] for a caller that
    already holds [leaf = find_leaf t key], with no split or
    consolidation since ({!splits} and {!consolidations} unchanged):
    the cell is written into [leaf] without another descent, unless it
    must split. *)

val remove_in : t -> Untx_storage.Page.t -> string -> bool
(** [remove t key] on the leaf the caller already holds, under the same
    condition as {!set_in}; descends again only to consolidate. *)

val scan :
  t -> from:string -> (string -> string -> [ `Continue | `Stop ]) -> unit
(** In-order visit of cells with key >= [from], crossing leaf boundaries
    via the sibling chain. *)

val cell_count : t -> int
(** Total record cells in leaves (walks the tree). *)

val height : t -> int

val leaf_pages : t -> Untx_storage.Page_id.t list
(** Leaf chain, left to right. *)

val all_pages : t -> Untx_storage.Page_id.t list
(** Every reachable page, root included. *)

val check : t -> (unit, string) result
(** Structural well-formedness: sorted cells, consistent routing
    separators, intact leaf chain, no cycles.  The DC requires this to
    hold before TC redo may start (Section 4.2, Recovery). *)

val set_consolidation_enabled : t -> bool -> unit
(** Gate page-delete system transactions.  Disabled during restart redo:
    merging a freshly reset page into a neighbour would combine abstract
    LSNs whose low-water claims are no longer globally valid, absorbing
    redo that must re-execute.  Deferred consolidations happen on later
    removals. *)

val splits : t -> int
(** Number of split system transactions since creation/attach. *)

val consolidations : t -> int
