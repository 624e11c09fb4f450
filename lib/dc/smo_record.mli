(** DC-log records: the DC's private log of system transactions
    (Section 5.2.2).

    Splits are logged the way the paper prescribes: a *physical* image of
    the new page (including its abstract LSNs at split time) plus a
    *logical* record for the pre-split page — just the separator, since
    whatever version of that page is on stable storage, its own abLSN
    remains valid for the keys it retains.

    Page deletes/consolidations do not commute with earlier TC
    operations on the absorbed key range, so the survivor is logged
    *physically*, with an abstract LSN that is the merge ("maximum") of
    the two pages' abLSNs — this pins the delete's position in the
    execution order even though DC recovery replays it before TC redo.

    The record's own position in the DC log is its dLSN; affected pages
    are stamped with it. *)

type page_image = {
  pid : Untx_storage.Page_id.t;
  kind : Untx_storage.Page.kind;
  cells : (string * string) list;
  next : Untx_storage.Page_id.t option;
  ablsns : Ablsn.t Untx_util.Tc_id.Map.t;
}

val image_of_page :
  Untx_storage.Page.t -> ablsns:Ablsn.t Untx_util.Tc_id.Map.t -> page_image

type t =
  | Create_table of {
      table : string;
      versioned : bool;
      root : Untx_storage.Page_id.t;
    }
  | Split of {
      table : string;
      level : int;
      old_pid : Untx_storage.Page_id.t;
      sep_key : string;
          (** The routing key added to the parent and the logical part:
              redo removes the old page's keys >= this.  It can sort
              below the new page's first key (a truncated leaf
              separator), and a stale image of the old page can hold a
              key deleted before the split in that gap; routing sends
              such a key to the new page, so the old page must shed it
              here or the TC's redo of the delete never reaches it. *)
      new_image : page_image;  (** the physical part *)
      parent_pid : Untx_storage.Page_id.t;
      new_root : page_image option;  (** set when the split grew the tree *)
      root : Untx_storage.Page_id.t;  (** root after this SMO *)
    }
  | Consolidate of {
      table : string;
      survivor_image : page_image;  (** physical, with merged abLSNs *)
      freed_pid : Untx_storage.Page_id.t;
      parent_pid : Untx_storage.Page_id.t;
      removed_sep : string;
      new_root : Untx_storage.Page_id.t option;
          (** set when the root collapsed a level (the old root page is
              freed) *)
      root : Untx_storage.Page_id.t;
    }
  | Tc_restart of {
      tc : Untx_util.Tc_id.t;
      stable_lsn : Untx_util.Lsn.t;
    }
      (** A complete restart ran on behalf of this failed TC: every leaf
          image logged {e before} this fence may bake in effects of the
          TC's operations above [stable_lsn] — lost history that the
          restart subtracted.  Logging the fence makes the subtraction
          durable: any later replay of those images must strip them
          again, long after the restart itself is forgotten. *)

val size : t -> int
(** Modeled size in bytes: fixed header allowances plus the record's
    keys, cell data and abLSN encodings.  The DC-log holds OCaml values
    and encodes no record, so this is a model of a record's log volume,
    not bytes written — E9's logical-vs-physical comparison. *)

