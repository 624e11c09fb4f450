(** The DC's on-page record representation.

    Beyond the user value, a record carries what the multi-TC and
    versioning machinery of Section 6 needs:

    - [writer]: the TC whose operations own this record.  Per-TC page
      reset after a TC failure (Section 6.1.2) replaces exactly the
      failed TC's records from the disk version — the paper suggests
      linking records to the TC's abLSN on the page; tagging each record
      with its writing TC is the equivalent association.
    - [before]: the committed before-version of Section 6.2.2.
      [Null_before] marks a freshly inserted record ("a before null
      version followed by the intended insert"), so aborting the insert
      removes the record and read-committed readers skip it.
    - [deleted]: a versioned delete keeps the record as a tombstone
      until the transaction's fate is known.
    - [wlsn]: the LSN of the operation that last wrote the record.
      After a TC failure, effects above the failed TC's stable log must
      be subtracted from every recoverable page image (Section 5.3.2);
      the write LSN is what identifies them. *)

type before = Absent | Null_before | Value_before of string

type t = {
  value : string;
  deleted : bool;
  before : before;
  writer : Untx_util.Tc_id.t;
  wlsn : Untx_util.Lsn.t;
}

val plain : writer:Untx_util.Tc_id.t -> wlsn:Untx_util.Lsn.t -> string -> t
(** An unversioned committed record. *)

val current : t -> string option
(** What the owning TC (or a dirty reader) sees: [None] for tombstones. *)

val committed : t -> string option
(** What a read-committed reader from another TC sees: the before
    version when one exists, the current value otherwise. *)

(** {2 Point writes}

    The one statement of what an insert, update or delete does to the
    record at its key.  The DC applies it to its pages, and
    [Untx_layer.Layer] replays shipped redo through it, so a layer's
    materialized records match the primary's byte for byte. *)

type write = Insert of string | Update of string | Delete

type outcome =
  | Set of t  (** store this record at the key *)
  | Remove  (** remove the key (an unversioned delete) *)
  | Unchanged  (** nothing to do (deleting an absent key) *)
  | Fail of string  (** the operation fails with this message *)

val write :
  versioned:bool ->
  writer:Untx_util.Tc_id.t ->
  wlsn:Untx_util.Lsn.t ->
  t option ->
  write ->
  outcome
(** [write ~versioned ~writer ~wlsn prior w]: the record [w] leaves at
    a key whose record was [prior] ([None] when absent; a tombstone
    counts as absent).  An insert over a live record fails with
    ["duplicate key"], an update of an absent one with ["no such key"];
    deleting an absent record is {!Unchanged}.  Unversioned writes store
    a {!plain} record or {!Remove} the key.  Versioned writes keep the
    committed before-version: an insert gets {!Null_before} (or, over a
    tombstone, the tombstone's), the first update or delete saves the
    prior value as {!Value_before}, and a delete leaves a tombstone. *)

val commit : t -> wlsn:Untx_util.Lsn.t -> outcome
(** Commit of the versioned write that left [t]: a tombstone is
    {!Remove}d, a record with a before-version drops it and takes
    [wlsn], and one without is {!Unchanged}. *)

val abort : t -> wlsn:Untx_util.Lsn.t -> outcome
(** Abort of the versioned write that left [t]: a {!Null_before}
    record is {!Remove}d, a {!Value_before} [v] one becomes a live [v]
    with no before-version and [wlsn], and one without is
    {!Unchanged}. *)

(** {2 The cell}

    A record is stored as one binary cell:

    {v
    flags | writer | wlsn | value length | value | before-value
    1 byte  varint   varint  varint
    v}

    The flags byte holds [deleted] in bit 0 and the before-kind in bits
    1-2 ([0] {!Absent}, [1] {!Null_before}, [2] {!Value_before}); every
    other bit is zero.  The varints are {!Untx_util.Codec}'s canonical
    LEB128.  The before-value runs to the end of the cell and is there
    only for {!Value_before}.  A 16-byte value with writer 1 and a
    two-byte wlsn makes a 21-byte cell. *)

val encode : t -> string

val decode : string -> t
(** Canonical: raises [Invalid_argument] on unknown flag bits or
    before-kind, an overlong or truncated varint, a value running past
    the cell, or bytes after the value of an {!Absent} or
    {!Null_before} cell — so a cell that decodes re-encodes to itself. *)

val encoded_size : t -> int

(** {2 Version housekeeping on the cell}

    What commit and abort of a versioned write need, read from the flags
    byte and the header where they sit, without decoding the record. *)

val cell_deleted : string -> bool
(** The cell's [deleted] flag. *)

val cell_before : string -> [ `Absent | `Null | `Value ]
(** The cell's before-kind. *)

val commit_cell : string -> wlsn:Untx_util.Lsn.t -> string
(** For a cell that is not deleted and has a before-version: the cell
    of {!commit}'s {!Set}. *)

val abort_cell : string -> wlsn:Untx_util.Lsn.t -> string
(** For a {!Value_before} cell: the cell of {!abort}'s {!Set}. *)
