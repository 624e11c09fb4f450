(** Secondary-index maintenance as logical multi-record operations.

    The paper's record-oriented TC/DC interface (Section 3) has no
    notion of an index: the DC serves exactly one B-tree per table.
    This module builds secondary indexes {e on top of} that interface —
    an index is just another table whose records are order-preserving
    encodings of [(secondary key, primary key)], and maintaining it is
    ordinary transactional work:

    - every entry mutation travels through the normal TC dispatch path
      {e inside the same user transaction} as the primary-record
      mutation it mirrors (logical multi-record operations, the
      Tarantool HASH/TREE-secondary-key shape), so commit makes the
      record and its entries atomically visible and abort rolls both
      back through the ordinary compensation path;
    - index {e structure} changes (page splits, consolidations) remain
      system transactions inside the DC, exactly as for any table —
      nothing here knows about pages.

    Because entries are ordinary records, every existing mechanism
    applies unchanged: logical redo ships entries to their owning
    partition, idempotent replay covers them, replicas mirror them, and
    the post-crash auditor can hold them to parity with the primary
    table ({!expected_entries}).

    {b Contract.}  A [`Fail] from any wrapper leaves the transaction
    with a partially applied multi-record operation; the caller must
    abort the whole transaction (rollback undoes every applied piece).
    Under the [Optimistic] protocol, reads do not observe the
    transaction's own buffered writes, so an indexed transaction must
    touch each primary key at most once. *)

module Tc := Untx_tc.Tc

type extract = key:string -> value:string -> string list
(** Computes a record's secondary keys.  Must be deterministic; the
    returned list is deduplicated.  An empty list means the record has
    no entries in that index. *)

type t
(** A registry of index definitions (which tables carry which indexes).
    Pure routing metadata — no record state lives here. *)

val create : ?counters:Untx_util.Instrument.t -> unit -> t

val define : t -> table:string -> name:string -> extract:extract -> unit
(** Register index [name] on [table].  The entry table
    ({!index_table}) must be created/mapped by the caller (or
    {!Untx_cloud.Deploy.add_indexed_table}) with the same versioned-ness
    as the primary.  Raises [Invalid_argument] on duplicate names. *)

val indexes : t -> table:string -> string list
(** The names of the indexes defined on [table], sorted. *)

val index_table : table:string -> name:string -> string
(** The entry table's name, ["<table>#<name>"]. *)

(** {2 Entry encoding}

    An entry's key is an order-preserving encoding of
    [(secondary key, primary key)]: the secondary key with every
    [\x00] byte escaped to [\x00\xff], a [\x00\x01] terminator, then
    the primary key verbatim.  Entries sharing a secondary key are
    exactly the keys with prefix {!prefix} — no other secondary key's
    entries can fall inside it — so one range scan answers a lookup.
    The entry's value is the primary key (redundantly, for audits). *)

val entry_key : sec:string -> pk:string -> string

val prefix : sec:string -> string
(** All of [sec]'s entries, and nothing else, start with this. *)

val sec_of_entry : string -> string
(** The decoded secondary-key component.  Total: a key with no
    terminator decodes as one bare secondary key (this is what
    secondary-hash partition maps feed on, including scan cursors). *)

val pk_of_entry : string -> string

(** {2 Transactional maintenance}

    Drop-in replacements for [Tc.insert]/[Tc.update]/[Tc.delete] on an
    indexed table: the primary operation plus every entry mutation it
    implies, all inside [txn].  Outcomes short-circuit left to right;
    see the module contract about [`Fail]. *)

val insert :
  t -> Tc.t -> Tc.txn -> table:string -> key:string -> value:string ->
  unit Tc.outcome

val update :
  t -> Tc.t -> Tc.txn -> table:string -> key:string -> value:string ->
  unit Tc.outcome
(** Reads the old value first (to diff old vs new entries); fails fast
    with ["no such key"] when the record is absent, on versioned and
    unversioned tables alike. *)

val delete :
  t -> Tc.t -> Tc.txn -> table:string -> key:string -> unit Tc.outcome
(** Deleting an absent key is an [`Ok] no-op with no entry traffic,
    mirroring [Tc.delete]. *)

val lookup :
  t -> Tc.t -> Tc.txn -> table:string -> index:string -> sec:string ->
  (string * string) list Tc.outcome
(** Every primary record whose [index] extraction includes [sec], as
    [(primary key, value)] in primary-key order: one batched range scan
    over the entry prefix, then a read of each named primary record.
    An entry whose primary record is missing, or whose record no longer
    extracts to [sec], is corruption and fails loudly. *)

val engine : t -> Tc.t -> (module Untx_kernel.Engine.S)
(** The TC as an {!Untx_kernel.Engine.S} whose inserts, updates and
    deletes go through {!insert}, {!update} and {!delete}; reads, scans,
    commit and abort are the TC's own.  The module contract holds: a
    caller that gets [`Fail] from a mutation must abort. *)

(** {2 Parity (for audits)} *)

val expected_entries :
  t -> table:string -> index:string -> rows:(string * string) list ->
  (string * string) list
(** The exact [(entry key, entry value)] rows the entry table must hold
    when the primary table holds [rows] — the oracle side of the
    index↔primary parity audit ({!Untx_audit.Audit.check_index}). *)
