(** The monolithic baseline: an integrated transactional storage engine.

    This is the architecture the paper unbundles — lock manager, log
    manager, buffer pool and access methods in one component sharing one
    log and one address space ("the truly monolithic piece of a DBMS").
    It exists so every experiment can compare the unbundled TC/DC split
    against current practice:

    - one write-ahead log for record operations *and* structure
      modifications, in strict execution order;
    - classical page LSNs: records are logged inside the operation's
      critical section, so the [opLSN <= pageLSN] idempotence test is
      sound (contrast with the DC's abstract LSNs);
    - repeat-history redo then loser undo with compensation records;
    - no messages: every operation is a function call.

    The transaction API mirrors the unbundled kernel's, with the same
    [`Blocked] protocol, so the workload driver runs identical mixes on
    both. *)

type config = {
  page_capacity : int;
  cache_pages : int;
  cc_protocol : Untx_tc.Tc.cc_protocol;
  debug_checks : bool;
}

val default_config : config

type t

val create : ?counters:Untx_util.Instrument.t -> config -> t

val create_table : t -> name:string -> unit

type txn

type 'a outcome = [ `Ok of 'a | `Blocked | `Fail of string ]

val begin_txn : t -> txn

val xid : txn -> int

val is_active : txn -> bool

val read : t -> txn -> table:string -> key:string -> string option outcome

val insert : t -> txn -> table:string -> key:string -> value:string -> unit outcome

val update : t -> txn -> table:string -> key:string -> value:string -> unit outcome

val delete : t -> txn -> table:string -> key:string -> unit outcome

val scan :
  t -> txn -> table:string -> from_key:string -> limit:int ->
  (string * string) list outcome

val commit : t -> txn -> unit outcome

val abort : t -> txn -> reason:string -> unit

val wakeups : t -> int list

val resolve_deadlock : t -> int option

val force_log : t -> unit
(** Force the log without committing — the "prepare" durability step a
    2PC participant performs. *)

val checkpoint : t -> bool

val crash : t -> unit
(** Monolithic failure is total: log tail, buffer pool, lock and
    transaction tables all vanish together (Section 5.3.1: "failures in
    a monolithic database kernel are never partial"). *)

val recover : t -> unit

(** {2 Persisted formats}

    A page's metadata is its page LSN as one unsigned LEB128 varint
    ({!Untx_util.Codec.varint}); a page never flushed has none. *)

val encode_master : (string * Untx_storage.Page_id.t) list -> string
(** The master record: the number of tables, then per table its name
    (a varint length, then its bytes) and its root page id (a varint).
    Tables [a] at page 3 and [kv] at page 300 are
    [\x02 \x01a \x03 \x02kv \xac\x02]. *)

val decode_master : string -> (string * Untx_storage.Page_id.t) list
(** The inverse of {!encode_master}, canonical: a truncated field or
    trailing bytes raise [Invalid_argument]. *)

(** {2 Introspection} *)

val check : t -> (unit, string) result

val dump_table : t -> string -> (string * string) list

val log_bytes : t -> int

val log_forces : t -> int

val lock_acquisitions : t -> int
