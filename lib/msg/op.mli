(** Logical (record-oriented) operations: the only vocabulary the TC may
    use when talking to a DC.  Nothing here mentions pages.

    Reads carry a {!read_mode} because a TC reading data owned by another
    TC must use a different flavour of read (Section 6.2): [Own] sees the
    current (possibly uncommitted-by-this-TC) record, [Committed] sees
    the before-version of versioned records, [Dirty] sees current values
    with no guarantees.

    [Commit_versions]/[Abort_versions] are the version housekeeping
    operations of Section 6.2.2: on commit the updating TC eliminates
    before-versions; on abort it reinstates them. *)

type key = string

type value = string

type read_mode = Own | Committed | Dirty

type t =
  | Insert of { table : string; key : key; value : value }
  | Update of { table : string; key : key; value : value }
  | Delete of { table : string; key : key }
  | Read of { table : string; key : key; mode : read_mode }
  | Scan of { table : string; from_key : key; limit : int; mode : read_mode }
  | Probe of { table : string; from_key : key; limit : int }
      (** Fetch-ahead protocol, Section 3.1: return the next keys in
          order so the TC can lock them before reading. *)
  | Fetch of { table : string; from_key : key; limit : int }
      (** The fetch-ahead read: the rows of the window a probe from
          [from_key] with this [limit] names — every key counts toward
          [limit], visible or not — with their [Own] values, and the
          keys of the window's rows the reader cannot see.  The TC sends
          it once it holds the probed keys' locks and compares the
          window's keys with them. *)
  | Commit_versions of { table : string; keys : key list }
  | Abort_versions of { table : string; keys : key list }

val is_read : t -> bool
(** Reads, probes and fetches: never logged, never redone. *)

val table : t -> string

val conflicts : t -> t -> bool
(** Whether the two operations may not execute concurrently at a DC:
    same table, overlapping key footprint, at least one writer.  The TC
    enforces this before dispatch; the kernel asserts it in debug. *)

val pp : Format.formatter -> t -> unit

val size : t -> int
(** Modeled size in bytes (a 16-byte header allowance plus the
    operation's strings), for log-volume accounting.  No log encodes
    operations, so this is a model, not bytes written. *)
