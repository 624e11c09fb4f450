(** TC-log records: purely logical, no page identifiers anywhere.

    Operation records are written (and given LSNs) *before* the request
    goes to the DC; because the TC never dispatches conflicting
    operations concurrently, the log order is order-preserving
    serializable even when actual execution interleaves (Section 4.1.1).

    [undo] on an operation record is the logical inverse operation (with
    the replaced value captured by a read-before-write) for tables that
    do not keep before-versions; versioned tables roll back with
    [Abort_versions] instead and log no inverse. *)

type t =
  | Begin of { xid : int }
  | Op_log of { xid : int; op : Untx_msg.Op.t; undo : Untx_msg.Op.t option }
  | Commit of { xid : int }
  | Abort of { xid : int }
  | Compensation of { xid : int; op : Untx_msg.Op.t }
      (** redo-only: an inverse (or version-housekeeping) operation
          issued during rollback or restart *)
  | Finished of { xid : int }
      (** rollback complete, or post-commit version cleanup complete *)
  | Checkpoint of { rssp : Untx_util.Lsn.t; active : int list }

val size : t -> int

val redone :
  (Untx_util.Lsn.t -> Untx_msg.Op.t -> unit) -> Untx_util.Lsn.t -> t -> unit
(** The one rule for which records redo repeats: [redone f] is a
    visitor over (LSN, record) pairs that calls [f] on the operation of
    every [Op_log] and [Compensation] record and skips the rest.
    Restart redo, DC-restart redo and log shipping all read the log
    through it. *)
