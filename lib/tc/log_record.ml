module Op = Untx_msg.Op
module Lsn = Untx_util.Lsn

type t =
  | Begin of { xid : int }
  | Op_log of { xid : int; op : Op.t; undo : Op.t option }
  | Commit of { xid : int }
  | Abort of { xid : int }
  | Compensation of { xid : int; op : Op.t }
  | Finished of { xid : int }
  | Checkpoint of { rssp : Lsn.t; active : int list }

let size = function
  | Begin _ | Commit _ | Abort _ | Finished _ -> 12
  | Op_log { op; undo; _ } ->
    12 + Op.size op + (match undo with Some u -> Op.size u | None -> 0)
  | Compensation { op; _ } -> 12 + Op.size op
  | Checkpoint { active; _ } -> 16 + (8 * List.length active)

let redone f lsn = function
  | Op_log { op; _ } | Compensation { op; _ } -> f lsn op
  | Begin _ | Commit _ | Abort _ | Finished _ | Checkpoint _ -> ()
