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

let pp ppf = function
  | Begin { xid } -> Format.fprintf ppf "begin x%d" xid
  | Op_log { xid; op; undo } ->
    Format.fprintf ppf "op x%d %a%s" xid Op.pp op
      (match undo with Some _ -> " (+undo)" | None -> "")
  | Commit { xid } -> Format.fprintf ppf "commit x%d" xid
  | Abort { xid } -> Format.fprintf ppf "abort x%d" xid
  | Compensation { xid; op } ->
    Format.fprintf ppf "compensate x%d %a" xid Op.pp op
  | Finished { xid } -> Format.fprintf ppf "finished x%d" xid
  | Checkpoint { rssp; active } ->
    Format.fprintf ppf "checkpoint rssp=%a active=[%a]" Lsn.pp rssp
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
         Format.pp_print_int)
      active
