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
  | Fetch of { table : string; from_key : key; limit : int }
  | Commit_versions of { table : string; keys : key list }
  | Abort_versions of { table : string; keys : key list }

let is_read = function
  | Read _ | Scan _ | Probe _ | Fetch _ -> true
  | Insert _ | Update _ | Delete _ | Commit_versions _ | Abort_versions _ ->
    false

let table = function
  | Insert { table; _ }
  | Update { table; _ }
  | Delete { table; _ }
  | Read { table; _ }
  | Scan { table; _ }
  | Probe { table; _ }
  | Fetch { table; _ }
  | Commit_versions { table; _ }
  | Abort_versions { table; _ } -> table

(* The key footprint of an operation: [`Points keys] for enumerable
   footprints, [`Range from_key] for open-ended scans. *)
let footprint = function
  | Insert { key; _ } | Update { key; _ } | Delete { key; _ }
  | Read { key; _ } -> `Points [ key ]
  | Scan { from_key; _ } | Probe { from_key; _ } | Fetch { from_key; _ } ->
    `Range from_key
  | Commit_versions { keys; _ } | Abort_versions { keys; _ } -> `Points keys

let overlap a b =
  match (footprint a, footprint b) with
  | `Points ka, `Points kb ->
    List.exists (fun k -> List.exists (String.equal k) kb) ka
  | `Range _, `Range _ -> true
  | `Range from_key, `Points keys | `Points keys, `Range from_key ->
    List.exists (fun k -> String.compare k from_key >= 0) keys

let conflicts a b =
  String.equal (table a) (table b)
  && (not (is_read a && is_read b))
  && overlap a b

let pp_mode ppf = function
  | Own -> Format.pp_print_string ppf "own"
  | Committed -> Format.pp_print_string ppf "committed"
  | Dirty -> Format.pp_print_string ppf "dirty"

let pp ppf = function
  | Insert { table; key; value } ->
    Format.fprintf ppf "insert %s[%s]=%S" table key value
  | Update { table; key; value } ->
    Format.fprintf ppf "update %s[%s]=%S" table key value
  | Delete { table; key } -> Format.fprintf ppf "delete %s[%s]" table key
  | Read { table; key; mode } ->
    Format.fprintf ppf "read(%a) %s[%s]" pp_mode mode table key
  | Scan { table; from_key; limit; mode } ->
    Format.fprintf ppf "scan(%a) %s from %s limit %d" pp_mode mode table
      from_key limit
  | Probe { table; from_key; limit } ->
    Format.fprintf ppf "probe %s from %s limit %d" table from_key limit
  | Fetch { table; from_key; limit } ->
    Format.fprintf ppf "fetch %s from %s limit %d" table from_key limit
  | Commit_versions { table; keys } ->
    Format.fprintf ppf "commit-versions %s (%d keys)" table (List.length keys)
  | Abort_versions { table; keys } ->
    Format.fprintf ppf "abort-versions %s (%d keys)" table (List.length keys)

let size op =
  let base = 16 in
  match op with
  | Insert { table; key; value } | Update { table; key; value } ->
    base + String.length table + String.length key + String.length value
  | Delete { table; key } -> base + String.length table + String.length key
  | Read { table; key; _ } -> base + String.length table + String.length key
  | Scan { table; from_key; _ }
  | Probe { table; from_key; _ }
  | Fetch { table; from_key; _ } ->
    base + String.length table + String.length from_key
  | Commit_versions { table; keys } | Abort_versions { table; keys } ->
    base + String.length table
    + List.fold_left (fun acc k -> acc + String.length k) 0 keys
