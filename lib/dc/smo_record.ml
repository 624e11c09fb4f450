module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Tc_id = Untx_util.Tc_id

type page_image = {
  pid : Page_id.t;
  kind : Page.kind;
  cells : (string * string) list;
  next : Page_id.t option;
  ablsns : Ablsn.t Tc_id.Map.t;
}

let image_of_page page ~ablsns =
  {
    pid = Page.id page;
    kind = Page.kind page;
    cells = Page.cells page;
    next = Page.next page;
    ablsns;
  }

type t =
  | Create_table of { table : string; versioned : bool; root : Page_id.t }
  | Split of {
      table : string;
      level : int;
      old_pid : Page_id.t;
      sep_key : string;
      new_image : page_image;
      parent_pid : Page_id.t;
      new_root : page_image option;
      root : Page_id.t;
    }
  | Consolidate of {
      table : string;
      survivor_image : page_image;
      freed_pid : Page_id.t;
      parent_pid : Page_id.t;
      removed_sep : string;
      new_root : Page_id.t option;
      root : Page_id.t;
    }
  | Tc_restart of { tc : Tc_id.t; stable_lsn : Untx_util.Lsn.t }

let image_size img =
  List.fold_left
    (fun acc (k, d) -> acc + String.length k + String.length d + 4)
    (16
    + Tc_id.Map.fold (fun _ ab acc -> acc + Ablsn.encoded_size ab) img.ablsns 0
    )
    img.cells

let size = function
  | Create_table { table; _ } -> 16 + String.length table
  | Split { table; sep_key; new_image; new_root; _ } ->
    (* logical old-page part: the separator only; physical new-page part:
       full image *)
    24 + String.length table + String.length sep_key + image_size new_image
    + (match new_root with Some img -> image_size img | None -> 0)
  | Consolidate { table; survivor_image; removed_sep; _ } ->
    24 + String.length table + String.length removed_sep
    + image_size survivor_image
  | Tc_restart _ -> 12
