module Tc_id = Untx_util.Tc_id
module Lsn = Untx_util.Lsn
module Codec = Untx_util.Codec

type before = Absent | Null_before | Value_before of string

type t = {
  value : string;
  deleted : bool;
  before : before;
  writer : Tc_id.t;
  wlsn : Lsn.t;
}

let plain ~writer ~wlsn value =
  { value; deleted = false; before = Absent; writer; wlsn }

let current t = if t.deleted then None else Some t.value

let committed t =
  match t.before with
  | Absent -> current t
  | Null_before -> None
  | Value_before v -> Some v

let encode t =
  let before_tag, before_val =
    match t.before with
    | Absent -> ("a", "")
    | Null_before -> ("n", "")
    | Value_before v -> ("v", v)
  in
  Codec.encode
    [
      t.value;
      (if t.deleted then "1" else "0");
      before_tag;
      before_val;
      Codec.encode_int (Tc_id.to_int t.writer);
      Codec.encode_int (Lsn.to_int t.wlsn);
    ]

let decode s =
  match Codec.decode s with
  | [ value; deleted; before_tag; before_val; writer; wlsn ] ->
    let before =
      match before_tag with
      | "a" -> Absent
      | "n" -> Null_before
      | "v" -> Value_before before_val
      | _ -> invalid_arg "Stored_record.decode: bad before tag"
    in
    {
      value;
      deleted = String.equal deleted "1";
      before;
      writer = Tc_id.of_int (Codec.decode_int writer);
      wlsn = Lsn.of_int (Codec.decode_int wlsn);
    }
  | _ -> invalid_arg "Stored_record.decode: bad field count"

let encoded_size t = String.length (encode t)
