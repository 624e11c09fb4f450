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
  let r = Codec.reader s in
  let value = Codec.read_string r in
  let deleted = String.equal (Codec.read_string r) "1" in
  let before_tag = Codec.read_string r in
  let before_val = Codec.read_string r in
  let writer = Codec.read_int r in
  let wlsn = Codec.read_int r in
  if not (Codec.at_end r) then
    invalid_arg "Stored_record.decode: bad field count";
  let before =
    match before_tag with
    | "a" -> Absent
    | "n" -> Null_before
    | "v" -> Value_before before_val
    | _ -> invalid_arg "Stored_record.decode: bad before tag"
  in
  { value; deleted; before; writer = Tc_id.of_int writer;
    wlsn = Lsn.of_int wlsn }

let encoded_size t = String.length (encode t)
