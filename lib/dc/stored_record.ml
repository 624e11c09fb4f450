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

type write = Insert of string | Update of string | Delete

type outcome = Set of t | Remove | Unchanged | Fail of string

(* The before-version a versioned update or delete leaves: the first
   uncommitted write saves the committed value, later ones keep it. *)
let before_of r =
  match r.before with Absent -> Value_before r.value | kept -> kept

let write ~versioned ~writer ~wlsn prior w =
  match (w, prior) with
  | Insert _, Some { deleted = false; _ } -> Fail "duplicate key"
  | Insert value, _ ->
    if versioned then
      let before =
        match prior with
        | Some r -> r.before (* insert over a tombstone *)
        | None -> Null_before
      in
      Set { value; deleted = false; before; writer; wlsn }
    else Set (plain ~writer ~wlsn value)
  | Update _, (None | Some { deleted = true; _ }) -> Fail "no such key"
  | Update value, Some r ->
    if versioned then
      Set { value; deleted = false; before = before_of r; writer; wlsn }
    else Set (plain ~writer ~wlsn value)
  | Delete, (None | Some { deleted = true; _ }) -> Unchanged
  | Delete, Some r ->
    if versioned then
      Set { r with deleted = true; before = before_of r; writer; wlsn }
    else Remove

let commit r ~wlsn =
  match r.before with
  | _ when r.deleted -> Remove
  | Absent -> Unchanged
  | Null_before | Value_before _ -> Set { r with before = Absent; wlsn }

let abort r ~wlsn =
  match r.before with
  | Absent -> Unchanged
  | Null_before -> Remove
  | Value_before value ->
    Set { r with value; deleted = false; before = Absent; wlsn }

(* The cell: a flags byte (bit 0 deleted, bits 1-2 the before-kind),
   then writer, wlsn and the value's length as varints, the value, and
   the before-value to the end of the cell. *)
let deleted_bit = 1

let kind_null = 2

let kind_value = 4

let max_flags = deleted_bit lor kind_value

let flags t =
  (if t.deleted then deleted_bit else 0)
  lor
  match t.before with
  | Absent -> 0
  | Null_before -> kind_null
  | Value_before _ -> kind_value

(* A cell of [flags], [writer] and [wlsn], holding the value
   [src.[vpos .. vpos+vl-1]] and the before-value
   [bsrc.[bpos .. bpos+bl-1]]. *)
let cell ~flags ~writer ~wlsn src vpos vl bsrc bpos bl =
  let header =
    1 + Codec.varint_length writer + Codec.varint_length wlsn
    + Codec.varint_length vl
  in
  let b = Bytes.create (header + vl + bl) in
  Bytes.unsafe_set b 0 (Char.unsafe_chr flags);
  let pos = Codec.write_varint writer b 1 in
  let pos = Codec.write_varint wlsn b pos in
  let pos = Codec.write_varint vl b pos in
  Bytes.blit_string src vpos b pos vl;
  Bytes.blit_string bsrc bpos b (pos + vl) bl;
  Bytes.unsafe_to_string b

let encode t =
  let bv = match t.before with Value_before v -> v | _ -> "" in
  cell ~flags:(flags t) ~writer:(Tc_id.to_int t.writer)
    ~wlsn:(Lsn.to_int t.wlsn) t.value 0 (String.length t.value) bv 0
    (String.length bv)

let encoded_size t = String.length (encode t)

let cell_flags s =
  if String.length s = 0 then invalid_arg "Stored_record: empty cell";
  let f = Char.code (String.unsafe_get s 0) in
  if f > max_flags then invalid_arg "Stored_record: bad flags";
  f

(* Where the value's length sits: after the flags byte, the writer
   and the wlsn. *)
let length_pos s writer =
  let wpos = 1 + Codec.varint_length writer in
  wpos + Codec.varint_length (Codec.read_varint s wpos)

(* Where the value starts, given its length [vl] at [lpos]. *)
let value_pos s lpos vl =
  let vpos = lpos + Codec.varint_length vl in
  if vl > String.length s - vpos then
    invalid_arg "Stored_record: truncated value";
  vpos

let decode s =
  let f = cell_flags s in
  let writer = Codec.read_varint s 1 in
  let wpos = 1 + Codec.varint_length writer in
  let wlsn = Codec.read_varint s wpos in
  let lpos = wpos + Codec.varint_length wlsn in
  let vl = Codec.read_varint s lpos in
  let vpos = value_pos s lpos vl in
  let bpos = vpos + vl in
  let before =
    if f land kind_value <> 0 then
      Value_before (String.sub s bpos (String.length s - bpos))
    else if bpos <> String.length s then
      invalid_arg "Stored_record: trailing bytes"
    else if f land kind_null <> 0 then Null_before
    else Absent
  in
  {
    value = String.sub s vpos vl;
    deleted = f land deleted_bit <> 0;
    before;
    writer = Tc_id.of_int writer;
    wlsn = Lsn.of_int wlsn;
  }

let cell_deleted s = cell_flags s land deleted_bit <> 0

let cell_before s =
  let f = cell_flags s in
  if f land kind_value <> 0 then `Value
  else if f land kind_null <> 0 then `Null
  else `Absent

(* A live cell with no before-value, [s]'s writer and the new [wlsn],
   whose value is [s]'s value or, with [from_before], [s]'s
   before-value: the header is read where it sits, and the value's
   bytes are copied once. *)
let rewrite s ~wlsn ~from_before =
  let writer = Codec.read_varint s 1 in
  let lpos = length_pos s writer in
  let vl = Codec.read_varint s lpos in
  let vpos = value_pos s lpos vl in
  let wlsn = Lsn.to_int wlsn in
  if from_before then
    let bpos = vpos + vl in
    cell ~flags:0 ~writer ~wlsn s bpos (String.length s - bpos) "" 0 0
  else cell ~flags:0 ~writer ~wlsn s vpos vl "" 0 0

let commit_cell s ~wlsn = rewrite s ~wlsn ~from_before:false

let abort_cell s ~wlsn = rewrite s ~wlsn ~from_before:true
