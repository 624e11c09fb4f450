module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Codec = Untx_util.Codec

type t = { dlsn : Lsn.t; ablsns : Ablsn.t Tc_id.Map.t }

let empty = { dlsn = Lsn.zero; ablsns = Tc_id.Map.empty }

let ablsn t tc =
  match Tc_id.Map.find_opt tc t.ablsns with
  | Some ab -> ab
  | None -> Ablsn.empty

(* [dlsn], the TC count, then per TC in ascending id order its id and
   its abstract LSN, written in place (the layout in page_meta.mli). *)
let encoded_size t =
  Tc_id.Map.fold
    (fun tc ab acc ->
      acc + Codec.varint_length (Tc_id.to_int tc) + Ablsn.encoded_size ab)
    t.ablsns
    (Codec.varint_length (Lsn.to_int t.dlsn)
    + Codec.varint_length (Tc_id.Map.cardinal t.ablsns))

let encode t =
  let b = Bytes.create (encoded_size t) in
  let pos = Codec.write_varint (Lsn.to_int t.dlsn) b 0 in
  let pos = Codec.write_varint (Tc_id.Map.cardinal t.ablsns) b pos in
  ignore
    (Tc_id.Map.fold
       (fun tc ab pos ->
         Ablsn.write ab b (Codec.write_varint (Tc_id.to_int tc) b pos))
       t.ablsns pos);
  Bytes.unsafe_to_string b

let read r =
  let dlsn = Lsn.of_int (Codec.next_varint r) in
  let rec tcs prev k acc =
    if k = 0 then acc
    else
      let tc = Codec.next_varint r in
      if tc <= prev then invalid_arg "Page_meta.decode: TCs out of order";
      tcs tc (k - 1) (Tc_id.Map.add (Tc_id.of_int tc) (Ablsn.read r) acc)
  in
  { dlsn; ablsns = tcs (-1) (Codec.next_varint r) Tc_id.Map.empty }

let decode s = if String.equal s "" then empty else Codec.read_all read s
