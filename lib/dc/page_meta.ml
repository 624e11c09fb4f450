module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Codec = Untx_util.Codec

type t = { dlsn : Lsn.t; ablsns : Ablsn.t Tc_id.Map.t }

let empty = { dlsn = Lsn.zero; ablsns = Tc_id.Map.empty }

let ablsn t tc =
  match Tc_id.Map.find_opt tc t.ablsns with
  | Some ab -> ab
  | None -> Ablsn.empty

let encode t =
  let fields =
    Codec.encode_int (Lsn.to_int t.dlsn)
    :: Tc_id.Map.fold
         (fun tc ab acc ->
           Codec.encode_int (Tc_id.to_int tc) :: Ablsn.encode ab :: acc)
         t.ablsns []
  in
  Codec.encode fields

let decode s =
  if String.equal s "" then empty
  else
    match Codec.decode s with
    | [] -> invalid_arg "Page_meta.decode: empty"
    | dlsn :: rest ->
      let rec pairs acc = function
        | [] -> acc
        | tc :: ab :: rest ->
          pairs
            (Tc_id.Map.add
               (Tc_id.of_int (Codec.decode_int tc))
               (Ablsn.decode ab) acc)
            rest
        | [ _ ] -> invalid_arg "Page_meta.decode: odd field count"
      in
      {
        dlsn = Lsn.of_int (Codec.decode_int dlsn);
        ablsns = pairs Tc_id.Map.empty rest;
      }

let encoded_size t = String.length (encode t)
