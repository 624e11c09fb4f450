module Lsn = Untx_util.Lsn
module Codec = Untx_util.Codec

(* Invariant: every member of [ins] is strictly greater than [lw]. *)
type t = { lw : Lsn.t; ins : Lsn.Set.t }

let empty = { lw = Lsn.zero; ins = Lsn.Set.empty }

let of_lw lw = { lw; ins = Lsn.Set.empty }

let lw t = t.lw

let ins t = t.ins

let ins_count t = Lsn.Set.cardinal t.ins

let included lsn t = Lsn.(lsn <= t.lw) || Lsn.Set.mem lsn t.ins

let add lsn t =
  if Lsn.(lsn <= t.lw) then t else { t with ins = Lsn.Set.add lsn t.ins }

(* A low-water mark advances every page state it reaches, so this must
   not cost a pass over the whole set: a mark above every member, or
   below all of them, leaves nothing to visit, and any other splits the
   set in one descent. *)
let advance ~lwm t =
  if Lsn.(lwm <= t.lw) then t
  else
    let ins =
      if Lsn.Set.is_empty t.ins || Lsn.(Lsn.Set.max_elt t.ins <= lwm) then
        Lsn.Set.empty
      else if Lsn.(Lsn.Set.min_elt t.ins > lwm) then t.ins
      else
        let _, _, above = Lsn.Set.split lwm t.ins in
        above
    in
    { lw = lwm; ins }

let truncate ~upto t =
  {
    lw = Lsn.min t.lw upto;
    ins = Lsn.Set.filter (fun l -> Lsn.(l <= upto)) t.ins;
  }

let merge a b =
  let lw = Lsn.max a.lw b.lw in
  let ins =
    Lsn.Set.filter (fun l -> Lsn.(l > lw)) (Lsn.Set.union a.ins b.ins)
  in
  { lw; ins }

let max_lsn t =
  match Lsn.Set.max_elt_opt t.ins with
  | Some m -> m (* invariant: m > lw *)
  | None -> t.lw

let equal a b = Lsn.equal a.lw b.lw && Lsn.Set.equal a.ins b.ins

(* [lw], the member count, then the members in ascending order, all
   varints (the layout in ablsn.mli). *)
let encoded_size t =
  Lsn.Set.fold
    (fun l acc -> acc + Codec.varint_length (Lsn.to_int l))
    t.ins
    (Codec.varint_length (Lsn.to_int t.lw)
    + Codec.varint_length (Lsn.Set.cardinal t.ins))

let write t b pos =
  let pos = Codec.write_varint (Lsn.to_int t.lw) b pos in
  let pos = Codec.write_varint (Lsn.Set.cardinal t.ins) b pos in
  Lsn.Set.fold (fun l pos -> Codec.write_varint (Lsn.to_int l) b pos) t.ins pos

(* Each member must rise above the one before it, the first above [lw]:
   the one order [write] produces, and the invariant on [t]. *)
let read r =
  let lw = Codec.next_varint r in
  let rec members prev k acc =
    if k = 0 then acc
    else
      let l = Codec.next_varint r in
      if l <= prev then invalid_arg "Ablsn.read: members out of order";
      members l (k - 1) (Lsn.Set.add (Lsn.of_int l) acc)
  in
  let ins = members lw (Codec.next_varint r) Lsn.Set.empty in
  { lw = Lsn.of_int lw; ins }

let encode t =
  let b = Bytes.create (encoded_size t) in
  ignore (write t b 0);
  Bytes.unsafe_to_string b

let decode = Codec.read_all read

let pp ppf t =
  Format.fprintf ppf "<lw=%a,{%a}>" Lsn.pp t.lw
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Lsn.pp)
    (Lsn.Set.elements t.ins)
