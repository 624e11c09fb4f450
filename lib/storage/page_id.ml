type t = int

let of_int i = i

let to_int t = t

let equal = Int.equal

let compare = Int.compare

let pp ppf t = Format.fprintf ppf "pg%d" t

module Map = Map.Make (Int)
module Set = Set.Make (Int)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = Int.equal

  (* Page ids are small non-negative ints: they index buckets as they
     are, with no call into the polymorphic hash. *)
  let hash t = t land max_int
end)
