type t = int

let of_int i = i

let to_int t = t

let equal = Int.equal

let pp ppf t = Format.fprintf ppf "tc%d" t

module Map = Map.Make (Int)
module Set = Set.Make (Int)
