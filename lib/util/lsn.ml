type t = int

let zero = 0

let of_int i =
  if i < 0 then invalid_arg "Lsn.of_int: negative" else i

let to_int t = t

let next t = t + 1

let prev t = if t = 0 then 0 else t - 1

let compare = Int.compare

let equal = Int.equal

let ( <= ) (a : t) (b : t) = a <= b

let ( < ) (a : t) (b : t) = a < b

let ( >= ) (a : t) (b : t) = a >= b

let ( > ) (a : t) (b : t) = a > b

let max (a : t) (b : t) = Stdlib.max a b

let min (a : t) (b : t) = Stdlib.min a b

let pp ppf t = Format.fprintf ppf "lsn:%d" t

let to_string t = string_of_int t

module Set = Set.Make (Int)
