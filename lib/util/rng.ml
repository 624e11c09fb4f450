type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5deece66d |]

let int t bound = Random.State.int t bound

let float t bound = Random.State.float t bound

let bool t = Random.State.bool t

let chance t p = p > 0. && (p >= 1. || Random.State.float t 1.0 < p)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
