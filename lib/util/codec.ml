(* Unsigned LEB128: seven bits a byte, least significant first, the
   high bit set on every byte but the last.  Most varints the wire and
   the record cells carry are one byte, so each entry point below
   inlines that case and calls the general loop for the rest. *)
let rec varint_bytes n = if n < 0x80 then 1 else 1 + varint_bytes (n lsr 7)

let[@inline] varint_length n =
  if n < 0 then invalid_arg "Codec.varint_length: negative";
  if n < 0x80 then 1 else varint_bytes n

let rec write_varint_bytes n b pos =
  if n < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
    write_varint_bytes (n lsr 7) b (pos + 1)
  end

let[@inline] write_varint n b pos =
  if n < 0 then invalid_arg "Codec.write_varint: negative";
  if n < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else write_varint_bytes n b pos

(* Accepts exactly what [write_varint] writes: no zero last byte after
   the first (overlong), and at most nine bytes whose bits fit a
   non-negative [int] — the ninth byte carries bits 56..61 only.  The
   varint must end before [stop].  Anything else reads as -1, so a
   caller that must answer for any string (a frame header) parses
   without raising. *)
let rec varint_within s stop i shift acc =
  if i >= stop then -1
  else
    let c = Char.code (String.unsafe_get s i) in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then
      if (c = 0 && shift > 0) || (shift = 56 && c >= 0x40) then -1 else acc
    else if shift = 56 then -1
    else varint_within s stop (i + 1) (shift + 7) acc

let varint_before s ~stop pos =
  if pos < 0 || stop > String.length s then -1 else varint_within s stop pos 0 0

let varint_from s stop pos =
  let n = varint_within s stop pos 0 0 in
  if n < 0 then invalid_arg "Codec.read_varint: truncated or not canonical";
  n

let read_varint s pos =
  if pos < 0 then invalid_arg "Codec.read_varint: truncated";
  varint_from s (String.length s) pos

(* A string that is one varint and nothing else: inner-page child ids
   and page LSNs.  Decoding allocates nothing, as a B-tree descent reads
   one at every level. *)
let varint n =
  let b = Bytes.create (varint_length n) in
  ignore (write_varint n b 0);
  Bytes.unsafe_to_string b

let of_varint s =
  let n = read_varint s 0 in
  if varint_length n <> String.length s then
    invalid_arg "Codec.of_varint: trailing bytes";
  n

(* ---- binary fields ---- *)

(* A cursor over a byte range: the binary fields at the end of this
   file read through it. *)
type reader = { src : string; mutable pos : int; stop : int }

let reader_sub s ~pos ~len =
  let stop = pos + len in
  if pos < 0 || len < 0 || stop > String.length s then
    invalid_arg "Codec.reader_sub";
  { src = s; pos; stop }

let at_end r = r.pos = r.stop

let read_all f s =
  let r = reader_sub s ~pos:0 ~len:(String.length s) in
  let v = f r in
  if not (at_end r) then invalid_arg "Codec.read_all: trailing bytes";
  v

let[@inline] string_length s =
  let l = String.length s in
  (if l < 0x80 then 1 else varint_bytes l) + l

let[@inline] write_string s b pos =
  let l = String.length s in
  let pos = write_varint l b pos in
  Bytes.unsafe_blit_string s 0 b pos l;
  pos + l

let remaining r = r.stop - r.pos

let[@inline] next_byte r =
  if r.pos >= r.stop then invalid_arg "Codec.next_byte: truncated";
  let c = String.unsafe_get r.src r.pos in
  r.pos <- r.pos + 1;
  c

(* A canonical varint ends [varint_bytes] of its value after its start,
   so the cursor moves without the reader returning a position. *)
let[@inline] next_varint r =
  let pos = r.pos in
  if pos < r.stop && Char.code (String.unsafe_get r.src pos) < 0x80 then begin
    r.pos <- pos + 1;
    Char.code (String.unsafe_get r.src pos)
  end
  else
    let n = varint_from r.src r.stop pos in
    r.pos <- pos + varint_bytes n;
    n

(* The string whose first [shared] bytes are [prev]'s and whose rest is
   a varint length, then that many bytes: a front-coded key, built in
   one allocation. *)
let next_extension r prev shared =
  if shared < 0 || shared > String.length prev then
    invalid_arg "Codec.next_extension: shared prefix beyond the string";
  let l = next_varint r in
  if l > r.stop - r.pos then invalid_arg "Codec.next_extension: truncated";
  let b = Bytes.create (shared + l) in
  Bytes.unsafe_blit_string prev 0 b 0 shared;
  Bytes.unsafe_blit_string r.src r.pos b shared l;
  r.pos <- r.pos + l;
  Bytes.unsafe_to_string b

let next_string r = next_extension r "" 0
