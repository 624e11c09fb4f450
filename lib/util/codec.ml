(* Every integer this codec turns into text — length prefixes and
   integer fields alike — goes through one non-positive digit writer:
   negating a non-negative int never overflows, while negating
   [min_int] would, so the digits are peeled off the negated value. *)

(* Decimal digits of [n <= 0]. *)
let rec ndigits n = if n > -10 then 1 else 1 + ndigits (n / 10)

(* Writes the [d] decimal digits of [-n] (with [n <= 0]) ending just
   before [stop]. *)
let rec write_digits b stop d n =
  if d > 0 then begin
    Bytes.unsafe_set b (stop - 1) (Char.unsafe_chr (48 - (n mod 10)));
    write_digits b (stop - 1) (d - 1) (n / 10)
  end

(* The encoded length of an [l]-byte field.  Most fields are shorter
   than ten bytes, so a one-digit length prefix takes a fast path here,
   in [write_prefix] and in [next]. *)
let field_length l = (if l < 10 then 2 else ndigits (-l) + 1) + l

let encoded_length fields =
  List.fold_left (fun acc f -> acc + field_length (String.length f)) 0 fields

(* Writes the length prefix of an [l]-byte field at [pos]; returns
   where the field's bytes start. *)
let write_prefix b pos l =
  if l < 10 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 + l));
    Bytes.unsafe_set b (pos + 1) ':';
    pos + 2
  end
  else
    let d = ndigits (-l) in
    write_digits b (pos + d) d (-l);
    Bytes.unsafe_set b (pos + d) ':';
    pos + d + 1

let rec write fields b pos =
  match fields with
  | [] -> pos
  | f :: rest ->
    let l = String.length f in
    let start = write_prefix b pos l in
    Bytes.unsafe_blit_string f 0 b start l;
    write rest b (start + l)

let encode fields =
  let b = Bytes.create (encoded_length fields) in
  ignore (write fields b 0);
  Bytes.unsafe_to_string b

(* [i]'s text: its length, and the writer of its [l] bytes at [pos]. *)
let int_text_length i = if i >= 0 then ndigits (-i) else 1 + ndigits i

let write_int_text b pos l i =
  if i < 0 then begin
    Bytes.unsafe_set b pos '-';
    write_digits b (pos + l) (l - 1) i
  end
  else write_digits b (pos + l) l (-i)

let encode_int i =
  let l = int_text_length i in
  let b = Bytes.create l in
  write_int_text b 0 l i;
  Bytes.unsafe_to_string b

(* Parses the digits [s.[lo .. hi-1]] as exactly what [write_digits]
   writes — at least one digit, no leading zero unless the number is
   0 — and returns the negated value, which cannot overflow until
   beyond [min_int]. *)
let neg_digits s lo hi what =
  if hi <= lo || (String.unsafe_get s lo = '0' && hi - lo > 1) then
    invalid_arg what;
  let acc = ref 0 in
  for i = lo to hi - 1 do
    let c = Char.code (String.unsafe_get s i) - 48 in
    if c < 0 || c > 9 || !acc < (min_int + c) / 10 then invalid_arg what;
    acc := (!acc * 10) - c
  done;
  !acc

let rec digits_end s i stop =
  if i < stop && String.unsafe_get s i >= '0' && String.unsafe_get s i <= '9'
  then digits_end s (i + 1) stop
  else i

(* A cursor over a byte range: the text field lists below read through
   it, and so do the wire's binary fields at the end of this file. *)
type reader = { src : string; mutable pos : int; stop : int }

let reader_sub s ~pos ~len =
  let stop = pos + len in
  if pos < 0 || len < 0 || stop > String.length s then
    invalid_arg "Codec.reader_sub";
  { src = s; pos; stop }

let at_end r = r.pos = r.stop

(* Steps over the next field, returning where its bytes start; they
   end at the new [r.pos]. *)
let next r =
  let pos = r.pos in
  if
    pos + 1 < r.stop
    && String.unsafe_get r.src (pos + 1) = ':'
    && String.unsafe_get r.src pos >= '0'
    && String.unsafe_get r.src pos <= '9'
  then begin
    let l = Char.code (String.unsafe_get r.src pos) - 48 in
    if l > r.stop - pos - 2 then invalid_arg "Codec.decode: truncated field";
    r.pos <- pos + 2 + l;
    pos + 2
  end
  else
  let colon = digits_end r.src r.pos r.stop in
  if colon = r.stop || String.unsafe_get r.src colon <> ':' then
    invalid_arg "Codec.decode: missing length delimiter";
  let l = neg_digits r.src r.pos colon "Codec.decode: bad length" in
  if l = min_int || -l > r.stop - colon - 1 then
    invalid_arg "Codec.decode: truncated field";
  r.pos <- colon + 1 - l;
  colon + 1

(* [decode_int] of [s.[lo .. hi-1]]. *)
let int_sub s lo hi =
  if hi > lo && String.unsafe_get s lo = '-' then begin
    let v = neg_digits s (lo + 1) hi "Codec.decode_int" in
    if v = 0 then invalid_arg "Codec.decode_int";
    v
  end
  else
    let v = neg_digits s lo hi "Codec.decode_int" in
    if v = min_int then invalid_arg "Codec.decode_int";
    -v

let decode s =
  let r = reader_sub s ~pos:0 ~len:(String.length s) in
  let[@tail_mod_cons] rec go () =
    if at_end r then []
    else
      let start = next r in
      let f = String.sub r.src start (r.pos - start) in
      f :: go ()
  in
  go ()

let decode_int s = int_sub s 0 (String.length s)

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
   varint must end before [stop]. *)
let rec varint_from s stop i shift acc =
  if i >= stop then invalid_arg "Codec.read_varint: truncated";
  let c = Char.code (String.unsafe_get s i) in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c < 0x80 then begin
    if (c = 0 && shift > 0) || (shift = 56 && c >= 0x40) then
      invalid_arg "Codec.read_varint: not canonical";
    acc
  end
  else if shift = 56 then invalid_arg "Codec.read_varint: too long"
  else varint_from s stop (i + 1) (shift + 7) acc

let read_varint s pos =
  if pos < 0 then invalid_arg "Codec.read_varint: truncated";
  varint_from s (String.length s) pos 0 0

(* ---- binary fields ---- *)

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
    let n = varint_from r.src r.stop pos 0 0 in
    r.pos <- pos + varint_bytes n;
    n

let next_string r =
  let l = next_varint r in
  if l > r.stop - r.pos then invalid_arg "Codec.next_string: truncated";
  let s = String.sub r.src r.pos l in
  r.pos <- r.pos + l;
  s
