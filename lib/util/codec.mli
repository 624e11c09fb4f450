(** Length-prefixed field encoding, and the one integer text path.

    A tiny, binary-safe serialization used for wire payloads, page cell
    payloads, page metadata blobs and log-record size accounting.
    Fields are arbitrary byte strings, each written as its decimal
    length, [':'], then its bytes; [decode (encode fs) = fs] for every
    field list.

    Decoding is canonical: every decoder here accepts exactly the text
    its encoder writes (ASCII digits, no leading zero except ["0"]
    itself, no overflow, and a [-] sign only on a negative integer), so
    a string that decodes re-encodes to itself. *)

val encode : string list -> string

val encoded_length : string list -> int
(** [String.length (encode fs)], without building it. *)

val write : string list -> Bytes.t -> int -> int
(** [write fs b pos] writes [encode fs] into [b] at [pos] and returns
    the position after it; [b] must have [encoded_length fs] bytes free
    there.  Lets a caller wrap the encoding in a header without a second
    copy. *)

val int_length : int -> int
(** [encoded_length [encode_int i]], without building the field. *)

val write_int : int -> Bytes.t -> int -> int
(** [write_int i b pos] is [write [encode_int i] b pos], without
    building the field. *)

val decode : string -> string list
(** Raises [Invalid_argument] on malformed input. *)

val decode_sub : string -> pos:int -> len:int -> string list
(** [decode_sub s ~pos ~len] is [decode (String.sub s pos len)],
    copying only the field bytes. *)

(** {2 Reading fields in place} *)

type reader
(** A cursor over one encoded field list.  A decoder that knows its
    field layout reads the fields one by one where they sit, instead of
    through the list {!decode} builds; both accept exactly the same
    encodings. *)

val reader : string -> reader

val reader_sub : string -> pos:int -> len:int -> reader
(** A reader over the field list [String.sub s pos len], without the
    copy. *)

val read_string : reader -> string
(** The next field.  Raises [Invalid_argument] if there is none or it
    is malformed. *)

val read_int : reader -> int
(** [decode_int] of the next field, without copying it out. *)

val at_end : reader -> bool
(** Whether every field has been read. *)

val encode_int : int -> string
(** Plain decimal, as [Printf.sprintf "%d"] writes it. *)

val decode_int : string -> int
(** The inverse of {!encode_int}; raises [Invalid_argument] on anything
    it would not have written. *)

(** {2 Varints}

    Binary non-negative integers, as unsigned LEB128: seven bits a byte,
    least significant group first, the high bit set on every byte but
    the last.  Decoding is canonical as above: an overlong form (a zero
    last byte after the first), a value beyond [max_int] or a truncated
    varint raises [Invalid_argument], so a varint that decodes
    re-encodes to the same bytes. *)

val varint_length : int -> int
(** The bytes {!write_varint} writes for [n]; raises [Invalid_argument]
    if [n < 0]. *)

val write_varint : int -> Bytes.t -> int -> int
(** [write_varint n b pos] writes [n] at [pos] and returns the position
    after it; [b] must have [varint_length n] bytes free there. *)

val read_varint : string -> int -> int
(** The varint starting at [pos].  It ends [varint_length] of the
    result bytes later. *)
