(** Length-prefixed field encoding, the one integer text path, and the
    binary fields the wire is made of.

    The text field list is a tiny, binary-safe serialization used for
    page metadata blobs, the master record and B-tree child pointers.
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

val decode : string -> string list
(** Raises [Invalid_argument] on malformed input. *)

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

(** {2 Binary fields}

    What the wire's frame payloads are made of: varints, single bytes,
    and strings written as their varint length then their bytes.  A
    {!reader} reads them in place from a byte range, bounded by its end:
    nothing is read past it, so a field cut short by the end of the
    range raises [Invalid_argument] even when more bytes follow in the
    string. *)

val string_length : string -> int
(** The bytes {!write_string} writes for [s]. *)

val write_string : string -> Bytes.t -> int -> int
(** [write_string s b pos] writes [s]'s length as a varint, then [s],
    at [pos]; returns the position after it. *)

type reader
(** A cursor over a byte range of a string. *)

val reader_sub : string -> pos:int -> len:int -> reader
(** A reader over [s.[pos .. pos+len-1]], without a copy. *)

val at_end : reader -> bool
(** Whether the whole range has been read. *)

val remaining : reader -> int
(** The bytes left in the range. *)

val next_byte : reader -> char

val next_varint : reader -> int
(** Canonical, as {!read_varint}. *)

val next_string : reader -> string
(** A varint length, then that many bytes, copied out. *)
