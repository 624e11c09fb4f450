(** The binary fields every persisted and wire format is built from.

    Wire frames, record cells, page metadata, abstract LSNs, the master
    records and inner-page child ids all write their integers as
    varints, their strings as a varint length then the bytes, and their
    tags and flags as single bytes, through this module.  Every decoder
    here is canonical: it accepts exactly the bytes its encoder writes,
    so a string that decodes re-encodes to itself. *)

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

val varint_before : string -> stop:int -> int -> int
(** [varint_before s ~stop pos]: the varint at [pos], which must end
    before [stop], or [-1] where {!read_varint} would raise — for a
    parser that answers for any string without raising. *)

val varint : int -> string
(** [n]'s varint bytes as a string of their own. *)

val of_varint : string -> int
(** The inverse of {!varint}: the whole string must be one canonical
    varint, or it raises [Invalid_argument].  Allocates nothing. *)

(** {2 Binary fields}

    What every format is made of: varints, single bytes,
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

val read_all : (reader -> 'a) -> string -> 'a
(** [f] over a reader on the whole of [s]; raises [Invalid_argument] if
    bytes remain after it, so a decoder built on it is canonical when
    [f] is. *)

val remaining : reader -> int
(** The bytes left in the range. *)

val next_byte : reader -> char

val next_varint : reader -> int
(** Canonical, as {!read_varint}. *)

val next_string : reader -> string
(** A varint length, then that many bytes, copied out. *)

val next_extension : reader -> string -> int -> string
(** [next_extension r prev shared]: the first [shared] bytes of [prev],
    then a string read as {!next_string} reads one, as one new string
    (one allocation).  Raises [Invalid_argument] if [shared] is negative
    or beyond [prev]'s length. *)
