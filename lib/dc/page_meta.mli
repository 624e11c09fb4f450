(** The recovery bookkeeping a DC page carries.

    During normal execution this lives in volatile memory beside the
    page; it is serialized into the page's metadata blob only at "page
    sync" time, atomically with a flush (Section 5.1.2).

    [dlsn] stamps the last structure-modification system transaction
    applied to the page (Section 5.2.2); [ablsns] holds one abstract LSN
    per TC with data on the page (Section 6.1.1 — pages touched by a
    single TC carry exactly one). *)

type t = {
  dlsn : Untx_util.Lsn.t;
  ablsns : Ablsn.t Untx_util.Tc_id.Map.t;
}

val empty : t

val ablsn : t -> Untx_util.Tc_id.t -> Ablsn.t
(** This TC's abstract LSN ({!Ablsn.empty} if it has no data here). *)

(** {2 Byte layout}

    [dlsn], the number of TCs, then for each TC in ascending id order
    its id and its abstract LSN in {!Ablsn.write}'s layout, nested in
    place; every integer an unsigned LEB128 varint ({!Untx_util.Codec}).
    A page with [dlsn = 7] and TC 1 at [<lw=4,{6}>] takes
    [\x07 \x01 \x01 \x04 \x01 \x06], 6 bytes.  Decoding is canonical
    (TC ids must rise, nothing may trail), except that [""], the
    metadata of a page never synced, decodes to {!empty}. *)

val encode : t -> string

val decode : string -> t
(** [decode "" = empty]; raises [Invalid_argument] on garbage. *)

val encoded_size : t -> int
(** [String.length (encode t)], without building it. *)
