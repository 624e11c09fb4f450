(** Abstract page LSNs (paper Section 5.1.2).

    Because the TC assigns LSNs before page access order is decided,
    operations can reach a page out of LSN order.  The classical
    idempotence test [opLSN <= pageLSN] then lies.  An abstract LSN
    captures exactly which operations' effects a page contains:

    [abLSN = <LSNlw, {LSNin}>]

    where no operation with LSN <= LSNlw needs re-execution, and
    {LSNin} are the LSNs above LSNlw whose effects are also present.
    The generalized test is:

    [lsn <= abLSN  iff  lsn <= LSNlw  or  lsn in {LSNin}] *)

type t

val empty : t
(** No operations applied. *)

val of_lw : Untx_util.Lsn.t -> t

val lw : t -> Untx_util.Lsn.t

val ins : t -> Untx_util.Lsn.Set.t

val ins_count : t -> int

val included : Untx_util.Lsn.t -> t -> bool
(** The generalized [<=] test: redo is not required. *)

val add : Untx_util.Lsn.t -> t -> t
(** Record that the operation's effect is now in the page. *)

val advance : lwm:Untx_util.Lsn.t -> t -> t
(** Apply a TC-supplied low-water mark: every operation <= [lwm] has
    been performed wherever it applies, so [lw] may rise to it and
    covered members of {LSNin} are discarded. *)

val truncate : upto:Untx_util.Lsn.t -> t -> t
(** Forget every claim above [upto] — applied when a failed TC's page
    state is rewound to its stable log (Section 5.3.2): operations
    beyond it were lost and their effects subtracted, so the abstract
    LSN must stop vouching for them. *)

val merge : t -> t -> t
(** abLSN for a page consolidation: the "maximum" of the two pages'
    abstract LSNs (Section 5.2.2, page deletes). *)

val max_lsn : t -> Untx_util.Lsn.t
(** The largest LSN the abstract LSN mentions — used to find pages whose
    state includes operations beyond a failed TC's stable log
    (Section 5.3.2). *)

val equal : t -> t -> bool

(** {2 Byte layout}

    [lw], the number of members of {LSNin}, then the members in
    ascending order, each an unsigned LEB128 varint ({!Untx_util.Codec}).
    The empty abstract LSN takes 2 bytes; [<lw=300,{301,305}>] takes
    [\xac\x02 \x02 \xad\x02 \xb1\x02], 7.  Decoding is canonical: a
    member at or below [lw], a member not above the one before it, or
    a truncated field raises [Invalid_argument]. *)

val encoded_size : t -> int
(** The bytes {!write} and {!encode} write. *)

val write : t -> Bytes.t -> int -> int
(** [write t b pos] writes [t] at [pos] and returns the position after
    it; [b] must have [encoded_size t] bytes free there. *)

val read : Untx_util.Codec.reader -> t
(** Reads one abstract LSN from the reader's position, leaving it just
    after. *)

val encode : t -> string

val decode : string -> t
(** {!read} over the whole string; trailing bytes raise too. *)

val pp : Format.formatter -> t -> unit
