(** Write-ahead log with an explicit volatile tail.

    One generic mechanism backs both logs in the unbundled kernel:

    - the TC's logical operation log (undo/redo, Section 4.1.1), and
    - the DC's private structure-modification log (Section 5.2.2).

    Records are appended to a volatile tail; {!force} moves the tail to
    the stable prefix.  A {!crash} loses exactly the unforced tail — the
    partial-failure scenarios of Section 5.3 are driven from here.

    The stable prefix is held in LSN order in a pair of growable arrays
    (LSNs and records) from a head index on: {!force} appends in
    amortized O(1), and scans and lookups binary-search their start.

    LSNs are assigned at append time, before the operation reaches any
    page: this is precisely what creates the out-of-order arrival problem
    the abstract-LSN machinery solves. *)

type 'a t

val create :
  ?counters:Untx_util.Instrument.t ->
  ?label:string ->
  size:('a -> int) ->
  unit ->
  'a t
(** [size] models a record's size in bytes, for log-volume accounting
    (E9 compares logical vs physical SMO logging by bytes).  The log
    holds OCaml values and encodes no record, so {!appended_bytes} sums
    that model ([Log_record.size], [Smo_record.size]), not bytes
    written.

    [label] (default ["wal"]) names this log's fault points:
    [<label>.force.begin] fires before any record stabilizes and
    [<label>.force.mid] after each one, so a crash plan can leave a
    stable prefix of a forced batch.  The TC's log uses ["wal.tc"], the
    DC's ["wal.dc"]. *)

val append : 'a t -> 'a -> Untx_util.Lsn.t
(** Append to the volatile tail; returns the record's LSN. *)

val reserve : 'a t -> Untx_util.Lsn.t
(** Allocate the next LSN without writing a record.  Used for reads:
    they need unique, ordered request ids but are never redone. *)

val force : 'a t -> unit
(** Make the volatile tail stable (an fsync): amortized O(1) per record.
    Reserved LSNs below the next one become stable too.  A force with
    no volatile record writes nothing: it still fires
    [<label>.force.begin] and moves {!stable_lsn}, but adds nothing to
    {!forces} or the ["wal.forces"] counter and takes no
    [<label>.force_ns] sample. *)

val force_through : 'a t -> Untx_util.Lsn.t -> unit
(** Force only if the stable LSN is still below the argument. *)

val stable_lsn : 'a t -> Untx_util.Lsn.t
(** LSN of the last stable record — the EOSL of Section 4.2.1. *)

val last_lsn : 'a t -> Untx_util.Lsn.t
(** Highest LSN assigned so far (stable or volatile). *)

val crash : 'a t -> unit
(** Lose the volatile tail.  The LSN counter keeps counting past every
    LSN assigned before the crash, lost ones included, so LSNs stay
    unique; the restart protocol tells the DC to forget everything above
    {!stable_lsn}. *)

val truncate : 'a t -> Untx_util.Lsn.t -> unit
(** Discard stable records with LSN < the argument (contract
    termination / checkpoint advancing the redo scan start point).
    The truncation point is remembered: see {!retained_from}.

    O(log n) to move the head past the discarded records.  They are
    released once discarded slots outnumber retained ones: the retained
    records then move to fresh arrays (amortized O(1) per discarded
    record), and the old arrays, with every discarded record, become
    garbage. *)

val retained_from : 'a t -> Untx_util.Lsn.t
(** The lowest LSN the log still guarantees to hold: every record at or
    above it (and at or below {!stable_lsn}) is present.  [Lsn.next
    Lsn.zero] until the first {!truncate}, the highest truncation point
    thereafter.  Anything that replays a log suffix — replica catch-up,
    redo from below the redo-scan start point after a laggard promotion
    — must check its start cursor against this before trusting
    {!iter_from}, which silently skips missing records — or use
    {!iter_retained}, which enforces the check. *)

val iter_from :
  'a t -> Untx_util.Lsn.t -> (Untx_util.Lsn.t -> 'a -> unit) -> unit
(** Visit stable records with LSN >= the argument, in LSN order.
    Binary-searches the start point and walks the array from there
    (O(log n + visited), no allocation), so continuous log shipping can
    re-read the suffix past a replica's cursor on every pump without
    copying or rescanning the whole log.

    A scan is a snapshot: it visits exactly the records stable when it
    began.  A {!force} or {!truncate} from inside the callback neither
    adds records to it nor removes any. *)

exception
  Truncated of { wanted : Untx_util.Lsn.t; retained : Untx_util.Lsn.t }
(** Raised by {!iter_retained} when the requested start cursor lies below
    {!retained_from} after a truncation: records in [[wanted, retained)]
    have been discarded, so a silent skip would replay an incomplete
    suffix. *)

val iter_retained :
  'a t -> Untx_util.Lsn.t -> (Untx_util.Lsn.t -> 'a -> unit) -> unit
(** {!iter_from} with the retention check enforced (same seek cost and
    snapshot semantics): raises {!Truncated}
    instead of silently skipping when the start cursor is below
    {!retained_from}.  Scans from any cursor (including [Lsn.zero]) are
    accepted while the log has never been truncated.  Consumers that
    {e replay} a suffix (redo, catch-up shipping) use this; plain
    {!iter_from} remains for whole-log analysis scans. *)

val iter_volatile : 'a t -> (Untx_util.Lsn.t -> 'a -> unit) -> unit
(** Visit unforced records, in LSN order (normal-execution bookkeeping
    only; these do not survive a crash). *)

val find : 'a t -> Untx_util.Lsn.t -> 'a option
(** Look up any record, stable (O(log n)) or volatile (a walk of the
    tail), by LSN. *)

val stable_count : 'a t -> int

val volatile_count : 'a t -> int

val forces : 'a t -> int

val appended_bytes : 'a t -> int
