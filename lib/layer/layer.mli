(** The layered log store: compacted redo history + page@LSN reads.

    The replication channel already ships every stable redo record; this
    store absorbs that same stream into a Neon-style layered structure
    and keeps it {e queryable at any LSN}:

    - {b L0}: append-ordered runs of materialized record states, one
      entry per (table, key) a logged operation touched, in LSN order.
      Volatile — a {!crash} loses them.
    - {b L1}: sealed L0 runs merged by {!compact} into sorted,
      deduplicated layer files keyed by [(key, lsn)], each covering a
      contiguous LSN range.  Durable — they survive {!crash}, and
      {!durable_lsn} (the newest layer's high watermark) is the floor
      below which the TC's log no longer needs to retain history.
    - {b reconstruct}: a point-in-time lookup overlaying the newest
      entry at or below the requested LSN, newest structures first
      (active run, sealed runs, then layers).  The number of structures
      probed is the read amplification, recorded per lookup.

    Entries are {e materialized}: ingest replays each operation through
    the DC's record semantics (insert/update/delete, version
    commit/abort, tombstones, before-images) and stores the resulting
    {!Untx_dc.Stored_record}, so reconstruction is a single lookup with
    no base image to patch.  Because the entries keep their producing
    operations too, the store can also replay original redo below the
    log's truncation point ({!iter_ops}) and rebuild a standby from
    scratch ({!iter_current}) — the two paths that free log truncation
    from the slowest replica's cursor. *)

val p_compact_mid : string
(** The ["layer.compact.mid"] fault point, hit once per compaction after
    the merge but before the new L1 layer is installed.  A crash here
    must lose the whole compaction: the sealed runs stay, the partial
    layer is discarded, and {!durable_lsn} does not move. *)

val p_ingest_drop : string
(** The ["layer.ingest.drop"] fault point, hit once per ingested record.
    A rule firing here drops the record {e and stops the ingest cursor
    just before it}: {!ingested_lsn} never claims a record the store
    does not hold, so the next {!absorb} re-reads the suffix from the
    log and nothing is silently lost. *)

exception Beyond_ingested of { wanted : Untx_util.Lsn.t; ingested : Untx_util.Lsn.t }
(** A history read past the ingest watermark: the store has not absorbed
    [wanted] yet (it only holds [..ingested]).  Mirrors
    [Wal.Truncated {wanted; retained}] — typed, so callers can match on
    the boundary instead of parsing a message.  The tiers built on the
    store refuse with it too: {!Untx_branch.Branch} for forks and reads
    past a branch's durable LSN (both LSNs combined), and
    {!Untx_cloud.Deploy} for point-in-time reads past every store and
    for branch forks. *)

exception History_truncated of { wanted : Untx_util.Lsn.t; history_from : Untx_util.Lsn.t }
(** A history read below the rebase cut: {!truncate_history} dropped the
    per-LSN history under [history_from], keeping only each key's rebased
    state there. *)

type t

val create :
  ?counters:Untx_util.Instrument.t ->
  ?l0_seal_ops:int ->
  ?compact_runs:int ->
  writer:Untx_util.Tc_id.t ->
  versioned:(string -> bool) ->
  unit ->
  t
(** A store for one TC's log.  [writer] stamps materialized records
    (the shipping TC owns every record it installs); [versioned] answers
    per table — evaluated lazily, so tables mapped after creation are
    seen.  The active L0 run seals itself after [l0_seal_ops] entries
    (default 128); {!absorb} auto-compacts once [compact_runs] sealed
    runs pile up (default 4). *)

val absorb :
  t ->
  upto:Untx_util.Lsn.t ->
  ((Untx_util.Lsn.t -> Untx_msg.Op.t -> unit) -> unit) ->
  unit
(** [absorb t ~upto feed] ingests stable redo: [feed] must call the
    supplied function with every logged operation in
    [(ingested_lsn, upto]] in LSN order (records outside that window —
    an already-absorbed prefix, a suffix past [upto] — are ignored, so
    re-feeding a full scan is absorbed idempotently).  On success [ingested_lsn = upto].
    A record dropped by {!p_ingest_drop} pins the cursor at the last
    intact prefix and the rest of the feed is ignored — the next absorb
    re-reads from the log.  May auto-compact (see {!compact}, including
    its fault point). *)

val ingested_lsn : t -> Untx_util.Lsn.t
(** Every logged operation at or below it is materialized in the store
    (L0 or L1). *)

val durable_lsn : t -> Untx_util.Lsn.t
(** Every logged operation at or below it is compacted into L1 and
    survives {!crash} — the log-truncation floor this store supports is
    [Lsn.next durable_lsn]. *)

val seal : t -> unit
(** Seal the active L0 run (no-op when empty). *)

val compact : ?all:bool -> t -> unit
(** Merge every sealed L0 run into one new L1 layer: entries sorted by
    [(key, lsn)], duplicates dropped, LSN range contiguous with the
    previous layer.  Atomic against {!p_compact_mid}: if the fault fires
    the merged layer is discarded and the sealed runs remain.  [~all]
    seals the active run first, pushing {!durable_lsn} to the newest
    absorbed entry.  No-op without sealed runs. *)

val l0_runs : t -> int
(** Sealed runs plus the active one when non-empty. *)

val l1_layers : t -> int

val l1_entries : t -> int

val reconstruct :
  t -> table:string -> key:string -> at:Untx_util.Lsn.t -> string option
(** The record's visible value after applying every logged operation at
    or below [at] — [None] if it was absent or deleted there.  Raises
    {!Beyond_ingested} when [at > ingested_lsn] (the store cannot answer
    beyond what it absorbed) and {!History_truncated} when
    [at < history_from].  Counted as ["layer.reconstruct_reads"];
    structures probed recorded in the ["layer.read_amp"] histogram. *)

val lookup :
  t ->
  table:string ->
  key:string ->
  at:Untx_util.Lsn.t ->
  [ `Visible of string | `Gone | `Unwritten ]
(** {!reconstruct} with the two flavours of "absent" kept apart:
    [`Gone] means the store logged the key and its state at [at] is
    invisible (deleted, tombstoned, never-committed); [`Unwritten] means
    no logged operation at or below [at] ever touched it.  A branch
    overlay needs the distinction — [`Unwritten] falls through to the
    parent, [`Gone] must not.  Same range checks as {!reconstruct}. *)

val iter_at :
  t -> at:Untx_util.Lsn.t -> (table:string -> key:string -> string -> unit) -> unit
(** Visit every record visible at [at] — the fork-point scan a branch
    materializes whole tables from.  Same range checks as
    {!reconstruct}. *)

val iter_current :
  t -> (table:string -> key:string -> Untx_dc.Stored_record.t -> unit) -> unit
(** Visit every present record's materialized state at {!ingested_lsn}
    (tombstones and in-flight before-images included, physically absent
    keys skipped) — the standby-bootstrap install set. *)

val iter_ops :
  t ->
  from:Untx_util.Lsn.t ->
  upto:Untx_util.Lsn.t ->
  (Untx_util.Lsn.t -> Untx_msg.Op.t -> unit) ->
  unit
(** Replay the original logged operations in [[from, upto]] in LSN order
    (each multi-key operation once) — redo sourced from layers for the
    suffix the TC's log no longer retains.  Raises {!Beyond_ingested}
    when [upto > ingested_lsn] and {!History_truncated} when
    [from < history_from] (the rebase dropped the per-op history
    there). *)

val pin : t -> at:Untx_util.Lsn.t -> unit
(** Take a refcounted retention pin at [at]: {!truncate_history} will
    never cut at or below a live pin, so every LSN [>= at] stays
    answerable.  A live branch pins its fork point.  Same range checks
    as {!reconstruct}. *)

val unpin : t -> at:Untx_util.Lsn.t -> unit
(** Release one pin taken at exactly [at].  Raises [Invalid_argument]
    when no pin is held there. *)

val pin_count : t -> int
(** Total live pins (sum of refcounts). *)

val history_from : t -> Untx_util.Lsn.t
(** The lowest [at] this store still answers; [Lsn.zero] until
    {!truncate_history} cuts. *)

val truncate_history : t -> below:Untx_util.Lsn.t -> int
(** Drop per-LSN history below [min below (pin floor)] (and never above
    the durable watermark): L1 layers wholly under the cut are folded
    into one rebased snapshot layer keeping each key's newest entry, and
    [history_from] rises to the cut.  Reads and {!iter_ops} below the
    cut raise {!History_truncated} afterwards.  Returns the number of
    entries reclaimed (0 when the cut cannot rise). *)

val crash : t -> unit
(** Lose the volatile half: L0 runs and the ingest state above
    {!durable_lsn}.  The materialized state is rebuilt from L1 and
    [ingested_lsn] falls back to [durable_lsn]; the owner re-absorbs the
    un-compacted suffix from the log (which the truncation floor kept
    retained). *)
