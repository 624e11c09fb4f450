(** Deterministic interleaved workload driver.

    Runs a key-value transaction mix against any {!Engine.S}, keeping up
    to [concurrency] transactions live and stepping them round-robin.
    A transaction whose operation returns [`Blocked] is parked until a
    lock wakeup names it; when every live transaction is parked the
    driver asks the engine to resolve the deadlock.

    All randomness (operation mix, key choice via a Zipf distribution,
    values) is derived from [seed]. *)

type spec = {
  table : string;
  txns : int;  (** transactions to complete (committed or aborted) *)
  ops_per_txn : int;
  read_ratio : float;  (** fraction of point reads among operations *)
  scan_ratio : float;  (** fraction of range scans *)
  scan_limit : int;
  key_space : int;
  zipf_theta : float;  (** 0 = uniform *)
  value_size : int;
  concurrency : int;
  seed : int;
}

val default_spec : spec

type result = {
  committed : int;
  aborted : int;
  deadlocks : int;
  blocked_events : int;
  op_count : int;  (** operations successfully executed *)
  latency : Untx_obs.Metrics.hsnap;
      (** wall-clock ns per committed transaction, begin to
          commit-return; read percentiles with
          {!Untx_obs.Metrics.percentile} *)
}

val preload : (module Engine.S) -> spec -> unit
(** Populate the key space with one committed transaction batch per 128
    keys so reads and updates find data. *)

val key_of : spec -> int -> string
(** The canonical padded key for rank [i] (exposed for verification). *)

val run : (module Engine.S) -> spec -> result
