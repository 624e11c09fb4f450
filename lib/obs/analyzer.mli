(** Trace reconstruction: per-operation timelines from a span dump.

    Consumes {!Trace.to_jsonl} output (or a live event list), groups
    events by trace id, and reports per-hop latency histograms,
    resend/duplicate chains, and per-partition round-trip skew. *)

type timeline = {
  tl_tid : int;
  tl_events : Trace.event list;  (** causal (seq) order *)
  tl_part : int option;  (** partition that applied the operation *)
  tl_resends : int;  (** TC backoff resends of this operation's frame *)
  tl_skips : int;  (** duplicate deliveries the DC absorbed *)
  tl_complete : bool;  (** both a dispatch and an ack were recorded *)
  tl_rtt_ns : int option;  (** first dispatch → last ack *)
}

type report = {
  r_timelines : timeline list;
  r_orphans : int;
      (** traced operations with no completed dispatch→ack pair — after
          a quiesced run this must be 0: every resend chain converges *)
  r_hops : (string * Metrics.hsnap) list;
      (** latency between consecutive span events, keyed ["a->b"] with
          channel direction folded in (e.g. ["xmit.req->recv.req"]) *)
  r_parts : (int * Metrics.hsnap) list;
      (** completed round trips grouped by partition — skew shows as
          diverging counts/percentiles *)
  r_counts : (string * (string * int) list) list;
      (** events of the components that have no per-operation span,
          counted by kind: replication (["ship"], ["ack"], ["promote"];
          repl traffic is untraced, tid 0), the layer store
          (["compact"], ["bootstrap"]), the session front end
          (["admitted"], ["shed"], ["batched"]; a shed transaction
          never reaches a TC) and copy-on-write branches (["create"],
          ["delete"], ["dc_crash"]).  Keyed ["repl"], ["layer"],
          ["front"], ["branch"] in that order; a component with no
          events is left out. *)
}

val of_jsonl : string -> Trace.event list
(** Parse a {!Trace.to_jsonl} dump.  Raises [Invalid_argument] on
    malformed input — the emitter/parser pair is pinned by a round-trip
    property test. *)

val analyze : Trace.event list -> report

val pp_summary : Format.formatter -> report -> unit
