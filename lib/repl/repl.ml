module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Metrics = Untx_obs.Metrics
module Trace = Untx_obs.Trace
module Fault = Untx_fault.Fault
module Wire = Untx_msg.Wire
module Session = Untx_msg.Session
module Dc = Untx_dc.Dc
module Tc = Untx_tc.Tc
module Op = Untx_msg.Op
module Layer = Untx_layer.Layer

(* Log-shipping replication: each partition's primary DC gains K warm
   standbys fed continuously from the TC's *stable* log over the repl
   channel.  A volatile record can still be disowned by a TC crash, so
   only stable records ship — a standby must never hold effects the
   TC's log cannot account for.

   The shipping contract is the same epoch/seq session machinery the
   control channel uses ({!Session}); the standby applies the stream
   through the DC's normal abstract-LSN idempotence path, which is what
   makes resent batches, duplicated frames and post-promotion redo
   overlap all safe to deliver. *)

type durability = Primary_only | Quorum of int

(* A kill at a shipped-batch boundary is the interesting crash instant:
   the standby holds a strict prefix of the stream and promotion must
   re-drive exactly the rest. *)
let p_ship_batch = Fault.declare "repl.ship.batch"

(* Fires inside the truncation-floor consult, once per detached replica
   per granted checkpoint: a chaos plan arming it force-expires that
   replica's retention lease on the spot, exercising the
   rebuild-required demotion and the promotion refusal it implies. *)
let p_lease_expire = Fault.declare "repl.lease.expire"

module Standby = struct
  type t = {
    dc : Dc.t;
    counters : Instrument.t;
    c_standby_ops : int ref; (* "repl.standby_ops", resolved once *)
    c_standby_batches : int ref; (* "repl.standby_batches" *)
    sessions : (int, (Wire.repl, Wire.repl_reply) Session.Receiver.t) Hashtbl.t;
    applied : (int, Lsn.t) Hashtbl.t; (* per-TC cumulative applied LSN *)
  }

  let create ?(counters = Instrument.global) config ~part =
    let dc = Dc.create ~counters config in
    Dc.set_identity dc ~part;
    {
      dc;
      counters;
      c_standby_ops = Metrics.counter_cell counters "repl.standby_ops";
      c_standby_batches = Metrics.counter_cell counters "repl.standby_batches";
      sessions = Hashtbl.create 4;
      applied = Hashtbl.create 4;
    }

  let dc t = t.dc

  let applied t ~tc =
    Option.value ~default:Lsn.zero
      (Hashtbl.find_opt t.applied (Tc_id.to_int tc))

  let session t tc =
    let key = Tc_id.to_int tc in
    match Hashtbl.find_opt t.sessions key with
    | Some s -> s
    | None ->
      let s = Session.Receiver.create () in
      Hashtbl.add t.sessions key s;
      s

  (* Apply one shipped batch.  Watermarks travel in-band so the
     standby's cache obeys the same flush-causality rules as the
     primary's — but the low-water claim is capped at the standby's own
     applied cursor first: the primary may have acknowledged operations
     this standby has not applied yet, and an uncapped claim would let
     abstract-LSN compaction mark them included, silently absorbing the
     rest of the stream as duplicates.  This is the redo cursor-cap rule
     of the restart path, carried over verbatim to the shipping path. *)
  let apply_ship t ~tc ~eosl ~lwm ~upto ~ops =
    let cursor = applied t ~tc in
    let lwm = Lsn.min lwm cursor in
    ignore (Dc.control t.dc (Wire.Watermarks { tc; eosl; lwm }));
    List.iter
      (fun (lsn, op) ->
        let reply = Dc.perform t.dc { Wire.tc; lsn; part = Dc.part t.dc; op } in
        (match reply.Wire.result with
        | Wire.Failed msg ->
          failwith (Printf.sprintf "Repl.Standby: shipped op rejected: %s" msg)
        | _ -> ());
        incr t.c_standby_ops)
      ops;
    if Lsn.(cursor < upto) then
      Hashtbl.replace t.applied (Tc_id.to_int tc) upto;
    incr t.c_standby_batches

  let handle_repl_frame ?expect t frame =
    match Wire.Verified.decode_repl frame with
    | exception Invalid_argument _ ->
      Instrument.bump t.counters "repl.bad_frames";
      None
    | m
      when match expect with
           | Some tc -> not (Tc_id.equal (Wire.repl_tc m.Wire.p_repl) tc)
           | None -> false ->
      (* A ship speaking for another TC on this link: applying it would
         advance that TC's cursor from a stream its manager never sent.
         Dropped (counted); the real sender's resend stays alive. *)
      Instrument.bump t.counters "repl.misattributed";
      None
    | m ->
      let tc = Wire.repl_tc m.Wire.p_repl in
      let s = session t tc in
      let ack () = Wire.Repl_ack { applied = applied t ~tc } in
      let apply _seq = function
        | Wire.Repl_hello _ -> ack ()
        | Wire.Repl_ship { tc; eosl; lwm; upto; ops } ->
          apply_ship t ~tc ~eosl ~lwm ~upto ~ops;
          ack ()
      in
      let reply seq r =
        Some
          (Wire.encode_repl_reply
             { Wire.q_tc = tc; q_epoch = Session.Receiver.epoch s;
               q_seq = seq; q_reply = r })
      in
      (match
         Session.Receiver.handle s ~epoch:m.Wire.p_epoch ~seq:m.Wire.p_seq
           m.Wire.p_repl ~apply ~fallback:(ack ())
       with
      | Session.Receiver.Stale ->
        Instrument.bump t.counters "repl.stale_epoch";
        None
      | Session.Receiver.Replayed r ->
        Instrument.bump t.counters "repl.dups_absorbed";
        reply m.Wire.p_seq r
      | Session.Receiver.Buffered ->
        Instrument.bump t.counters "repl.buffered";
        None
      | Session.Receiver.Applied r -> reply m.Wire.p_seq r)

  (* A standby crash loses the volatile applied cursors and session
     state along with the DC's cache; the rebuilt replica re-adopts the
     stream from zero and the abstract-LSN idempotence path absorbs
     everything its stable pages already contain. *)
  let crash t =
    Dc.crash t.dc;
    Hashtbl.reset t.sessions;
    Hashtbl.reset t.applied

  let recover t = Dc.recover t.dc

  (* Bootstrap adoption: the standby's DC was just populated with a
     layer store's materialized state at [upto], outside the wire path.
     Claim the whole installed prefix — watermarks at [upto] make the
     (empty) abstract LSNs of the installed pages read as
     covered-by-state, and the applied cursor makes the next hello
     resume shipping at the suffix. *)
  let adopt t ~tc ~upto =
    ignore (Dc.control t.dc (Wire.Watermarks { tc; eosl = upto; lwm = upto }));
    Hashtbl.replace t.applied (Tc_id.to_int tc) upto
end

module Manager = struct
  (* The replica life cycle around detachment is a retention-lease
     state machine:

       Attached --detach--> Detached{lease} --lease runs out-->
       Rebuild_required (terminal)

     A detached replica holds the log-truncation floor at its frozen
     applied cursor, but only for [lease] granted checkpoints: each
     floor consult burns one unit.  While the lease holds, reattach and
     promotion stay cheap (the missed suffix is still in the log).
     When it expires the replica stops holding the floor and is demoted
     to rebuild-required: it can no longer prove the acked history is
     reconstructible from its cursor, so it is ineligible for promotion
     and refuses reattach — honest unavailability instead of silent
     data loss.  A crashed standby whose rejoin cursor (zero) fell
     below the retained log lands in the same state. *)
  type replica_state =
    | Attached
    | Detached of { lease : int } (* floor consults left *)
    | Rebuild_required

  type replica = {
    r_name : string; (* the standby's deployment name *)
    r_primary : string; (* the primary DC it shadows *)
    r_standby : Standby.t;
    r_session : Wire.repl_reply Session.Sender.t;
    r_send : string -> unit;
    r_drain : unit -> string list;
    mutable r_applied : Lsn.t; (* confirmed floor, from acks *)
    mutable r_cursor : Lsn.t; (* next LSN to ship (optimistic) *)
    mutable r_state : replica_state;
  }

  let attached r = r.r_state = Attached

  type config = {
    durability : durability;
    batch_ops : int; (* max records per Repl_ship frame *)
    resend_after : int;
    resend_backoff_max : int;
    resend_max_retries : int;
    max_pump_rounds : int;
    lease_checkpoints : int; (* retention-lease budget of a detached replica *)
  }

  let default_config =
    {
      durability = Primary_only;
      batch_ops = 32;
      resend_after = 4;
      resend_backoff_max = 64;
      resend_max_retries = 32;
      max_pump_rounds = 100_000;
      lease_checkpoints = 4;
    }

  type t = {
    cfg : config;
    tc : Tc.t;
    counters : Instrument.t;
    (* "repl.*" counter cells, resolved once *)
    c_ships : int ref;
    c_ship_bytes : int ref;
    c_acks : int ref;
    replicas : (string, replica) Hashtbl.t; (* keyed by standby name *)
    mutable last_ship : string option;
        (* the primary whose stream was last being shipped — the chaos
           harness reads this to know which primary a kill at the
           ["repl.ship.batch"] point belongs to *)
    mutable layer : Layer.t option;
        (* the layered log store absorbing this TC's stable redo; with
           one installed, truncation is floored at its durable high
           watermark instead of the slowest detached replica's cursor *)
  }

  (* Absorb the stable suffix the layer store has not ingested yet.
     Runs at every durability-gate force and floor consult, so the store
     tracks end-of-stable-log and compaction happens on the way.  The
     start cursor is clamped at the retained head for the first sync of
     a store enabled on an already-truncated log — such a store only
     covers history from that point on. *)
  let sync_layers t =
    match t.layer with
    | None -> ()
    | Some store ->
      let stable = Tc.stable_lsn t.tc in
      if Lsn.(Layer.ingested_lsn store < stable) then
        let from =
          Lsn.max
            (Lsn.next (Layer.ingested_lsn store))
            (Tc.log_retained_from t.tc)
        in
        Layer.absorb store ~upto:stable (fun emit ->
            Tc.iter_stable_ops_from t.tc ~from emit)

  (* Whether the store's coverage meets the retained log with no gap:
     every LSN is then reconstructible — below the ingest watermark from
     layers, above it from the log.  This is what lets a detached
     laggard's history stop pinning truncation, and what makes it
     promotable through layer-sourced redo. *)
  let layer_contiguous t =
    match t.layer with
    | None -> false
    | Some store ->
      Lsn.(Tc.log_retained_from t.tc <= Lsn.next (Layer.ingested_lsn store))

  (* Replication must never let log truncation pass what the slowest
     replica still needs: catch-up reads the stable log from the
     replica's applied LSN, and a truncated cursor would force a full
     rebuild.  Attached replicas hold the floor unconditionally;
     detached replicas hold it under a retention lease of
     [lease_checkpoints] granted checkpoints, each consult burning one
     unit.  On expiry (or when the ["repl.lease.expire"] fault point
     forces it) the replica is demoted to rebuild-required and stops
     constraining truncation — it can no longer claim the retained
     suffix, so it must no longer be silently promotable either.  The
     gap between end-of-stable-log and the floor a replica holds is the
     log volume leases pin, recorded as the ["repl.floor_lag"]
     histogram. *)
  let truncate_floor t =
    sync_layers t;
    let layered = layer_contiguous t in
    let floor =
      Hashtbl.fold
        (fun _ r acc ->
          (match r.r_state with
          | Detached { lease } when not layered ->
            let forced =
              try
                Fault.hit p_lease_expire;
                false
              with Fault.Injected_crash _ -> true
            in
            if forced || lease <= 0 then begin
              r.r_state <- Rebuild_required;
              Instrument.bump t.counters "repl.lease_expirations";
              if Trace.enabled () then
                Trace.record ~tid:0 ~comp:"repl" ~ev:"lease.expire"
                  [ ("replica", r.r_name); ("forced", string_of_bool forced) ]
            end
            else r.r_state <- Detached { lease = lease - 1 }
          | Attached | Detached _ | Rebuild_required -> ());
          match r.r_state with
          | Rebuild_required -> acc
          (* With contiguous layer coverage a detached replica's missed
             history is reconstructible from layers + retained tail: it
             neither burns a lease nor pins the floor at its frozen
             cursor — the layer store's durable watermark (below) is the
             only retention its recovery needs. *)
          | Detached _ when layered -> acc
          | Attached | Detached _ -> (
            let need = Lsn.next r.r_applied in
            match acc with
            | None -> Some need
            | Some a -> Some (Lsn.min a need)))
        t.replicas None
    in
    (* The store itself needs the un-compacted tail retained: a layer
       crash re-absorbs (durable, stable] from the log. *)
    let floor =
      match t.layer with
      | None -> floor
      | Some store ->
        let need = Lsn.next (Layer.durable_lsn store) in
        Some (match floor with None -> need | Some f -> Lsn.min f need)
    in
    (match floor with
    | Some f ->
      Metrics.observe t.counters "repl.floor_lag"
        (Stdlib.max 0 (Lsn.to_int (Tc.stable_lsn t.tc) - Lsn.to_int f + 1))
    | None -> ());
    floor

  let post t r repl =
    let frame = ref "" in
    let seq =
      Session.Sender.post r.r_session ~backoff:t.cfg.resend_after
        ~encode:(fun ~epoch ~seq ->
          let f =
            Wire.encode_repl { Wire.p_epoch = epoch; p_seq = seq; p_repl = repl }
          in
          frame := f;
          f)
        ~send:r.r_send ()
    in
    incr t.c_ships;
    t.c_ship_bytes := !(t.c_ship_bytes) + String.length !frame;
    if Trace.enabled () then
      Trace.record ~tid:0 ~comp:"repl" ~ev:"ship"
        [
          ("to", r.r_name);
          ("seq", string_of_int seq);
          ("bytes", string_of_int (String.length !frame));
        ];
    seq

  (* Ship the stable suffix past a replica's cursor, in batches of at
     most [batch_ops] records, each batch passing the
     ["repl.ship.batch"] fault point.  Records routed to other
     partitions are skipped but still covered by the batch's [upto], so
     every replica's applied LSN tracks the whole stable log and quorum
     gating needs no per-partition bookkeeping.  Returns the number of
     operations shipped (catch-up accounting). *)
  let rebuild_required t r ~why =
    r.r_state <- Rebuild_required;
    Instrument.bump t.counters "repl.rebuild_required";
    if Trace.enabled () then
      Trace.record ~tid:0 ~comp:"repl" ~ev:"rebuild.required"
        [ ("replica", r.r_name); ("why", why) ]

  let ship_replica t r =
    let stable = Tc.stable_lsn t.tc in
    let shipped = ref 0 in
    if
      attached r
      && Lsn.(r.r_cursor <= stable)
      && Lsn.(r.r_cursor < Tc.log_retained_from t.tc)
    then
      (* Truncation passed the shipping cursor (a fresh standby attached
         to an already-truncated log): re-shipping would silently skip
         the missing prefix.  Demote honestly; a layer bootstrap is the
         recovery path. *)
      rebuild_required t r ~why:"ship cursor below retained log"
    else if attached r && Lsn.(r.r_cursor <= stable) then begin
      let tc_id = Tc.id t.tc in
      let eosl = stable and lwm = stable in
      (* the standby caps the lwm claim at its own applied cursor; see
         [Standby.apply_ship] *)
      let batch = ref [] and batch_n = ref 0 in
      let flush_batch ~upto =
        t.last_ship <- Some r.r_primary;
        Fault.hit p_ship_batch;
        ignore
          (post t r
             (Wire.Repl_ship
                { tc = tc_id; eosl; lwm; upto; ops = List.rev !batch }));
        shipped := !shipped + !batch_n;
        batch := [];
        batch_n := 0;
        r.r_cursor <- Lsn.next upto
      in
      Tc.iter_stable_ops_from t.tc ~from:r.r_cursor (fun lsn op ->
          if String.equal (Tc.dc_of_op t.tc op) r.r_primary then begin
            batch := (lsn, op) :: !batch;
            incr batch_n;
            if !batch_n >= t.cfg.batch_ops then flush_batch ~upto:lsn
          end);
      (* the final (possibly empty) batch carries the cursor to the end
         of the stable log *)
      if Lsn.(r.r_cursor <= stable) then flush_batch ~upto:stable
    end;
    !shipped

  let ship t = Hashtbl.iter (fun _ r -> ignore (ship_replica t r)) t.replicas

  (* One delivery round per replica link: drain the transport, match
     acks against the session, advance the confirmed floor. *)
  let pump t =
    let progressed = ref false in
    Hashtbl.iter
      (fun _ r ->
        if attached r then begin
          List.iter
            (fun frame ->
              match Wire.Verified.decode_repl_reply frame with
              | exception Invalid_argument _ ->
                Instrument.bump t.counters "repl.bad_frames"
              | m when not (Tc_id.equal m.Wire.q_tc (Tc.id t.tc)) ->
                (* Another TC's repl ack: its (epoch, seq) may collide
                   with this manager's own session numbering, and its
                   [applied] cursor is measured against a different
                   LSN sequence entirely. *)
                Instrument.bump t.counters "repl.misattributed"
              | m ->
                if
                  Session.Sender.ack r.r_session ~epoch:m.Wire.q_epoch
                    ~seq:m.Wire.q_seq m.Wire.q_reply
                then begin
                  progressed := true;
                  incr t.c_acks;
                  let (Wire.Repl_ack { applied }) = m.Wire.q_reply in
                  if Lsn.(r.r_applied < applied) then r.r_applied <- applied;
                  if Trace.enabled () then
                    Trace.record ~tid:0 ~comp:"repl" ~ev:"ack"
                      [ ("from", r.r_name); ("applied", Lsn.to_string applied) ]
                end)
            (r.r_drain ());
          Metrics.observe t.counters "repl.lag_lsn"
            (Lsn.to_int (Tc.stable_lsn t.tc) - Lsn.to_int r.r_applied)
        end)
      t.replicas;
    !progressed

  let tick_resend t =
    Hashtbl.iter
      (fun _ r ->
        if attached r then
          Session.Sender.tick r.r_session ~backoff_max:t.cfg.resend_backoff_max
            ~max_retries:t.cfg.resend_max_retries
            ~on_resend:(fun ~seq:_ frame ->
              Instrument.bump t.counters "repl.resends";
              r.r_send frame)
            ~on_timeout:(fun ~seq ~retries ->
              Instrument.bump t.counters "repl.timeouts";
              failwith
                (Printf.sprintf "Repl: ship %d to %s timed out after %d resends"
                   seq r.r_name retries)))
      t.replicas

  let await t pred =
    let stalls = ref 0 in
    while not (pred ()) do
      if pump t then stalls := 0
      else begin
        incr stalls;
        tick_resend t;
        if !stalls > t.cfg.max_pump_rounds then
          failwith "Repl.await: no progress (lost ship without resend?)"
      end
    done

  (* The durability gate installed on the TC: invoked after every
     group-commit force with the new stable LSN.  Shipping happens here
     under every policy — each commit force pushes the fresh suffix to
     the standbys, which is what keeps them warm; [Quorum k] then also
     blocks the commit acknowledgement until at least [k] replicas of
     every replicated primary (clamped to how many it has) confirm the
     LSN. *)
  let gate t lsn =
    sync_layers t;
    ship t;
    ignore (pump t);
    match t.cfg.durability with
    | Primary_only -> ()
    | Quorum k ->
      let satisfied () =
        let by_primary : (string, int * int) Hashtbl.t = Hashtbl.create 4 in
        Hashtbl.iter
          (fun _ r ->
            if attached r then begin
              let have, ok =
                Option.value ~default:(0, 0)
                  (Hashtbl.find_opt by_primary r.r_primary)
              in
              let ok = if Lsn.(r.r_applied >= lsn) then ok + 1 else ok in
              Hashtbl.replace by_primary r.r_primary (have + 1, ok)
            end)
          t.replicas;
        Hashtbl.fold
          (fun _ (have, ok) acc -> acc && ok >= Stdlib.min k have)
          by_primary true
      in
      await t satisfied

  let create ?(counters = Instrument.global) ?(cfg = default_config) tc =
    let t =
      {
        cfg;
        tc;
        counters;
        c_ships = Metrics.counter_cell counters "repl.ships";
        c_ship_bytes = Metrics.counter_cell counters "repl.ship_bytes";
        c_acks = Metrics.counter_cell counters "repl.acks";
        replicas = Hashtbl.create 4;
        last_ship = None;
        layer = None;
      }
    in
    Tc.set_durability_gate tc (fun lsn -> gate t lsn);
    Tc.set_truncate_floor tc (fun () -> truncate_floor t);
    t

  (* Switch this manager's TC onto the layered log store: absorb its
     stable redo from here on, and install the TC's history-replay hook
     so failover can redo below the retained head from layers.  The
     store is registered before any truncation it would need to survive;
     enabling on an already-truncated log is legal but only covers
     history from the current retained head. *)
  let enable_layers ?l0_seal_ops ?compact_runs t =
    match t.layer with
    | Some _ -> ()
    | None ->
      let store =
        Layer.create ?l0_seal_ops ?compact_runs ~counters:t.counters
          ~writer:(Tc.id t.tc)
          ~versioned:(fun table -> Tc.table_versioned t.tc table)
          ()
      in
      t.layer <- Some store;
      Tc.set_history_replay t.tc (fun ~from ~upto ->
          (* the floor keeps retained <= durable+1 <= ingested+1, so a
             request for [from, retained) is always coverable once the
             store has synced at least once past [from] *)
          if
            Lsn.(Lsn.zero < from)
            && Lsn.(upto <= Layer.ingested_lsn store)
            && Lsn.(Layer.history_from store <= from)
          then Some (fun emit -> Layer.iter_ops store ~from ~upto emit)
          else None)

  let layer_store t = t.layer

  (* Fold everything absorbed so far into L1 (bench/tests drive this to
     move the durable watermark without waiting out the auto-compaction
     thresholds). *)
  let compact_layers t =
    match t.layer with
    | None -> ()
    | Some store ->
      sync_layers t;
      Layer.compact ~all:true store

  let durability t = t.cfg.durability

  let last_ship_primary t = t.last_ship

  (* Open (or resume) the session with a hello and adopt the standby's
     exact applied LSN as the shipping cursor: zero for a fresh standby,
     wherever it left off for a rejoining one — catch-up without a
     rebuild.  [r_applied] alone would not do: it is only a floor (acks
     may have been lost). *)
  let hello t r =
    let seq =
      Session.Sender.post r.r_session ~awaited:true ~backoff:t.cfg.resend_after
        ~encode:(fun ~epoch ~seq ->
          Wire.encode_repl
            {
              Wire.p_epoch = epoch;
              p_seq = seq;
              p_repl = Wire.Repl_hello { tc = Tc.id t.tc };
            })
        ~send:r.r_send ()
    in
    await t (fun () -> Session.Sender.has_reply r.r_session seq);
    match Session.Sender.take_reply r.r_session seq with
    | Some (Wire.Repl_ack { applied }) ->
      r.r_applied <- applied;
      r.r_cursor <- Lsn.next applied
    | None -> ()

  let attach t ~name ~primary ~standby ~send ~drain =
    let r =
      {
        r_name = name;
        r_primary = primary;
        r_standby = standby;
        r_session = Session.Sender.create ();
        r_send = send;
        r_drain = drain;
        r_applied = Lsn.zero;
        r_cursor = Lsn.next Lsn.zero;
        r_state = Attached;
      }
    in
    Hashtbl.replace t.replicas name r;
    hello t r;
    Instrument.bump t.counters "repl.attached"

  (* Stop shipping to a replica without forgetting it: its applied LSN
     keeps holding the truncation floor — under a retention lease of
     [lease_checkpoints] granted checkpoints — so a later [reattach]
     only ships the suffix it missed.  Idempotent: a second detach does
     not refresh a running lease. *)
  let detach t ~name =
    match Hashtbl.find_opt t.replicas name with
    | Some r ->
      (match r.r_state with
      | Attached -> r.r_state <- Detached { lease = t.cfg.lease_checkpoints }
      | Detached _ | Rebuild_required -> ());
      ignore (Session.Sender.clear r.r_session)
    | None -> ()

  let exact_applied t r = Standby.applied r.r_standby ~tc:(Tc.id t.tc)

  (* Whether the stable log still retains everything past the standby's
     exact applied cursor — the condition under which its missed suffix
     is provably reconstructible by re-shipping (catch-up) or TC redo
     alone.  A candidate caught up to the rssp is always covered:
     truncation cuts never pass the checkpoint target, so
     retained_from <= rssp. *)
  let log_covered t r =
    Lsn.(Tc.log_retained_from t.tc <= Lsn.next (exact_applied t r))

  (* Promotion coverage: the log alone suffices, or a contiguous layer
     store fills the gap below the retained head (layer-sourced redo via
     the TC's history-replay hook) and the log covers the rest. *)
  let covered t r = log_covered t r || layer_contiguous t

  let reattach t ~name =
    match Hashtbl.find_opt t.replicas name with
    | Some r ->
      (match r.r_state with
      | Rebuild_required ->
        invalid_arg
          ("Repl.reattach: " ^ name
         ^ " requires a rebuild (lease expired or log truncated past its \
            cursor)")
      | Attached | Detached _ -> ());
      (* a new epoch voids any frame of the old session still in flight *)
      ignore (Session.Sender.new_epoch r.r_session);
      r.r_state <- Attached;
      hello t r;
      (* The hello re-adopted the standby's exact cursor — zero for one
         that crashed while away.  If truncation has passed that cursor
         the missed records are gone and re-shipping would silently
         skip them: demote instead of resuming with a hole. *)
      if log_covered t r then ignore (ship_replica t r)
      else if layer_contiguous t then begin
        (* The missed middle lives only in layers, and shipping cannot
           resume mid-stream without it.  The replica is still fully
           recoverable (layer-sourced redo on promotion, or a layer
           bootstrap), so park it detached instead of demoting. *)
        r.r_state <- Detached { lease = t.cfg.lease_checkpoints };
        Instrument.bump t.counters "repl.reattach_deferred"
      end
      else rebuild_required t r ~why:"reattach cursor below retained log"
    | None -> invalid_arg ("Repl.reattach: unknown replica " ^ name)

  (* Promotion eligibility (the fail-over gate's per-manager half): a
     candidate is eligible iff its acked history is provably
     reconstructible — it is not rebuild-required, and this TC's stable
     log retains everything past its applied cursor, so either peer
     catch-up or post-promotion redo can re-drive the gap
     [applied+1, stable] in full. *)
  let promotion_eligible t ~name =
    match Hashtbl.find_opt t.replicas name with
    | None -> false
    | Some r -> (
      match r.r_state with
      | Rebuild_required -> false
      | Attached | Detached _ -> covered t r)

  (* Peer catch-up: re-ship the retained stable suffix past the
     replica's cursor and wait until it confirms end-of-stable-log.
     Promotion runs this on the chosen laggard first, so the redo the
     TC then drives is only the (usually empty) post-catch-up gap. *)
  let catch_up t ~name =
    match Hashtbl.find_opt t.replicas name with
    | None -> invalid_arg ("Repl.catch_up: unknown replica " ^ name)
    | Some r ->
      (match r.r_state with
      | Rebuild_required ->
        invalid_arg ("Repl.catch_up: " ^ name ^ " requires a rebuild")
      | Detached _ | Attached -> ());
      if not (log_covered t r) then
        (* The gap below the retained head lives only in layers;
           shipping the retained suffix over it would apply the stream
           out of order.  Leave the cursor frozen — promotion re-drives
           the whole gap through layer-sourced redo instead. *)
        Instrument.bump t.counters "repl.catchup_skipped"
      else begin
        (match r.r_state with
        | Detached _ ->
          ignore (Session.Sender.new_epoch r.r_session);
          r.r_state <- Attached;
          hello t r
        | Attached | Rebuild_required -> ());
        let stable = Tc.stable_lsn t.tc in
        let shipped = ship_replica t r in
        if shipped > 0 then begin
          Instrument.bump_by t.counters "repl.catchup_ops" shipped;
          if Trace.enabled () then
            Trace.record ~tid:0 ~comp:"repl" ~ev:"catchup"
              [ ("replica", r.r_name); ("ops", string_of_int shipped) ]
        end;
        await t (fun () -> Lsn.(r.r_applied >= stable))
      end

  let state_of t ~name =
    match Hashtbl.find_opt t.replicas name with
    | Some r -> r.r_state
    | None -> invalid_arg ("Repl.state_of: unknown replica " ^ name)

  (* Remove a replica from the set entirely (promoted or
     decommissioned): its cursor no longer holds the truncation floor. *)
  let remove t ~name = Hashtbl.remove t.replicas name

  let replicas_of t ~primary =
    Hashtbl.fold
      (fun _ r acc -> if String.equal r.r_primary primary then r :: acc else acc)
      t.replicas []
    |> List.sort (fun a b -> String.compare a.r_name b.r_name)

  let replica_names t ~primary =
    List.map (fun r -> r.r_name) (replicas_of t ~primary)

  (* Ship everything stable and pump until every attached replica
     confirms it — replication parity, used by quiesce and the
     deployment auditor before comparing replica state. *)
  let settle t =
    sync_layers t;
    ship t;
    let stable = Tc.stable_lsn t.tc in
    await t (fun () ->
        Hashtbl.fold
          (fun _ r acc ->
            acc && ((not (attached r)) || Lsn.(r.r_applied >= stable)))
          t.replicas true)

  let lag t ~name =
    match Hashtbl.find_opt t.replicas name with
    | Some r -> Lsn.to_int (Tc.stable_lsn t.tc) - Lsn.to_int r.r_applied
    | None -> 0

  (* Layer-fed standby bootstrap: install the store's materialized state
     (this TC's records routed to [primary] only) straight into the
     standby's DC, then adopt the store's ingest watermark as the
     applied cursor.  The subsequent [attach]'s hello resumes shipping
     at the post-layer suffix — a fresh replica costs the current state
     size, not a full-redo replay from LSN 1.  Returns the number of
     records installed. *)
  let bootstrap_standby t ~standby ~primary =
    match t.layer with
    | None -> invalid_arg "Repl.bootstrap_standby: layers not enabled"
    | Some store ->
      sync_layers t;
      let installed = ref 0 in
      Layer.iter_current store (fun ~table ~key record ->
          let routed =
            Tc.dc_of_op t.tc (Op.Read { table; key; mode = Op.Own })
          in
          if String.equal routed primary then begin
            Dc.install_record (Standby.dc standby) ~table ~key record;
            incr installed
          end);
      Standby.adopt standby ~tc:(Tc.id t.tc) ~upto:(Layer.ingested_lsn store);
      Instrument.bump_by t.counters "repl.bootstrap_installs" !installed;
      if Trace.enabled () then
        Trace.record ~tid:0 ~comp:"repl" ~ev:"bootstrap"
          [
            ("primary", primary);
            ("installed", string_of_int !installed);
            ("upto", Lsn.to_string (Layer.ingested_lsn store));
          ];
      !installed
end
