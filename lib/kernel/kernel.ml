module Tc_id = Untx_util.Tc_id
module Instrument = Untx_util.Instrument
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Wire = Untx_msg.Wire

type config = {
  tc : Tc.config;
  dc : Dc.config;
  policy : Transport.policy;
  seed : int;
  auto_checkpoint_every : int;
}

let default_config =
  {
    tc = Tc.default_config (Tc_id.of_int 1);
    dc = Dc.default_config;
    policy = Transport.reliable;
    seed = 42;
    auto_checkpoint_every = 0;
  }

type t = {
  k_tc : Tc.t;
  k_dc : Dc.t;
  k_transport : Transport.t;
  k_auto_ckpt : int;
  mutable k_commits_since_ckpt : int;
}

let dc_name = "dc1"

let create ?(counters = Instrument.global) config =
  let dc = Dc.create ~counters config.dc in
  (* One serialized message plane: both channels carry encoded frames
     under the same adversarial policy, and the DC sees only bytes. *)
  let transport =
    Transport.create ~counters ~policy:config.policy ~seed:config.seed
      ~data:(Dc.handle_request_frame dc)
      ~control:(Dc.handle_control_frame dc)
      ()
  in
  let tc = Tc.create ~counters config.tc in
  Tc.attach_dc tc
    {
      Tc.dc_name;
      part = 0;
      send = Transport.send transport;
      send_control = Transport.send_control transport;
      drain = (fun () -> Transport.drain transport);
    };
  {
    k_tc = tc;
    k_dc = dc;
    k_transport = transport;
    k_auto_ckpt = config.auto_checkpoint_every;
    k_commits_since_ckpt = 0;
  }

let tc t = t.k_tc

let dc t = t.k_dc

let transport t = t.k_transport

let create_table t ~name ~versioned =
  Dc.create_table t.k_dc ~name ~versioned;
  Tc.map_table t.k_tc ~table:name ~dc:dc_name ~versioned

type txn = Tc.txn

let begin_txn t = Tc.begin_txn t.k_tc

let read t txn ~table ~key = Tc.read t.k_tc txn ~table ~key

let insert t txn ~table ~key ~value = Tc.insert t.k_tc txn ~table ~key ~value

let update t txn ~table ~key ~value = Tc.update t.k_tc txn ~table ~key ~value

let delete t txn ~table ~key = Tc.delete t.k_tc txn ~table ~key

let scan t txn ~table ~from_key ~limit =
  Tc.scan t.k_tc txn ~table ~from_key ~limit

let commit t txn =
  let r = Tc.commit t.k_tc txn in
  (match r with
  | `Ok () when t.k_auto_ckpt > 0 ->
    t.k_commits_since_ckpt <- t.k_commits_since_ckpt + 1;
    if t.k_commits_since_ckpt >= t.k_auto_ckpt then begin
      t.k_commits_since_ckpt <- 0;
      (* best effort: an ungranted checkpoint just retries later *)
      ignore (Tc.checkpoint t.k_tc)
    end
  | _ -> ());
  r

let abort t txn ~reason = Tc.abort t.k_tc txn ~reason

let checkpoint t = Tc.checkpoint t.k_tc

(* Quiescing goes through the TC's await/resend loop, not
   [Transport.flush]: outstanding requests complete because the contracts
   (unique ids, resend with backoff, idempotence) work, not because the
   harness cheats the network. *)
let quiesce t = Tc.quiesce t.k_tc

let crash_dc t =
  (* Messages in transit die with the DC's sockets. *)
  Transport.drop_in_flight t.k_transport;
  Dc.crash t.k_dc;
  Dc.recover t.k_dc;
  Tc.on_dc_restart t.k_tc ~dc:dc_name

let crash_tc t =
  Transport.drop_in_flight t.k_transport;
  Tc.crash t.k_tc;
  Tc.recover t.k_tc

let crash_both t =
  Transport.drop_in_flight t.k_transport;
  Dc.crash t.k_dc;
  Tc.crash t.k_tc;
  Dc.recover t.k_dc;
  Tc.recover t.k_tc

(* --- fault-injection harness glue --------------------------------- *)

let crash_for_point t =
  Untx_fault.Fault.route_crash (function
    | `Tc -> crash_tc t
    | `Dc -> crash_dc t)
