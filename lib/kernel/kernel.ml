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
}

let default_config =
  {
    tc = Tc.default_config (Tc_id.of_int 1);
    dc = Dc.default_config;
    policy = Transport.reliable;
    seed = 42;
  }

type t = { k_tc : Tc.t; k_dc : Dc.t; k_transport : Transport.t }

let dc_name = "dc1"

(* [expect] declares the link's owner to the DC: a frame stamped with
   another TC's id is a wiring bug, refused there rather than applied
   under the wrong idempotence state. *)
let link ?counters ?policy ?label ?(wrap = fun f frame -> f frame) ~seed tc
    ~dc_name dc =
  let expect = Tc.id tc in
  let transport =
    Transport.create ?counters ?policy ?label ~seed
      ~data:(wrap (Dc.handle_request_frame ~expect dc))
      ~control:(wrap (Dc.handle_control_frame ~expect dc))
      ()
  in
  Tc.attach_dc tc
    {
      Tc.dc_name;
      part = Dc.part dc;
      send = Transport.send transport;
      send_control = Transport.send_control transport;
      drain = (fun () -> Transport.drain transport);
    };
  transport

let create ?(counters = Instrument.global) config =
  let dc = Dc.create ~counters config.dc in
  let tc = Tc.create ~counters config.tc in
  let transport =
    link ~counters ~policy:config.policy ~seed:config.seed tc ~dc_name dc
  in
  { k_tc = tc; k_dc = dc; k_transport = transport }

let tc t = t.k_tc

let dc t = t.k_dc

let transport t = t.k_transport

let create_table t ~name ~versioned =
  Dc.create_table t.k_dc ~name ~versioned;
  Tc.map_table t.k_tc ~table:name ~dc:dc_name ~versioned

(* Quiescing goes through the TC's await/resend loop: outstanding
   requests complete because the contracts (unique ids, resend with
   backoff, idempotence) work, not because the harness cheats the
   network. *)
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
