(* E10 — Interaction contracts under message-level adversity
   (paper Section 4.2).

   Unique request ids + TC resend + DC idempotence must give
   exactly-once execution of logical operations whatever the transport
   does.  We sweep loss/duplication probabilities — applied to BOTH
   logical channels, data and control, since the control plane rides
   the same transport — count the resends and absorbed duplicates the
   contracts generate, report the measured wire bytes per channel, and
   verify the final database is byte-identical to the reliable run.

   The last row is the hard case: a chaotic transport on both channels
   with the frame-corruption fault armed (checksum-failed frames are
   dropped on delivery), plus a full TC-crash and DC-crash cycle
   mid-workload — so the restart barriers and recovery redo themselves
   run over the corrupting wire. *)

open Bench_util
module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Stored_record = Untx_dc.Stored_record
module Fault = Untx_fault.Fault

let table = "kv"

let ok = function
  | `Ok v -> v
  | `Blocked -> failwith "blocked"
  | `Fail m -> failwith m

let workload ?(at_boundary = fun _ -> ()) k =
  (* keys known-inserted so far, maintained only across *committed* txns *)
  let known = Hashtbl.create 1024 in
  for t = 0 to 199 do
    at_boundary t;
    let txn = Tc.begin_txn (Kernel.tc k) in
    let staged = ref [] in
    for i = 0 to 9 do
      let key = Printf.sprintf "k%04d" (((t * 13) + (i * 29)) mod 800) in
      if Hashtbl.mem known key || List.mem key !staged then
        ok (Tc.update (Kernel.tc k) txn ~table ~key ~value:(Printf.sprintf "%d.%d" t i))
      else begin
        staged := key :: !staged;
        ok (Tc.insert (Kernel.tc k) txn ~table ~key ~value:(Printf.sprintf "%d.%d" t i))
      end
    done;
    if t mod 3 = 0 then Tc.abort (Kernel.tc k) txn ~reason:"mix in rollbacks"
    else begin
      ok (Tc.commit (Kernel.tc k) txn);
      List.iter (fun key -> Hashtbl.replace known key ()) !staged
    end
  done;
  Kernel.quiesce k

let state k =
  List.map
    (fun (key, r) -> (key, Stored_record.committed r))
    (Dc.dump_table (Kernel.dc k) table)

let row_of label k t =
  let tc = Kernel.tc k in
  let transport = Kernel.transport k in
  [
    label;
    fmt_f (200. /. t);
    string_of_int (Tc.messages_sent tc);
    string_of_int (Tc.resends tc);
    string_of_int (Transport.dropped transport);
    string_of_int (Transport.duplicated transport);
    string_of_int (Transport.corrupt_dropped transport);
    string_of_int (Dc.dup_absorbed (Kernel.dc k));
    string_of_int (Transport.data_bytes_sent transport);
    string_of_int (Transport.control_bytes_sent transport);
  ]

(* Each policy runs with timing on so the data-channel round trip
   (first send to ack — resends lengthen it, they don't reset it) is
   captured per policy: adversity should show up as tail latency, not
   just as counter deltas. *)
let rtt_row label counters =
  match Metrics.hist_snapshot counters "tc.data_rtt_ns" with
  | None -> None
  | Some s ->
    Some
      [
        label;
        string_of_int s.Metrics.s_count;
        Metrics.fmt_ns (Metrics.percentile s 50.);
        Metrics.fmt_ns (Metrics.percentile s 95.);
        Metrics.fmt_ns (Metrics.percentile s 99.);
        Metrics.fmt_ns s.Metrics.s_max;
      ]

let run_policy label policy =
  let counters = Instrument.create () in
  let k = make_kernel ~policy ~seed:101 ~counters () in
  Metrics.set_timed counters true;
  let (), t = time (fun () -> workload k) in
  Metrics.set_timed counters false;
  (row_of label k t, state k, rtt_row label counters)

(* Chaotic policy on both channels, 5% of all frames corrupted on the
   wire (caught by the checksum gate and dropped), and a hard kill of
   each component at a fixed transaction boundary.  The commit protocol
   is synchronous, so every transaction committed before the kill is
   stably logged; recovery must redo it over the same corrupting
   transport and land on the reliable run's exact final state. *)
let run_crash_cycle label policy =
  let counters = Instrument.create () in
  let k = make_kernel ~policy ~seed:101 ~counters () in
  Metrics.set_timed counters true;
  Fault.arm ~seed:7 [ Fault.crash_with_prob "transport.frame.corrupt" 0.05 ];
  let (), t =
    time (fun () ->
        workload k ~at_boundary:(fun i ->
            if i = 60 then Kernel.crash_tc k;
            if i = 140 then Kernel.crash_dc k))
  in
  Fault.disarm ();
  Metrics.set_timed counters false;
  (row_of label k t, state k, rtt_row label counters)

let run () =
  let mk drop dup =
    { Transport.delay_min = 0; delay_max = 2; reorder = true;
      dup_prob = dup; drop_prob = drop }
  in
  let rows_states =
    [
      run_policy "reliable" Transport.reliable;
      run_policy "drop 5%" (mk 0.05 0.);
      run_policy "dup 10%" (mk 0. 0.1);
      run_policy "drop 10% + dup 10%" (mk 0.1 0.1);
      run_policy "drop 25% + dup 25%" (mk 0.25 0.25);
      run_crash_cycle "chaos + corrupt 5% + TC&DC crash" (mk 0.1 0.1);
    ]
  in
  print_table
    ~title:
      "E10  Exactly-once under adversity (200 txns x 10 writes, 1/3 \
       aborted; both channels adversarial)"
    ~header:
      [ "transport"; "txns/s"; "msgs"; "resends"; "dropped"; "duplicated";
        "corrupt"; "dups absorbed"; "data B"; "ctl B" ]
    (List.map (fun (r, _, _) -> r) rows_states);
  print_table
    ~title:
      "E10  Data-channel round trip per policy (first send to ack; resends \
       lengthen, never reset)"
    ~header:[ "transport"; "n"; "p50"; "p95"; "p99"; "max" ]
    (List.filter_map (fun (_, _, r) -> r) rows_states);
  let reference = (fun (_, s, _) -> s) (List.hd rows_states) in
  let all_equal =
    List.for_all (fun (_, s, _) -> s = reference) (List.tl rows_states)
  in
  Printf.printf
    "claim check: final states across all transports identical to the \
     reliable run: %s\n(resend + unique request ids + idempotence = \
     exactly-once, Section 4.2; byte counts are\nmeasured from the encoded \
     frames, so adversity shows up as real extra wire traffic).\n"
    (if all_equal then "YES" else "NO — CONTRACT VIOLATION");
  if not all_equal then failwith "E10: exactly-once violated"
