(* Partial failures (paper Section 5.3), narrated.

   A monolithic kernel can only fail as a whole; an unbundled one can
   lose its TC or its DC independently.  This example walks through all
   three failure shapes and the two TC-failure reset strategies —
   selective page reset vs the "draconian" complete-failure fallback —
   printing what each component forgets and how the contracts restore
   exactly-once execution.

   Run with:  dune exec examples/partial_failure.exe *)

module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Transport = Untx_kernel.Transport

let table = "ledger"

let ok = function
  | `Ok v -> v
  | `Blocked -> failwith "blocked"
  | `Fail msg -> failwith msg

let make reset_mode =
  let k =
    Kernel.create
      {
        Kernel.tc = Tc.default_config (Tc_id.of_int 1);
        dc =
          {
            Dc.default_config with
            tc_reset_mode = reset_mode;
            page_capacity = 256;
          };
        policy = Transport.reliable;
        seed = 7;
      }
  in
  Kernel.create_table k ~name:table ~versioned:true;
  k

let seed k n =
  let txn = Tc.begin_txn (Kernel.tc k) in
  for i = 0 to n - 1 do
    ok
      (Tc.insert (Kernel.tc k) txn ~table
         ~key:(Printf.sprintf "entry%03d" i)
         ~value:(Printf.sprintf "amount-%d" i))
  done;
  ok (Tc.commit (Kernel.tc k) txn)

let count k =
  let txn = Tc.begin_txn (Kernel.tc k) in
  let rows = ok (Tc.scan (Kernel.tc k) txn ~table ~from_key:"" ~limit:10_000) in
  ignore (Tc.commit (Kernel.tc k) txn);
  List.length rows

let banner msg = Printf.printf "\n=== %s ===\n" msg

let () =
  banner "DC failure: cache and unforced DC-log tail are lost";
  let k = make Dc.Selective in
  seed k 200;
  Printf.printf "committed rows before crash: %d\n" (count k);
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"entry000" ~value:"uncommitted!");
  Kernel.crash_dc k;
  Printf.printf
    "DC recovered: structures rebuilt from stable pages + DC-log,\n\
     then the TC resent logical history from its redo scan start point.\n";
  Tc.abort (Kernel.tc k) txn ~reason:"demo rollback";
  Printf.printf "in-flight txn rolled back; entry000 restored.\n";
  Printf.printf "rows after DC recovery: %d\n" (count k);

  banner "TC failure with SELECTIVE reset";
  let k = make Dc.Selective in
  seed k 200;
  let doomed = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) doomed ~table ~key:"entry042" ~value:"lost-forever");
  Kernel.quiesce k;
  let dc = Kernel.dc k in
  let reset_before = Dc.pages_reset dc in
  Kernel.crash_tc k;
  Printf.printf
    "TC lost its volatile log tail; the DC reset %d page(s) — exactly\n\
     those whose abstract LSNs reached past the TC's stable log — and\n\
     kept every other page in cache.\n"
    (Dc.pages_reset dc - reset_before);
  Printf.printf "rows after restart: %d (uncommitted update gone)\n" (count k);

  banner "TC failure with DRACONIAN (complete) reset";
  let k = make Dc.Complete in
  seed k 200;
  let doomed = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) doomed ~table ~key:"entry042" ~value:"lost-again");
  Kernel.quiesce k;
  Kernel.crash_tc k;
  Printf.printf
    "the DC turned the partial failure into a complete one: dropped its\n\
     whole cache and replayed its own log, then the TC redid history.\n";
  Printf.printf "rows after restart: %d\n" (count k);

  banner "Both components fail (the monolithic case)";
  let k = make Dc.Selective in
  seed k 200;
  Kernel.crash_both k;
  Printf.printf "rows after full restart: %d\n" (count k);

  print_endline "\npartial_failure: OK"
