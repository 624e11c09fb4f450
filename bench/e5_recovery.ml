(* E5 — Partial failures (paper Section 5.3).

   Monolithic kernels only fail whole; the unbundled kernel loses one
   side at a time.  We measure recovery work and wall time for:
   - DC failure (conventional redo resend from the redo scan start);
   - TC failure with the selective cache reset (only pages whose
     abstract LSNs reach past the stable log);
   - TC failure with the draconian complete-failure fallback;
   - both failing (the monolithic case), with and without a recent
     checkpoint (contract termination bounding redo). *)

open Bench_util
module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Instrument = Untx_util.Instrument

let table = "kv"

let ok = function
  | `Ok v -> v
  | `Blocked -> failwith "blocked"
  | `Fail m -> failwith m

let populate k n =
  let rec go i =
    if i < n then begin
      let txn = Tc.begin_txn (Kernel.tc k) in
      let hi = min n (i + 40) in
      for j = i to hi - 1 do
        ok
          (Tc.insert (Kernel.tc k) txn ~table
             ~key:(Printf.sprintf "k%06d" j)
             ~value:(Printf.sprintf "v%06d" j))
      done;
      ok (Tc.commit (Kernel.tc k) txn);
      go hi
    end
  in
  go 0

(* a little uncommitted work so there is something to lose *)
let open_work k =
  let txn = Tc.begin_txn (Kernel.tc k) in
  for i = 0 to 9 do
    ok
      (Tc.update (Kernel.tc k) txn ~table
         ~key:(Printf.sprintf "k%06d" (i * 97))
         ~value:"dirty")
  done;
  Kernel.quiesce k

let populate_more k =
  let txn = Tc.begin_txn (Kernel.tc k) in
  for j = 0 to 199 do
    ok
      (Tc.insert (Kernel.tc k) txn ~table
         ~key:(Printf.sprintf "x%06d" j)
         ~value:"post-checkpoint")
  done;
  ok (Tc.commit (Kernel.tc k) txn)

let scenario label ~reset_mode ~checkpointed ~crash =
  let counters = Instrument.create () in
  let k = make_kernel ~counters ~tc_reset_mode:reset_mode ~seed:51 () in
  populate k 3_000;
  if checkpointed then begin
    Kernel.quiesce k;
    ignore (Tc.checkpoint (Kernel.tc k))
  end;
  populate_more k;
  open_work k;
  let requests_before = Instrument.get counters "dc.requests" in
  let reset_before = Dc.pages_reset (Kernel.dc k) in
  let _, t = time (fun () -> crash k) in
  [
    label;
    (if checkpointed then "yes" else "no");
    Printf.sprintf "%.1f" (t *. 1000.);
    string_of_int (Instrument.get counters "dc.requests" - requests_before);
    string_of_int (Dc.pages_reset (Kernel.dc k) - reset_before);
    string_of_int (Dc.dup_absorbed (Kernel.dc k));
  ]

let run () =
  print_table
    ~title:
      "E5  Partial-failure recovery (3k committed rows + 200 \
       post-checkpoint + open txn)"
    ~header:
      [ "failure"; "ckpt?"; "recovery ms"; "ops resent"; "pages reset";
        "dups absorbed" ]
    [
      scenario "DC crash" ~reset_mode:Dc.Selective ~checkpointed:false
        ~crash:Kernel.crash_dc;
      scenario "DC crash" ~reset_mode:Dc.Selective ~checkpointed:true
        ~crash:Kernel.crash_dc;
      scenario "TC crash (selective)" ~reset_mode:Dc.Selective
        ~checkpointed:true ~crash:Kernel.crash_tc;
      scenario "TC crash (draconian)" ~reset_mode:Dc.Complete
        ~checkpointed:true ~crash:Kernel.crash_tc;
      scenario "both crash" ~reset_mode:Dc.Selective ~checkpointed:true
        ~crash:Kernel.crash_both;
    ];
  Printf.printf
    "claim check: checkpoints bound redo (contract termination); the \
     selective TC reset touches\nfar fewer pages than the draconian \
     complete-failure fallback, which forces a full redo.\n"
