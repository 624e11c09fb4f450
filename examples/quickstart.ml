(* Quickstart: an unbundled kernel in a few lines.

   Creates a kernel (one Transactional Component + one Data Component
   over an in-process transport), runs a couple of transactions, crashes
   each component in turn, and shows that committed state survives while
   uncommitted state never does.

   Run with:  dune exec examples/quickstart.exe *)

module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc

let table = "accounts"

let ok = function
  | `Ok v -> v
  | `Blocked -> failwith "unexpected lock conflict in a single-client demo"
  | `Fail msg -> failwith msg

let show k label =
  let txn = Tc.begin_txn (Kernel.tc k) in
  let rows = ok (Tc.scan (Kernel.tc k) txn ~table ~from_key:"" ~limit:100) in
  ignore (Tc.commit (Kernel.tc k) txn);
  Printf.printf "%-28s %s\n" label
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) rows))

let () =
  let k = Kernel.create Kernel.default_config in
  Kernel.create_table k ~name:table ~versioned:true;

  (* A committed transaction: open two accounts. *)
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"alice" ~value:"100");
  ok (Tc.insert (Kernel.tc k) txn ~table ~key:"bob" ~value:"50");
  ok (Tc.commit (Kernel.tc k) txn);
  show k "after first commit:";

  (* A transfer, also committed. *)
  let txn = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"alice" ~value:"70");
  ok (Tc.update (Kernel.tc k) txn ~table ~key:"bob" ~value:"80");
  ok (Tc.commit (Kernel.tc k) txn);
  show k "after transfer:";

  (* An uncommitted transaction, interrupted by a TC crash: the Data
     Component resets exactly the pages holding the lost operations and
     the restarted TC repeats history, so the transfer survives and the
     in-flight doubling does not. *)
  let doomed = Tc.begin_txn (Kernel.tc k) in
  ok (Tc.update (Kernel.tc k) doomed ~table ~key:"alice" ~value:"140");
  Printf.printf "%-28s (uncommitted: alice=140)\n" "in-flight update...";
  Kernel.crash_tc k;
  show k "after TC crash + restart:";

  (* Now crash the Data Component: it loses its cache and rebuilds
     well-formed structures from stable state and its own log before the
     TC redoes logical history. *)
  Kernel.crash_dc k;
  show k "after DC crash + recovery:";

  print_endline "quickstart: OK"
