(* Shared helpers for the test suites. *)

module Kernel = Untx_kernel.Kernel
module Transport = Untx_kernel.Transport
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id
module Codec = Untx_util.Codec
module Engine = Untx_kernel.Engine

let ok = function
  | `Ok v -> v
  | `Blocked -> Alcotest.fail "unexpected `Blocked"
  | `Fail msg -> Alcotest.fail ("unexpected `Fail: " ^ msg)

let expect_fail = function
  | `Ok _ -> Alcotest.fail "expected `Fail, got `Ok"
  | `Blocked -> Alcotest.fail "expected `Fail, got `Blocked"
  | `Fail msg -> msg

(* One committed upsert through any engine: an update, or an insert
   when the key is absent. *)
let upsert (module E : Engine.S) ~table ~key ~value =
  let txn = E.begin_txn () in
  (match E.update txn ~table ~key ~value with
  | `Ok () -> ()
  | `Blocked -> Alcotest.fail "blocked"
  | `Fail _ -> ok (E.insert txn ~table ~key ~value));
  ok (E.commit txn)

let kernel_config
    ?(policy = Transport.reliable)
    ?(sync_policy = Dc.Full_ablsn)
    ?(tc_reset_mode = Dc.Selective)
    ?(cc_protocol = Tc.Key_locks)
    ?(pipeline_writes = true)
    ?(page_capacity = 256)
    ?(cache_pages = 64)
    ?(seed = 42)
    () =
  {
    Kernel.tc =
      {
        (Tc.default_config (Tc_id.of_int 1)) with
        cc_protocol;
        pipeline_writes;
      };
    dc =
      {
        Dc.page_capacity;
        cache_pages;
        sync_policy;
        tc_reset_mode;
        debug_checks = true;
      };
    policy;
    seed;
  }

let make_kernel ?policy ?sync_policy ?tc_reset_mode ?cc_protocol
    ?pipeline_writes ?page_capacity ?cache_pages ?seed ?(versioned = true)
    ?(table = "kv") () =
  let k =
    Kernel.create
      (kernel_config ?policy ?sync_policy ?tc_reset_mode ?cc_protocol
         ?pipeline_writes ?page_capacity ?cache_pages ?seed ())
  in
  Kernel.create_table k ~name:table ~versioned;
  k

(* Run one committed transaction applying [ops]. *)
let committed k ops =
  let txn = Tc.begin_txn (Kernel.tc k) in
  List.iter (fun op -> ok (op txn)) ops;
  ok (Tc.commit (Kernel.tc k) txn)

let put k ~table key value =
  committed k [ (fun txn -> Tc.insert (Kernel.tc k) txn ~table ~key ~value) ]

let get k ~table key =
  let txn = Tc.begin_txn (Kernel.tc k) in
  let v = ok (Tc.read (Kernel.tc k) txn ~table ~key) in
  ok (Tc.commit (Kernel.tc k) txn);
  v

(* Full observable table contents via a fresh read transaction. *)
let snapshot k ~table =
  let txn = Tc.begin_txn (Kernel.tc k) in
  let rows = ok (Tc.scan (Kernel.tc k) txn ~table ~from_key:"" ~limit:max_int) in
  ok (Tc.commit (Kernel.tc k) txn);
  rows

let check_wellformed k =
  match Dc.check (Kernel.dc k) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("ill-formed index: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Reproducible qcheck runs.

   [QCheck_alcotest.to_alcotest] without [~rand] self-initializes its
   random state, so a failing property's counterexample could not be
   replayed.  Every suite instead registers through [qcheck_test]: the
   generator state derives from a fixed seed (overridable via the
   QCHECK_SEED environment variable), and a failing test says which
   seed to export to replay it. *)

let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> invalid_arg ("QCHECK_SEED not an integer: " ^ s))
  | None -> 0xC1D9

let qcheck_test prop =
  let name, speed, fn =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      prop
  in
  ( name,
    speed,
    fun () ->
      try fn ()
      with e ->
        Printf.eprintf
          "\n[qcheck] property %S failed under seed %d — replay with \
           QCHECK_SEED=%d\n\
           %!"
          name qcheck_seed qcheck_seed;
        raise e )

(* A field list as the binary formats write one: a varint count, then
   each field as a varint length and its bytes. *)
let encode_fields fields =
  let b =
    Bytes.create
      (List.fold_left
         (fun acc f -> acc + Codec.string_length f)
         (Codec.varint_length (List.length fields))
         fields)
  in
  let pos = Codec.write_varint (List.length fields) b 0 in
  ignore (List.fold_left (fun pos f -> Codec.write_string f b pos) pos fields);
  Bytes.to_string b

let decode_fields =
  Codec.read_all (fun r ->
      List.init (Codec.next_varint r) (fun _ -> Codec.next_string r))
