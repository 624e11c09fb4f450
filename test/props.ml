(* Property-based tests (qcheck): abstract-LSN semantics against a
   reference model, codec roundtrips, page/B-tree model conformance,
   lock-manager safety, WAL crash semantics. *)

module Ablsn = Untx_dc.Ablsn
module Page_meta = Untx_dc.Page_meta
module Stored_record = Untx_dc.Stored_record
module Codec = Untx_util.Codec
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Disk = Untx_storage.Disk
module Cache = Untx_storage.Cache
module Btree = Untx_btree.Btree
module Lock_mgr = Untx_tc.Lock_mgr
module Tc = Untx_tc.Tc
module Wal = Untx_wal.Wal
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op

let test prop = Helpers.qcheck_test prop

(* --- abstract LSNs ---------------------------------------------------- *)

(* Reference semantics: a set of explicitly applied LSNs plus a global
   cover from low-water marks. *)
type ab_op = Add of int | Advance of int

let ab_op_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun l -> Add (1 + (l mod 100))) (int_bound 99);
        map (fun l -> Advance (1 + (l mod 100))) (int_bound 99);
      ])

let ab_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Add l -> Printf.sprintf "add %d" l
             | Advance l -> Printf.sprintf "adv %d" l)
           ops))
    QCheck.Gen.(list_size (int_bound 40) ab_op_gen)

let run_ref ops =
  List.fold_left
    (fun (applied, cover) op ->
      match op with
      | Add l -> ((if l > cover then l :: applied else applied), cover)
      | Advance l -> (List.filter (fun a -> a > max cover l) applied, max cover l))
    ([], 0) ops

let run_ab ops =
  List.fold_left
    (fun ab op ->
      match op with
      | Add l -> Ablsn.add (Lsn.of_int l) ab
      | Advance l -> Ablsn.advance ~lwm:(Lsn.of_int l) ab)
    Ablsn.empty ops

let prop_ablsn_model =
  QCheck.Test.make ~name:"ablsn matches reference model" ~count:300 ab_ops_arb
    (fun ops ->
      let applied, cover = run_ref ops in
      let ab = run_ab ops in
      List.for_all
        (fun l ->
          let expected = l <= cover || List.mem l applied in
          Ablsn.included (Lsn.of_int l) ab = expected)
        (List.init 101 (fun i -> i + 1)))

let prop_ablsn_merge_pointwise =
  QCheck.Test.make ~name:"merge is pointwise OR" ~count:300
    (QCheck.pair ab_ops_arb ab_ops_arb) (fun (ops_a, ops_b) ->
      let a = run_ab ops_a and b = run_ab ops_b in
      let m = Ablsn.merge a b in
      List.for_all
        (fun l ->
          let l = Lsn.of_int l in
          Ablsn.included l m = (Ablsn.included l a || Ablsn.included l b))
        (List.init 101 (fun i -> i + 1)))

let prop_ablsn_codec =
  QCheck.Test.make ~name:"ablsn encode/decode roundtrip" ~count:300 ab_ops_arb
    (fun ops ->
      let ab = run_ab ops in
      Ablsn.equal ab (Ablsn.decode (Ablsn.encode ab)))

(* --- codecs ----------------------------------------------------------- *)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"field codec roundtrip" ~count:300
    QCheck.(list (string_gen QCheck.Gen.char))
    (fun fields ->
      Helpers.decode_fields (Helpers.encode_fields fields) = fields)

let record_arb =
  let open QCheck in
  let gen =
    Gen.(
      map3
        (fun value deleted (tag, bv) ->
          {
            Stored_record.value;
            deleted;
            before =
              (match tag mod 3 with
              | 0 -> Stored_record.Absent
              | 1 -> Stored_record.Null_before
              | _ -> Stored_record.Value_before bv);
            writer = Tc_id.of_int (String.length value mod 7);
            wlsn = Lsn.of_int (tag mod 97);
          })
        (string_size (int_bound 20))
        bool
        (pair (int_bound 10) (string_size (int_bound 20))))
  in
  make gen

let prop_record_roundtrip =
  QCheck.Test.make ~name:"stored record roundtrip" ~count:300 record_arb
    (fun r -> Stored_record.decode (Stored_record.encode r) = r)

(* --- pages ------------------------------------------------------------ *)

type page_op = Set of string * string | Remove of string

let page_ops_arb =
  let key_gen = QCheck.Gen.(map (fun i -> Printf.sprintf "k%02d" (i mod 30)) (int_bound 29)) in
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun k v -> Set (k, v)) key_gen (string_size (int_bound 10));
          map (fun k -> Remove k) key_gen;
        ])
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Set (k, v) -> Printf.sprintf "set %s=%s" k v
             | Remove k -> "rm " ^ k)
           ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let prop_page_model =
  QCheck.Test.make ~name:"page matches assoc model" ~count:300 page_ops_arb
    (fun ops ->
      let page =
        Page.create ~id:(Page_id.of_int 1) ~kind:Page.Leaf ~capacity:100_000
      in
      let model = Hashtbl.create 16 in
      List.iter
        (function
          | Set (k, v) ->
            Page.set page ~key:k ~data:v;
            Hashtbl.replace model k v
          | Remove k ->
            ignore (Page.remove page k);
            Hashtbl.remove model k)
        ops;
      let expected =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Page.cells page = expected
      && Page.cell_count page = Hashtbl.length model)

let prop_page_split_partition =
  QCheck.Test.make ~name:"split_upper partitions cells" ~count:300
    page_ops_arb (fun ops ->
      let page =
        Page.create ~id:(Page_id.of_int 1) ~kind:Page.Leaf ~capacity:100_000
      in
      List.iter
        (function
          | Set (k, v) -> Page.set page ~key:k ~data:v
          | Remove k -> ignore (Page.remove page k))
        ops;
      QCheck.assume (Page.cell_count page >= 2);
      let before = Page.cells page in
      let split_key, moved = Page.split_upper page in
      let kept = Page.cells page in
      kept @ moved = before
      && List.for_all (fun (k, _) -> k >= split_key) moved
      && List.for_all (fun (k, _) -> k < split_key) kept
      && moved <> [] && kept <> [])

(* A balanced split, with or without the cell whose write overflowed
   the page: counting that cell on the side its key sorts to against
   the split key, the two sides differ by at most one cell's bytes and
   each keeps a page cell.  The one exception is forced by that rule:
   an incoming cell heavier than all the page cells on the far side
   would balance best alone, so it stands with one page cell. *)
let prop_page_split_balance =
  let incoming_gen =
    QCheck.Gen.(
      opt ~ratio:0.75
        (pair
           (map (fun i -> Printf.sprintf "k%02d" i) (int_bound 29))
           (string_size (int_bound 60))))
  in
  QCheck.Test.make ~name:"split_upper balances the incoming cell" ~count:500
    (QCheck.pair page_ops_arb
       (QCheck.make
          ~print:(function
            | None -> "-" | Some (k, d) -> Printf.sprintf "incoming %s=%S" k d)
          incoming_gen))
    (fun (ops, incoming) ->
      let page =
        Page.create ~id:(Page_id.of_int 1) ~kind:Page.Leaf ~capacity:100_000
      in
      List.iter
        (function
          | Set (k, v) -> Page.set page ~key:k ~data:v
          | Remove k -> ignore (Page.remove page k))
        ops;
      QCheck.assume (Page.cell_count page >= 2);
      let before = Page.cells page in
      let split_key, moved = Page.split_upper ?incoming page in
      let kept = Page.cells page in
      let with_incoming cells ~left =
        match incoming with
        | None -> cells
        | Some (key, data) ->
          let others = List.filter (fun (k, _) -> k <> key) cells in
          if (String.compare key split_key < 0) = left then
            List.merge compare [ (key, data) ] others
          else others
      in
      let left = with_incoming kept ~left:true
      and right = with_incoming moved ~left:false in
      let size (k, d) = Page.cell_size ~key:k ~data:d in
      let bytes = List.fold_left (fun acc c -> acc + size c) 0 in
      let largest = List.fold_left (fun acc c -> max acc (size c)) 0 in
      let alone_heavier side other =
        match incoming with
        | Some cell ->
          List.length side = 2 && List.mem cell side
          && size cell > bytes other
        | None -> false
      in
      kept @ moved = before
      && kept <> [] && moved <> []
      && List.for_all (fun (k, _) -> k >= split_key) moved
      && List.for_all (fun (k, _) -> k < split_key) kept
      && (abs (bytes left - bytes right) <= largest (left @ right)
         || alone_heavier left right || alone_heavier right left))

(* --- B-tree ----------------------------------------------------------- *)

(* Keys that stress suffix truncation: long shared prefixes (some of
   them prefixes of each other), short tails over an alphabet with the
   extreme bytes, so one key is often a prefix of another. *)
let prefixed_key_gen =
  QCheck.Gen.(
    map2 ( ^ )
      (oneofl [ ""; "user-0000"; "user-0000\x00"; "user-0000\xff\xff"; "u\xff" ])
      (string_size ~gen:(oneofl [ '\x00'; 'a'; 'b'; '\xff' ]) (int_bound 5)))

let print_key k = Printf.sprintf "%S" k

(* The model ops mix the short dense keys of [page_ops_arb] with
   shared-prefix keys, and delete as often as they write. *)
let btree_ops_arb =
  let key_gen =
    QCheck.Gen.(
      frequency
        [
          (1, map (fun i -> Printf.sprintf "k%02d" i) (int_bound 29));
          (3, prefixed_key_gen);
        ])
  in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k v -> Set (k, v)) key_gen (string_size (int_bound 10)));
          (2, map (fun k -> Remove k) key_gen);
        ])
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Set (k, v) -> Printf.sprintf "set %S=%S" k v
             | Remove k -> "rm " ^ print_key k)
           ops))
    QCheck.Gen.(list_size (int_bound 200) op_gen)

(* Every split posts the boundary the design promises: a leaf the
   shortest prefix of its right half's first key that sorts above its
   left half's last key, an inner page its first moved key unchanged.
   A leaf's halves count the key being written, which is set after the
   split: it joins the half its key routes to. *)
let prop_btree_separator =
  QCheck.Test.make ~name:"split separators are shortest distinguishing prefixes"
    ~count:100
    (QCheck.make
       ~print:(fun ks -> String.concat ";" (List.map print_key ks))
       QCheck.Gen.(list_size (int_range 20 200) prefixed_key_gen))
    (fun keys ->
      let fail = QCheck.Test.fail_reportf in
      let writing = ref "" in
      let on_split (ev : Btree.split_event) =
        let first_moved, _ = Page.nth ev.new_page 0 in
        let sep = ev.sep_key in
        if ev.level > 0 then begin
          if sep <> first_moved then
            fail "inner split posted %S, first moved key %S" sep first_moved
        end
        else
          let last_kept, _ =
            Page.nth ev.old_page (Page.cell_count ev.old_page - 1)
          in
          let key = !writing in
          let lo, hi =
            if String.compare key sep < 0 then
              (Stdlib.max key last_kept, first_moved)
            else (last_kept, Stdlib.min key first_moved)
          in
          if not (String.starts_with ~prefix:sep hi) then
            fail "separator %S is not a prefix of %S" sep hi;
          if String.compare sep lo <= 0 then
            fail "separator %S not above last kept %S" sep lo;
          for n = 0 to String.length sep - 1 do
            let shorter = String.sub hi 0 n in
            if String.compare shorter lo > 0 then
              fail "%S, shorter than separator %S, is above last kept %S"
                shorter sep lo
          done
      in
      let disk = Disk.create () in
      let cache = Cache.create ~disk ~capacity:512 () in
      let tree =
        Btree.create ~cache ~page_capacity:96
          ~hooks:{ Btree.null_hooks with on_split }
      in
      List.iter
        (fun k ->
          writing := k;
          Btree.set tree ~key:k ~data:"v")
        keys;
      Btree.check tree = Ok ())

let prop_btree_model =
  QCheck.Test.make ~name:"btree matches map model, stays well-formed"
    ~count:60 btree_ops_arb (fun ops ->
      let disk = Disk.create () in
      let cache = Cache.create ~disk ~capacity:512 () in
      let tree =
        Btree.create ~cache ~page_capacity:96 ~hooks:Btree.null_hooks
      in
      let model = Hashtbl.create 16 in
      List.iter
        (function
          | Set (k, v) ->
            Btree.set tree ~key:k ~data:v;
            Hashtbl.replace model k v
          | Remove k ->
            ignore (Btree.remove tree k);
            Hashtbl.remove model k)
        ops;
      Btree.check tree = Ok ()
      && Hashtbl.fold
           (fun k v acc -> acc && Btree.find tree k = Some v)
           model true
      && Btree.cell_count tree = Hashtbl.length model)

(* --- lock manager ------------------------------------------------------ *)

type lock_op = Acquire of int * int * Lock_mgr.mode | Release of int

let lock_ops_arb =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map3
              (fun o r x ->
                Acquire (o mod 6, r mod 8, if x then Lock_mgr.X else Lock_mgr.S))
              (int_bound 5) (int_bound 7) bool );
          (1, map (fun o -> Release (o mod 6)) (int_bound 5));
        ])
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Acquire (o, r, m) ->
               Printf.sprintf "acq o%d r%d %s" o r
                 (match m with Lock_mgr.S -> "S" | Lock_mgr.X -> "X")
             | Release o -> Printf.sprintf "rel o%d" o)
           ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let rsrc r = Lock_mgr.Record { table = "t"; key = string_of_int r }

let prop_lock_safety =
  QCheck.Test.make ~name:"no incompatible co-holders" ~count:300 lock_ops_arb
    (fun ops ->
      let l = Lock_mgr.create () in
      let ok = ref true in
      List.iter
        (function
          | Acquire (o, r, m) -> ignore (Lock_mgr.acquire l ~owner:o (rsrc r) m)
          | Release o -> ignore (Lock_mgr.release_all l ~owner:o))
        ops;
      (* safety: for every resource, X excludes everyone else *)
      for r = 0 to 7 do
        let holders =
          List.filter
            (fun o ->
              Lock_mgr.holds l ~owner:o (rsrc r) Lock_mgr.S
              || Lock_mgr.holds l ~owner:o (rsrc r) Lock_mgr.X)
            [ 0; 1; 2; 3; 4; 5 ]
        in
        let x_holders =
          List.filter
            (fun o -> Lock_mgr.holds l ~owner:o (rsrc r) Lock_mgr.X)
            holders
        in
        if x_holders <> [] && List.length holders > 1 then ok := false
      done;
      !ok)

(* --- WAL ---------------------------------------------------------------- *)

let prop_wal_crash_suffix =
  QCheck.Test.make ~name:"crash loses exactly the unforced suffix" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_bound 30) small_string) (int_bound 30))
    (fun (records, force_at) ->
      let w = Wal.create ~size:String.length () in
      List.iteri
        (fun i r ->
          ignore (Wal.append w r);
          if i = force_at then Wal.force w)
        records;
      (* the force only fires if the workload reaches index [force_at] *)
      let forced = if force_at < List.length records then force_at + 1 else 0 in
      Wal.crash w;
      let survived = ref [] in
      Wal.iter_from w Lsn.zero (fun _ r -> survived := r :: !survived);
      List.rev !survived = List.filteri (fun i _ -> i < forced) records)

(* The whole log API against a plain-list model: stable and volatile
   records as ascending (lsn, record) lists, the LSN counter, the stable
   LSN and the truncation floor.  Scans and lookups start from random
   cursors, below, inside and past the log; long runs cross the stable
   store's growth and compaction points. *)
type wal_cmd =
  | W_append of string
  | W_reserve
  | W_force
  | W_crash
  | W_truncate of int
  | W_find of int
  | W_iter_from of int
  | W_iter_retained of int

let show_wal_cmd = function
  | W_append r -> Printf.sprintf "append %S" r
  | W_reserve -> "reserve"
  | W_force -> "force"
  | W_crash -> "crash"
  | W_truncate l -> Printf.sprintf "truncate %d" l
  | W_find l -> Printf.sprintf "find %d" l
  | W_iter_from l -> Printf.sprintf "iter_from %d" l
  | W_iter_retained l -> Printf.sprintf "iter_retained %d" l

let wal_cmds_arb =
  let open QCheck.Gen in
  let cursor = int_bound 160 in
  let cmd =
    frequency
      [
        (8, map (fun i -> W_append (string_of_int i)) (int_bound 999));
        (1, return W_reserve);
        (3, return W_force);
        (1, return W_crash);
        (1, map (fun l -> W_truncate l) cursor);
        (2, map (fun l -> W_find l) cursor);
        (2, map (fun l -> W_iter_from l) cursor);
        (2, map (fun l -> W_iter_retained l) cursor);
      ]
  in
  QCheck.make
    ~print:(fun cmds -> String.concat "; " (List.map show_wal_cmd cmds))
    (list_size (int_bound 250) cmd)

type wal_model = {
  mutable m_next : int;
  mutable m_stable : (int * string) list;
  mutable m_volatile : (int * string) list;
  mutable m_stable_lsn : int;
  mutable m_trunc : int;
}

let prop_wal_model =
  QCheck.Test.make ~name:"wal matches list model" ~count:300 wal_cmds_arb
    (fun cmds ->
      let w = Wal.create ~size:String.length () in
      let m =
        {
          m_next = 1;
          m_stable = [];
          m_volatile = [];
          m_stable_lsn = 0;
          m_trunc = 1;
        }
      in
      let scan iter l =
        let seen = ref [] in
        iter w (Lsn.of_int l) (fun lsn r -> seen := (Lsn.to_int lsn, r) :: !seen);
        List.rev !seen
      in
      let from l = List.filter (fun (l', _) -> l' >= l) m.m_stable in
      let step = function
        | W_append r ->
          let lsn = Wal.append w r in
          m.m_volatile <- m.m_volatile @ [ (m.m_next, r) ];
          m.m_next <- m.m_next + 1;
          Lsn.to_int lsn = m.m_next - 1
        | W_reserve ->
          let lsn = Wal.reserve w in
          m.m_next <- m.m_next + 1;
          Lsn.to_int lsn = m.m_next - 1
        | W_force ->
          Wal.force w;
          m.m_stable <- m.m_stable @ m.m_volatile;
          m.m_volatile <- [];
          m.m_stable_lsn <- m.m_next - 1;
          true
        | W_crash ->
          Wal.crash w;
          m.m_volatile <- [];
          true
        | W_truncate l ->
          Wal.truncate w (Lsn.of_int l);
          m.m_trunc <- max m.m_trunc l;
          m.m_stable <- from l;
          true
        | W_find l ->
          Wal.find w (Lsn.of_int l)
          = List.assoc_opt l (m.m_stable @ m.m_volatile)
        | W_iter_from l -> scan Wal.iter_from l = from l
        | W_iter_retained l -> (
          let expected =
            if l < m.m_trunc && m.m_trunc > 1 then Error (l, m.m_trunc)
            else Ok (from l)
          in
          match scan Wal.iter_retained l with
          | seen -> expected = Ok seen
          | exception Wal.Truncated { wanted; retained } ->
            expected = Error (Lsn.to_int wanted, Lsn.to_int retained))
      in
      List.for_all
        (fun cmd ->
          step cmd
          && Wal.stable_count w = List.length m.m_stable
          && Wal.volatile_count w = List.length m.m_volatile
          && Lsn.to_int (Wal.stable_lsn w) = m.m_stable_lsn
          && Lsn.to_int (Wal.last_lsn w) = m.m_next - 1
          && Lsn.to_int (Wal.retained_from w) = m.m_trunc)
        cmds)

let suite =
  List.map test
    [
      prop_ablsn_model;
      prop_ablsn_merge_pointwise;
      prop_ablsn_codec;
      prop_codec_roundtrip;
      prop_record_roundtrip;
      prop_page_model;
      prop_page_split_partition;
      prop_page_split_balance;
      prop_btree_model;
      prop_lock_safety;
      prop_wal_crash_suffix;
      prop_wal_model;
    ]

(* --- cross-protocol scan equivalence ---------------------------------- *)

(* All four TC concurrency-control protocols must return identical scan
   results on identical data: the protocols differ in locking, never in
   semantics. *)
let prop_scan_protocol_equivalence =
  let arb =
    QCheck.make
      ~print:(fun (keys, from_ix) ->
        Printf.sprintf "keys=%d from=%d" (List.length keys) from_ix)
      QCheck.Gen.(
        pair
          (list_size (int_bound 80)
             (map (fun i -> Printf.sprintf "k%03d" (i mod 120)) (int_bound 119)))
          (int_bound 119))
  in
  QCheck.Test.make ~name:"scan equivalence across CC protocols" ~count:30 arb
    (fun (keys, from_ix) ->
      let keys = List.sort_uniq String.compare keys in
      let from_key = Printf.sprintf "k%03d" from_ix in
      let scan_with cc =
        let k = Helpers.make_kernel ~cc_protocol:cc () in
        let tc = Untx_kernel.Kernel.tc k in
        let txn = Tc.begin_txn tc in
        List.iter
          (fun key ->
            match Tc.insert tc txn ~table:"kv" ~key ~value:("v" ^ key) with
            | `Ok () -> ()
            | `Blocked | `Fail _ -> failwith "insert")
          keys;
        (match Tc.commit tc txn with `Ok () -> () | _ -> failwith "commit");
        let txn = Tc.begin_txn tc in
        let rows =
          match Tc.scan tc txn ~table:"kv" ~from_key ~limit:50 with
          | `Ok rows -> rows
          | `Blocked | `Fail _ -> failwith "scan"
        in
        ignore (Tc.commit tc txn);
        rows
      in
      let reference = scan_with Tc.Key_locks in
      List.for_all
        (fun cc -> scan_with cc = reference)
        [ Tc.Range_locks 16; Tc.Table_locks; Tc.Optimistic ])

let suite = suite @ [ test prop_scan_protocol_equivalence ]

(* --- canonical binary fields ------------------------------------------ *)

(* Strings over the bytes field lists are made of — short counts and
   lengths, continuation bytes, overlong zeros — so a fair share of them
   decode: any that does must be exactly what the encoder writes. *)
let codec_bytes_arb =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_bound 10)
           (oneofl
              [ "\x00"; "\x01"; "\x02"; "\x03"; "\x7f"; "\x80"; "\x81";
                "\xff"; "a"; "ab" ])))

let prop_decode_canonical =
  QCheck.Test.make ~name:"whatever decodes re-encodes to itself" ~count:2000
    codec_bytes_arb (fun s ->
      (match Helpers.decode_fields s with
      | fs -> String.equal (Helpers.encode_fields fs) s
      | exception Invalid_argument _ -> true)
      &&
      match Codec.of_varint s with
      | n -> String.equal (Codec.varint n) s
      | exception Invalid_argument _ -> true)

(* A data frame built by hand around [payload]: untraced, with a valid
   varint length and checksum, so only the payload decides whether it
   decodes. *)
let data_frame kind payload =
  let body = kind ^ "\000" ^ Codec.varint (String.length payload) ^ payload in
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    body;
  body ^ String.init 4 (fun i -> Char.chr ((!h lsr (8 * (3 - i))) land 0xff))

(* Redo-batch payloads over the bytes a batch is made of — counts and
   LSNs, operation and result tags, presence bytes, string bytes — and
   a few the encoder never writes (a continuation bit, an overlong
   zero): about one in 200 decodes, and the rest must be refused. *)
let batch_soup_gen =
  QCheck.Gen.(
    pair (oneofl [ "Q"; "R" ])
      (map
         (fun bs -> "B\003" ^ String.concat "" bs)
         (list_size (int_bound 14)
            (oneofl
               [ "\000"; "\001"; "\002"; "\003"; "\004"; "\007"; "\x80";
                 "\x81\000"; "D"; "U"; "V"; "F"; "P"; "N"; "W"; "k";
                 "kv" ]))))

(* The payload of a generated batch or batch reply with one byte flipped
   or cut short there: near misses of real batches, a fair share of
   which still decode. *)
let batch_mutant_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun m -> ("Q", Wire.encode_request m)) Suite_wire.gen_batch;
        map (fun m -> ("R", Wire.encode_reply m)) Suite_wire.gen_batch_reply;
      ]
    >>= fun (kind, frame) ->
    (* an untraced frame: kind byte, one-byte trace id, varint length *)
    let len = Codec.read_varint frame 2 in
    let payload = String.sub frame (2 + Codec.varint_length len) len in
    int_bound (len - 1) >>= fun at ->
    int_range 1 255 >>= fun x ->
    oneofl
      [
        String.mapi
          (fun i c -> if i = at then Char.chr (Char.code c lxor x) else c)
          payload;
        String.sub payload 0 at;
      ]
    >|= fun payload -> (kind, payload))

let batch_payload_arb =
  QCheck.make
    ~print:(fun (kind, p) -> Printf.sprintf "%s %S" kind p)
    (QCheck.Gen.oneof [ batch_soup_gen; batch_mutant_gen ])

let prop_batch_canonical =
  QCheck.Test.make ~name:"a redo batch that decodes re-encodes to itself"
    ~count:2000 batch_payload_arb (fun (kind, payload) ->
      let frame = data_frame kind payload in
      if kind = "Q" then
        match Wire.decode_request frame with
        | m -> String.equal (Wire.encode_request m) frame
        | exception Invalid_argument _ -> true
      else
        match Wire.decode_reply frame with
        | m -> String.equal (Wire.encode_reply m) frame
        | exception Invalid_argument _ -> true)

(* --- operation conflicts ---------------------------------------------- *)

(* [Op.conflicts] as it was written with [List.mem], kept as the
   reference model for the version that compares keys with
   [String.equal]. *)
let reference_conflicts (a : Op.t) (b : Op.t) =
  let footprint = function
    | Op.Insert { key; _ } | Op.Update { key; _ } | Op.Delete { key; _ }
    | Op.Read { key; _ } -> `Points [ key ]
    | Op.Scan { from_key; _ }
    | Op.Probe { from_key; _ }
    | Op.Fetch { from_key; _ } -> `Range from_key
    | Op.Commit_versions { keys; _ } | Op.Abort_versions { keys; _ } ->
      `Points keys
  in
  let overlap =
    match (footprint a, footprint b) with
    | `Points ka, `Points kb -> List.exists (fun k -> List.mem k kb) ka
    | `Range _, `Range _ -> true
    | `Range from_key, `Points keys | `Points keys, `Range from_key ->
      List.exists (fun k -> String.compare k from_key >= 0) keys
  in
  String.equal (Op.table a) (Op.table b)
  && (not (Op.is_read a && Op.is_read b))
  && overlap

(* Operations over two tables and four keys, so footprints often meet. *)
let op_gen =
  QCheck.Gen.(
    oneofl [ "t"; "u" ] >>= fun table ->
    let key = oneofl [ ""; "a"; "b"; "ba" ] in
    key >>= fun k ->
    list_size (int_bound 3) key >>= fun keys ->
    oneofl [ Op.Own; Op.Committed; Op.Dirty ] >>= fun mode ->
    oneofl
      [
        Op.Insert { table; key = k; value = "v" };
        Op.Update { table; key = k; value = "v" };
        Op.Delete { table; key = k };
        Op.Read { table; key = k; mode };
        Op.Scan { table; from_key = k; limit = 3; mode };
        Op.Probe { table; from_key = k; limit = 3 };
        Op.Fetch { table; from_key = k; limit = 3 };
        Op.Commit_versions { table; keys };
        Op.Abort_versions { table; keys };
      ])

let prop_conflicts_reference =
  QCheck.Test.make ~name:"Op.conflicts agrees with its List.mem definition"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Format.asprintf "%a / %a" Op.pp a Op.pp b)
       (QCheck.Gen.pair op_gen op_gen))
    (fun (a, b) -> Op.conflicts a b = reference_conflicts a b)

let suite =
  suite
  @ List.map test
      [ prop_decode_canonical; prop_batch_canonical; prop_conflicts_reference ]

(* --- the binary record cell ------------------------------------------- *)

(* Records whose writer and wlsn span every varint length, and whose
   values are binary, so cells cross each header-length boundary. *)
let wide_int_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 300;
        oneofl [ 127; 128; 16383; 16384; max_int ];
        map (fun i -> i land max_int) int;
      ])

let wide_record_gen =
  QCheck.Gen.(
    map3
      (fun (value, deleted) (kind, bv) (writer, wlsn) ->
        {
          Stored_record.value;
          deleted;
          before =
            (match kind with
            | 0 -> Stored_record.Absent
            | 1 -> Stored_record.Null_before
            | _ -> Stored_record.Value_before bv);
          writer = Tc_id.of_int writer;
          wlsn = Lsn.of_int wlsn;
        })
      (pair (string_size ~gen:char (int_bound 140)) bool)
      (pair (int_bound 2) (string_size ~gen:char (int_bound 20)))
      (pair wide_int_gen wide_int_gen))

let show_record (r : Stored_record.t) = Printf.sprintf "%S" (Stored_record.encode r)

(* A value of [gen], then one of: overwrite byte [pos] of its encoding
   with [c] (append [c] at the end), or cut the encoding to its first
   [pos] bytes. *)
let mutation_arb show gen =
  QCheck.make
    ~print:(fun (v, cut, pos, c) ->
      Printf.sprintf "%s %s %d %C" (show v) (if cut then "cut" else "set") pos c)
    QCheck.Gen.(
      quad gen bool (int_bound 200)
        (oneof [ char; oneofl [ '\x00'; '\x7f'; '\x80'; '\xff' ] ]))

let mutate s (cut, pos, c) =
  let pos = pos mod (String.length s + 1) in
  if cut then String.sub s 0 pos
  else if pos = String.length s then s ^ String.make 1 c
  else String.mapi (fun i x -> if i = pos then c else x) s

let prop_cell_canonical =
  QCheck.Test.make
    ~name:"a mutated or cut record cell raises or re-encodes to itself"
    ~count:3000 (mutation_arb show_record wide_record_gen)
    (fun (r, cut, pos, c) ->
      let cell = Stored_record.encode r in
      let s = mutate cell (cut, pos, c) in
      Stored_record.decode cell = r
      && Stored_record.encoded_size r = String.length cell
      &&
      match Stored_record.decode s with
      | r' -> String.equal (Stored_record.encode r') s
      | exception Invalid_argument _ -> true)

(* The cell a record-level commit or abort leaves.  [None] removes the
   record. *)
let cell_after cell = function
  | Stored_record.Set r -> Some (Stored_record.encode r)
  | Stored_record.Remove -> None
  | Stored_record.Unchanged | Stored_record.Fail _ -> Some cell

(* The same decisions taken the way the DC takes them: from the cell's
   flags byte, rewriting the cell in place. *)
let commit_in_place cell wlsn =
  if Stored_record.cell_deleted cell then None
  else if Stored_record.cell_before cell = `Absent then Some cell
  else Some (Stored_record.commit_cell cell ~wlsn)

let abort_in_place cell wlsn =
  match Stored_record.cell_before cell with
  | `Absent -> Some cell
  | `Null -> None
  | `Value -> Some (Stored_record.abort_cell cell ~wlsn)

let prop_cell_in_place =
  QCheck.Test.make
    ~name:"in-place commit and abort match decode, edit, encode" ~count:1000
    (QCheck.make
       ~print:(fun (r, l) -> Printf.sprintf "%s lsn %d" (show_record r) l)
       QCheck.Gen.(pair wide_record_gen wide_int_gen))
    (fun (r, l) ->
      let cell = Stored_record.encode r and wlsn = Lsn.of_int l in
      commit_in_place cell wlsn = cell_after cell (Stored_record.commit r ~wlsn)
      && abort_in_place cell wlsn = cell_after cell (Stored_record.abort r ~wlsn))

let suite = suite @ List.map test [ prop_cell_canonical; prop_cell_in_place ]

let suite = suite @ [ test prop_btree_separator ]

(* --- page metadata and master records ---------------------------------- *)

(* Abstract LSNs whose marks and members span every varint length:
   members rise above [lw] by gaps that cross the 1- and 2-byte
   boundaries. *)
let wide_ablsn_gen =
  QCheck.Gen.(
    map2
      (fun lw gaps ->
        snd
          (List.fold_left
             (fun (prev, ab) gap ->
               let l = prev + 1 + gap in
               (l, Ablsn.add (Lsn.of_int l) ab))
             (lw, Ablsn.of_lw (Lsn.of_int lw))
             gaps))
      (oneof [ int_bound 300; map (fun i -> i land (max_int lsr 2)) int ])
      (list_size (int_bound 6)
         (oneof [ int_bound 3; oneofl [ 126; 127; 16383 ] ])))

let wide_meta_gen =
  QCheck.Gen.(
    map2
      (fun dlsn tcs ->
        {
          Page_meta.dlsn = Lsn.of_int dlsn;
          ablsns =
            List.fold_left
              (fun m (tc, ab) -> Tc_id.Map.add (Tc_id.of_int tc) ab m)
              Tc_id.Map.empty tcs;
        })
      wide_int_gen
      (list_size (int_bound 3)
         (pair (oneof [ int_bound 4; oneofl [ 127; 128; 300 ] ]) wide_ablsn_gen)))

let master_gen =
  QCheck.Gen.(
    list_size (int_bound 4)
      (quad (string_size ~gen:char (int_bound 140)) bool bool wide_int_gen))

let show_bytes s = Printf.sprintf "%S" s

(* One canonicity law for each format: the value roundtrips, its size
   is its length, and a mutated or cut encoding either raises or
   re-encodes to exactly itself. *)
let canonical ~name ~encode ~decode ~same ?size gen =
  QCheck.Test.make ~name ~count:2000
    (mutation_arb (fun v -> show_bytes (encode v)) gen)
    (fun (v, cut, pos, c) ->
      let e = encode v in
      let s = mutate e (cut, pos, c) in
      same (decode e) v
      && Option.fold ~none:true ~some:(fun f -> f v = String.length e) size
      &&
      match decode s with
      | v' -> String.equal (encode v') s
      | exception Invalid_argument _ -> true)

let prop_ablsn_canonical =
  canonical ~name:"a mutated or cut abLSN raises or re-encodes to itself"
    ~encode:Ablsn.encode ~decode:Ablsn.decode ~same:Ablsn.equal
    ~size:Ablsn.encoded_size wide_ablsn_gen

(* [""] is the metadata of a page never synced: it decodes to [empty],
   which encodes as its two varints. *)
let prop_meta_canonical =
  canonical ~name:"a mutated or cut page meta raises or re-encodes to itself"
    ~encode:Page_meta.encode
    ~decode:(fun s ->
      if String.equal s "" then invalid_arg "unsynced" else Page_meta.decode s)
    ~same:(fun a (b : Page_meta.t) ->
      Lsn.equal a.Page_meta.dlsn b.dlsn
      && Tc_id.Map.equal Ablsn.equal a.ablsns b.ablsns)
    ~size:Page_meta.encoded_size wide_meta_gen

let prop_dc_master_canonical =
  canonical
    ~name:"a mutated or cut DC master record raises or re-encodes to itself"
    ~encode:(fun ts ->
      Untx_dc.Dc.encode_master
        (List.map (fun (n, v, s, r) -> (n, v, s, Page_id.of_int r)) ts))
    ~decode:(fun s ->
      List.map
        (fun (n, v, s, r) -> (n, v, s, Page_id.to_int r))
        (Untx_dc.Dc.decode_master s))
    ~same:( = ) master_gen

let prop_mono_master_canonical =
  canonical
    ~name:"a mutated or cut Mono master record raises or re-encodes to itself"
    ~encode:(fun ts ->
      Untx_baseline.Mono.encode_master
        (List.map (fun (n, r) -> (n, Page_id.of_int r)) ts))
    ~decode:(fun s ->
      List.map
        (fun (n, r) -> (n, Page_id.to_int r))
        (Untx_baseline.Mono.decode_master s))
    ~same:( = )
    (QCheck.Gen.map (List.map (fun (n, _, _, r) -> (n, r))) master_gen)

let suite =
  suite
  @ List.map test
      [ prop_ablsn_canonical; prop_meta_canonical; prop_dc_master_canonical;
        prop_mono_master_canonical ]
