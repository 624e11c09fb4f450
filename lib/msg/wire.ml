module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Codec = Untx_util.Codec

type request = { tc : Tc_id.t; lsn : Lsn.t; part : int; op : Op.t }

type result =
  | Done
  | Value of Op.value option
  | Pairs of (Op.key * Op.value) list
  | Next_keys of Op.key list
  | Window of { rows : (Op.key * Op.value) list; hidden : Op.key list }
  | Failed of string

(* Replies are stamped with the TC id of the request they answer, for
   the same reason requests carry a partition id: with M TCs every
   sender numbers its session from (epoch 1, seq 1), so an ack that
   strays onto another TC's link is otherwise indistinguishable from
   that TC's own.  The receiver guards drop misattributed acks loudly
   instead of absorbing them. *)
type reply = { tc : Tc_id.t; lsn : Lsn.t; result : result }

(* The data channel's two frame kinds.  A redo batch carries a run of
   logged operations for one DC under one tc/part header; its reply
   lists each operation's outcome in the same order. *)
type request_msg =
  | Request of request
  | Redo_batch of { tc : Tc_id.t; part : int; ops : (Lsn.t * Op.t) list }

type reply_msg =
  | Reply of reply
  | Redo_batch_reply of { tc : Tc_id.t; outcomes : (Lsn.t * result) list }

type control =
  | Watermarks of { tc : Tc_id.t; eosl : Lsn.t; lwm : Lsn.t }
  | Checkpoint of { tc : Tc_id.t; new_rssp : Lsn.t }
  | Restart_begin of { tc : Tc_id.t; stable_lsn : Lsn.t }
  | Redo_fence_begin of { tc : Tc_id.t }
  | Redo_fence_end of { tc : Tc_id.t }

type control_reply = Ack | Checkpoint_done of { granted : bool }

type control_msg = { c_epoch : int; c_seq : int; c_ctl : control }

type control_reply_msg = {
  r_tc : Tc_id.t;  (* the TC whose session this ack belongs to *)
  r_epoch : int;
  r_seq : int;
  r_reply : control_reply;
}

(* Replication traffic (the third channel).  [Repl_hello] opens or
   resumes a session: the standby answers with its exact applied LSN so
   a rejoining sender ships only the missing suffix.  [Repl_ship]
   carries a batch of stable-log records covering the LSN range up to
   [upto] (reads are never logged, so the list may skip LSNs), plus the
   sender's current watermarks so the standby's cache obeys the same
   causality rule as the primary's. *)
type repl =
  | Repl_hello of { tc : Tc_id.t }
  | Repl_ship of {
      tc : Tc_id.t;
      eosl : Lsn.t;
      lwm : Lsn.t;
      upto : Lsn.t;
      ops : (Lsn.t * Op.t) list;
    }

type repl_reply = Repl_ack of { applied : Lsn.t }

type repl_msg = { p_epoch : int; p_seq : int; p_repl : repl }

type repl_reply_msg = {
  q_tc : Tc_id.t;  (* the shipping TC whose session this ack belongs to *)
  q_epoch : int;
  q_seq : int;
  q_reply : repl_reply;
}

let repl_tc = function Repl_hello { tc } | Repl_ship { tc; _ } -> tc

let control_tc = function
  | Watermarks { tc; _ }
  | Checkpoint { tc; _ }
  | Restart_begin { tc; _ }
  | Redo_fence_begin { tc }
  | Redo_fence_end { tc } -> tc

(* ------------------------------------------------------------------ *)
(* Frames.

   Layout: 1 kind byte, the trace id as a varint (below 2^32; 0 means
   "untraced", one byte), the payload length as a varint, the payload,
   then a 4-byte big-endian FNV-1a checksum over everything before it.
   Any mutation — including one that lands on the trace id — is caught
   by the structure checks or the checksum and surfaces as
   [Invalid_argument].

   The payload is binary (wire.mli lists every layout): integers are
   {!Codec} varints, strings a varint length then their bytes, lists a
   varint count then their elements, key lists front-coded against the
   key before, and each constructor one tag byte.  Every encoder sizes
   its payload first and writes it straight into the frame; every
   decoder reads the fields where they sit and accepts exactly what the
   encoder writes, so a frame that decodes re-encodes to its own
   bytes. *)

let trailer_len = 4

let max_tid = 0xFFFFFFFF

(* Over bytes, so a frame under construction is hashed where it sits; a
   received string is read through [Bytes.unsafe_of_string], never
   written.  The hash runs in an unboxed [Int64] (the compiler keeps the
   local reference in a register), which saves the tagging arithmetic a
   tagged int pays per byte, and is reduced to 32 bits once at the end:
   the low 32 bits of an xor and a product depend only on the low 32
   bits of their operands.  Each byte's xor and multiply wait on the
   previous byte's, so the loop takes four bytes a turn to keep its own
   counting and polling off that chain. *)
let[@inline] fnv_byte h b i =
  Int64.mul
    (Int64.logxor h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
    0x01000193L

let fnv32 b lo hi =
  let h = ref 0x811c9dc5L and i = ref lo in
  while !i + 4 <= hi do
    let j = !i in
    h :=
      fnv_byte
        (fnv_byte (fnv_byte (fnv_byte !h b j) b (j + 1)) b (j + 2))
        b (j + 3);
    i := j + 4
  done;
  for j = !i to hi - 1 do
    h := fnv_byte !h b j
  done;
  Int64.to_int !h land 0xFFFFFFFF

(* Only ever at offsets inside the frame [frame_bytes] sized. *)
let put_u32 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr ((v lsr 24) land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr (v land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* A frame of a [len]-byte payload: [frame_bytes] makes it, and
   [open_frame] writes its header and returns the payload's offset; the
   caller writes the payload from there, and [seal] checks that it
   ended at [pos] — where the payload's sizing said it would — and adds
   the checksum.  Trace ids are taken modulo 2^32. *)
let header_length tid len =
  1 + Codec.varint_length (tid land max_tid) + Codec.varint_length len

let frame_bytes tid len =
  Bytes.create (header_length tid len + len + trailer_len)

let open_frame b tid kind len =
  Bytes.unsafe_set b 0 kind;
  Codec.write_varint len b (Codec.write_varint (tid land max_tid) b 1)

let seal b pos =
  assert (pos + trailer_len = Bytes.length b);
  put_u32 b pos (fnv32 b 0 pos);
  Bytes.unsafe_to_string b

(* The trace id of [s]'s header, or -1: the header is parsed without
   raising, as [frame_ok] answers for any string. *)
let header_tid s =
  let tid = Codec.varint_before s ~stop:(String.length s - trailer_len) 1 in
  if tid > max_tid then -1 else tid

(* The payload offset of [s] if its header holds and its kind is [kind]
   — and, with [verify], its checksum too; [-1] otherwise.  Only a frame
   that already passed [frame_ok] may skip the checksum. *)
let checked_payload ~verify kind s =
  let n = String.length s in
  let stop = n - trailer_len in
  let tid = header_tid s in
  if tid < 0 || String.unsafe_get s 0 <> kind then -1
  else
    let i = 1 + Codec.varint_length tid in
    let len = Codec.varint_before s ~stop i in
    if len < 0 then -1
    else
      let off = i + Codec.varint_length len in
      if len <> stop - off then -1
      else if
        verify && get_u32 s stop <> fnv32 (Bytes.unsafe_of_string s) 0 stop
      then -1
      else off

let frame_ok s =
  String.length s > 0
  &&
  match s.[0] with
  | ('Q' | 'R' | 'C' | 'K' | 'S' | 'T') as kind ->
    checked_payload ~verify:true kind s >= 0
  | _ -> false

(* Validates the whole frame first: a corrupted trace id fails the
   checksum and reads as 0 ("untraced") rather than as some other
   operation's id. *)
let frame_tid s = if frame_ok s then header_tid s else 0

let fail what = invalid_arg ("Wire: " ^ what)

(* A reader over the payload of a frame of [kind]. *)
let payload ~verify kind s =
  let off = checked_payload ~verify kind s in
  if off < 0 then fail "bad frame";
  Codec.reader_sub s ~pos:off ~len:(String.length s - off - trailer_len)

(* Every byte of the payload belongs to some field. *)
let finish r v = if Codec.at_end r then v else fail "trailing bytes"

(* ---- writing fields ----

   Each [*_length] sizes what the matching [write_*] writes; a writer
   takes the frame and a position and returns the position after what
   it wrote. *)

let nat_length = Codec.varint_length

let str_length = Codec.string_length

let write_nat = Codec.write_varint

let lsn_length l = nat_length (Lsn.to_int l)

let write_lsn l b pos = write_nat (Lsn.to_int l) b pos

let tc_length tc = nat_length (Tc_id.to_int tc)

let write_tc tc b pos = write_nat (Tc_id.to_int tc) b pos

let write_str = Codec.write_string

let write_tag c b pos =
  Bytes.unsafe_set b pos c;
  pos + 1

(* Keys are front-coded: each is the length of the prefix it shares
   with the key before it (the first with ""), the length of the rest,
   then the rest.  Keys in a list are mostly neighbours in key order, so
   most of each is shared. *)
let rec common_prefix a b n i =
  if i < n && String.unsafe_get a i = String.unsafe_get b i then
    common_prefix a b n (i + 1)
  else i

let shared_length prev k =
  let lp = String.length prev and lk = String.length k in
  common_prefix prev k (if lp < lk then lp else lk) 0

let key_length prev k =
  let shared = shared_length prev k in
  let rest = String.length k - shared in
  nat_length shared + nat_length rest + rest

let write_key prev k b pos =
  let shared = shared_length prev k in
  let rest = String.length k - shared in
  let pos = write_nat rest b (write_nat shared b pos) in
  Bytes.unsafe_blit_string k shared b pos rest;
  pos + rest

let rec keys_length prev acc = function
  | [] -> acc
  | k :: tl -> keys_length k (acc + key_length prev k) tl

(* A key list: its count, then each key. *)
let list_length ks = keys_length "" (nat_length (List.length ks)) ks

let rec write_keys prev ks b pos =
  match ks with
  | [] -> pos
  | k :: tl -> write_keys k tl b (write_key prev k b pos)

let write_list ks b pos = write_keys "" ks b (write_nat (List.length ks) b pos)

let mode_tag = function Op.Own -> 'o' | Op.Committed -> 'c' | Op.Dirty -> 'd'

let op_length = function
  | Op.Insert { table; key; value } | Op.Update { table; key; value } ->
    1 + str_length table + str_length key + str_length value
  | Op.Delete { table; key } -> 1 + str_length table + str_length key
  | Op.Read { table; key; _ } -> 2 + str_length table + str_length key
  | Op.Scan { table; from_key; limit; _ } ->
    2 + str_length table + str_length from_key + nat_length limit
  | Op.Probe { table; from_key; limit } | Op.Fetch { table; from_key; limit }
    ->
    1 + str_length table + str_length from_key + nat_length limit
  | Op.Commit_versions { table; keys } | Op.Abort_versions { table; keys } ->
    1 + str_length table + list_length keys

let write_op op b pos =
  match op with
  | Op.Insert { table; key; value } ->
    let pos = write_str table b (write_tag 'I' b pos) in
    write_str value b (write_str key b pos)
  | Op.Update { table; key; value } ->
    let pos = write_str table b (write_tag 'U' b pos) in
    write_str value b (write_str key b pos)
  | Op.Delete { table; key } ->
    write_str key b (write_str table b (write_tag 'D' b pos))
  | Op.Read { table; key; mode } ->
    let pos = write_str table b (write_tag 'R' b pos) in
    write_tag (mode_tag mode) b (write_str key b pos)
  | Op.Scan { table; from_key; limit; mode } ->
    let pos = write_str table b (write_tag 'S' b pos) in
    let pos = write_nat limit b (write_str from_key b pos) in
    write_tag (mode_tag mode) b pos
  | Op.Probe { table; from_key; limit } ->
    let pos = write_str table b (write_tag 'P' b pos) in
    write_nat limit b (write_str from_key b pos)
  | Op.Fetch { table; from_key; limit } ->
    let pos = write_str table b (write_tag 'F' b pos) in
    write_nat limit b (write_str from_key b pos)
  | Op.Commit_versions { table; keys } ->
    write_list keys b (write_str table b (write_tag 'V' b pos))
  | Op.Abort_versions { table; keys } ->
    write_list keys b (write_str table b (write_tag 'A' b pos))

(* Scan pairs: each a front-coded key, then its value. *)
let rec pairs_length prev acc = function
  | [] -> acc
  | (k, v) :: tl -> pairs_length k (acc + key_length prev k + str_length v) tl

let rec write_pairs prev ps b pos =
  match ps with
  | [] -> pos
  | (k, v) :: tl -> write_pairs k tl b (write_str v b (write_key prev k b pos))

let result_length = function
  | Done -> 1
  | Value None -> 2
  | Value (Some v) -> 2 + str_length v
  | Pairs ps -> 1 + pairs_length "" (nat_length (List.length ps)) ps
  | Next_keys ks -> 1 + list_length ks
  | Window { rows; hidden } ->
    1
    + pairs_length "" (nat_length (List.length rows)) rows
    + list_length hidden
  | Failed m -> 1 + str_length m

let write_result result b pos =
  match result with
  | Done -> write_tag 'D' b pos
  | Value None -> write_tag '\000' b (write_tag 'V' b pos)
  | Value (Some v) -> write_str v b (write_tag '\001' b (write_tag 'V' b pos))
  | Pairs ps ->
    write_pairs "" ps b (write_nat (List.length ps) b (write_tag 'P' b pos))
  | Next_keys ks -> write_list ks b (write_tag 'N' b pos)
  | Window { rows; hidden } ->
    let pos = write_nat (List.length rows) b (write_tag 'W' b pos) in
    write_list hidden b (write_pairs "" rows b pos)
  | Failed m -> write_str m b (write_tag 'F' b pos)

(* Batch entries — a redo batch's operations, its reply's outcomes, a
   ship's records — are each an LSN, then the entry. *)
let rec entries_length length acc = function
  | [] -> acc
  | (lsn, v) :: tl ->
    entries_length length (acc + lsn_length lsn + length v) tl

let rec write_entries write es b pos =
  match es with
  | [] -> pos
  | (lsn, v) :: tl ->
    write_entries write tl b (write v b (write_lsn lsn b pos))

(* A counted entry list. *)
let batch_length length es =
  entries_length length (nat_length (List.length es)) es

let write_batch write es b pos =
  write_entries write es b (write_nat (List.length es) b pos)

(* ---- reading fields ---- *)

let read_nat = Codec.next_varint

let read_lsn r = Lsn.of_int (Codec.next_varint r)

let read_tc r = Tc_id.of_int (Codec.next_varint r)

let read_str = Codec.next_string

(* A list's count.  Every element takes at least a byte, so a count
   beyond the bytes left is malformed. *)
let read_count r =
  let n = Codec.next_varint r in
  if n > Codec.remaining r then fail "count beyond the payload";
  n

(* A front-coded key after [prev], accepted only in the form
   [write_key] writes: its shared length is at most [prev]'s and
   maximal, so the rest does not open with [prev]'s next byte. *)
let read_key r prev =
  let shared = read_nat r in
  let k = Codec.next_extension r prev shared in
  if
    shared < String.length prev
    && shared < String.length k
    && String.unsafe_get k shared = String.unsafe_get prev shared
  then fail "shared prefix not maximal";
  k

let[@tail_mod_cons] rec read_keys r prev n =
  if n = 0 then []
  else
    let k = read_key r prev in
    k :: read_keys r k (n - 1)

let read_list r = read_keys r "" (read_count r)

let read_mode r =
  match Codec.next_byte r with
  | 'o' -> Op.Own
  | 'c' -> Op.Committed
  | 'd' -> Op.Dirty
  | _ -> fail "bad read mode"

let read_op r =
  match Codec.next_byte r with
  | 'I' ->
    let table = read_str r in
    let key = read_str r in
    let value = read_str r in
    Op.Insert { table; key; value }
  | 'U' ->
    let table = read_str r in
    let key = read_str r in
    let value = read_str r in
    Op.Update { table; key; value }
  | 'D' ->
    let table = read_str r in
    let key = read_str r in
    Op.Delete { table; key }
  | 'R' ->
    let table = read_str r in
    let key = read_str r in
    let mode = read_mode r in
    Op.Read { table; key; mode }
  | 'S' ->
    let table = read_str r in
    let from_key = read_str r in
    let limit = read_nat r in
    let mode = read_mode r in
    Op.Scan { table; from_key; limit; mode }
  | 'P' ->
    let table = read_str r in
    let from_key = read_str r in
    let limit = read_nat r in
    Op.Probe { table; from_key; limit }
  | 'F' ->
    let table = read_str r in
    let from_key = read_str r in
    let limit = read_nat r in
    Op.Fetch { table; from_key; limit }
  | 'V' ->
    let table = read_str r in
    Op.Commit_versions { table; keys = read_list r }
  | 'A' ->
    let table = read_str r in
    Op.Abort_versions { table; keys = read_list r }
  | _ -> fail "bad operation"

let[@tail_mod_cons] rec read_pairs r prev n =
  if n = 0 then []
  else
    let k = read_key r prev in
    let v = read_str r in
    (k, v) :: read_pairs r k (n - 1)

(* A window holds each of its keys once, in key order: its rows' keys
   and its hidden keys each ascend strictly, and no hidden key is also a
   row's, so a window has one encoding. *)
let rec ascending key = function
  | a :: (b :: _ as tl) ->
    String.compare (key a) (key b) < 0 && ascending key tl
  | [] | [ _ ] -> true

let rec disjoint rows hidden =
  match (rows, hidden) with
  | [], _ | _, [] -> true
  | (k, _) :: rs, h :: hs ->
    let c = String.compare k h in
    c <> 0 && if c < 0 then disjoint rs hidden else disjoint rows hs

let read_window r =
  let rows = read_pairs r "" (read_count r) in
  let hidden = read_list r in
  if not (ascending fst rows && ascending Fun.id hidden) then
    fail "window keys out of order";
  if not (disjoint rows hidden) then fail "hidden key is a row";
  Window { rows; hidden }

let read_result r =
  match Codec.next_byte r with
  | 'D' -> Done
  | 'V' -> (
    match Codec.next_byte r with
    | '\000' -> Value None
    | '\001' -> Value (Some (read_str r))
    | _ -> fail "bad option")
  | 'P' -> Pairs (read_pairs r "" (read_count r))
  | 'N' -> Next_keys (read_list r)
  | 'W' -> read_window r
  | 'F' -> Failed (read_str r)
  | _ -> fail "bad result"

let[@tail_mod_cons] rec read_entries read r n =
  if n = 0 then []
  else
    let lsn = read_lsn r in
    let v = read r in
    (lsn, v) :: read_entries read r (n - 1)

let read_batch read r = read_entries read r (read_count r)

(* ---- requests and replies ----

   A data payload opens with 'S' (a single request or reply) or 'B' (a
   redo batch or its reply). *)

let request_length { tc; lsn; part; op } =
  1 + tc_length tc + lsn_length lsn + nat_length part + op_length op

let encode_request ?(tid = 0) = function
  | Request ({ tc; lsn; part; op } as req) ->
    let len = request_length req in
    let b = frame_bytes tid len in
    let pos = write_tag 'S' b (open_frame b tid 'Q' len) in
    let pos = write_tc tc b pos in
    let pos = write_nat part b (write_lsn lsn b pos) in
    seal b (write_op op b pos)
  | Redo_batch { tc; part; ops } ->
    let len =
      1 + tc_length tc + nat_length part + batch_length op_length ops
    in
    let b = frame_bytes tid len in
    let pos = write_tag 'B' b (open_frame b tid 'Q' len) in
    let pos = write_nat part b (write_tc tc b pos) in
    seal b (write_batch write_op ops b pos)

let decode_request_from ~verify s =
  let r = payload ~verify 'Q' s in
  match Codec.next_byte r with
  | 'S' ->
    let tc = read_tc r in
    let lsn = read_lsn r in
    let part = read_nat r in
    let op = read_op r in
    finish r (Request { tc; lsn; part; op })
  | 'B' ->
    let tc = read_tc r in
    let part = read_nat r in
    let ops = read_batch read_op r in
    finish r (Redo_batch { tc; part; ops })
  | _ -> fail "bad request"

let encode_reply ?(tid = 0) = function
  | Reply { tc; lsn; result } ->
    let len = 1 + tc_length tc + lsn_length lsn + result_length result in
    let b = frame_bytes tid len in
    let pos = write_tag 'S' b (open_frame b tid 'R' len) in
    let pos = write_lsn lsn b (write_tc tc b pos) in
    seal b (write_result result b pos)
  | Redo_batch_reply { tc; outcomes } ->
    let len = 1 + tc_length tc + batch_length result_length outcomes in
    let b = frame_bytes tid len in
    let pos = write_tc tc b (write_tag 'B' b (open_frame b tid 'R' len)) in
    seal b (write_batch write_result outcomes b pos)

let decode_reply_from ~verify s =
  let r = payload ~verify 'R' s in
  match Codec.next_byte r with
  | 'S' ->
    let tc = read_tc r in
    let lsn = read_lsn r in
    let result = read_result r in
    finish r (Reply { tc; lsn; result })
  | 'B' ->
    let tc = read_tc r in
    let outcomes = read_batch read_result r in
    finish r (Redo_batch_reply { tc; outcomes })
  | _ -> fail "bad reply"

(* ---- control ---- *)

(* A control message is its tag, its tc, then its LSNs.  Watermarks
   write only their non-zero marks (a zero mark claims nothing): 'E'
   eosl when the lwm is zero, 'L' lwm when the eosl is zero, 'W' both
   otherwise. *)
let control_length ctl =
  1
  + tc_length (control_tc ctl)
  +
  match ctl with
  | Watermarks { eosl; lwm; _ } when Lsn.equal lwm Lsn.zero -> lsn_length eosl
  | Watermarks { eosl; lwm; _ } when Lsn.equal eosl Lsn.zero -> lsn_length lwm
  | Watermarks { eosl; lwm; _ } -> lsn_length eosl + lsn_length lwm
  | Checkpoint { new_rssp = l; _ } | Restart_begin { stable_lsn = l; _ } ->
    lsn_length l
  | Redo_fence_begin _ | Redo_fence_end _ -> 0

let write_control_head tag tc b pos =
  write_tc tc b (write_tag tag b pos)

let write_control ctl b pos =
  match ctl with
  | Watermarks { tc; eosl; lwm } when Lsn.equal lwm Lsn.zero ->
    write_lsn eosl b (write_control_head 'E' tc b pos)
  | Watermarks { tc; eosl; lwm } when Lsn.equal eosl Lsn.zero ->
    write_lsn lwm b (write_control_head 'L' tc b pos)
  | Watermarks { tc; eosl; lwm } ->
    write_lsn lwm b (write_lsn eosl b (write_control_head 'W' tc b pos))
  | Checkpoint { tc; new_rssp } ->
    write_lsn new_rssp b (write_control_head 'C' tc b pos)
  | Restart_begin { tc; stable_lsn } ->
    write_lsn stable_lsn b (write_control_head 'R' tc b pos)
  | Redo_fence_begin { tc } -> write_control_head 'F' tc b pos
  | Redo_fence_end { tc } -> write_control_head 'f' tc b pos

let encode_control ?(tid = 0) { c_epoch; c_seq; c_ctl } =
  let len = nat_length c_epoch + nat_length c_seq + control_length c_ctl in
  let b = frame_bytes tid len in
  let pos = open_frame b tid 'C' len in
  let pos = write_nat c_seq b (write_nat c_epoch b pos) in
  seal b (write_control c_ctl b pos)

let read_control r =
  match Codec.next_byte r with
  | 'E' ->
    let tc = read_tc r in
    Watermarks { tc; eosl = read_lsn r; lwm = Lsn.zero }
  | 'L' ->
    let tc = read_tc r in
    let lwm = read_lsn r in
    if Lsn.equal lwm Lsn.zero then fail "zero lwm";
    Watermarks { tc; eosl = Lsn.zero; lwm }
  | 'W' ->
    let tc = read_tc r in
    let eosl = read_lsn r in
    let lwm = read_lsn r in
    if Lsn.equal eosl Lsn.zero || Lsn.equal lwm Lsn.zero then
      fail "zero watermark";
    Watermarks { tc; eosl; lwm }
  | 'C' ->
    let tc = read_tc r in
    Checkpoint { tc; new_rssp = read_lsn r }
  | 'R' ->
    let tc = read_tc r in
    Restart_begin { tc; stable_lsn = read_lsn r }
  | 'F' -> Redo_fence_begin { tc = read_tc r }
  | 'f' -> Redo_fence_end { tc = read_tc r }
  | _ -> fail "bad control"

let decode_control_from ~verify s =
  let r = payload ~verify 'C' s in
  let c_epoch = read_nat r in
  let c_seq = read_nat r in
  let c_ctl = read_control r in
  finish r { c_epoch; c_seq; c_ctl }

(* An acknowledgement — a control or a repl reply — is the tc, epoch
   and seq it answers, then the reply. *)
let ack_length tc epoch seq =
  tc_length tc + nat_length epoch + nat_length seq

let write_ack tc epoch seq b pos =
  let pos = write_tc tc b pos in
  write_nat seq b (write_nat epoch b pos)

let encode_control_reply ?(tid = 0) { r_tc; r_epoch; r_seq; r_reply } =
  let len =
    ack_length r_tc r_epoch r_seq
    + match r_reply with Ack -> 1 | Checkpoint_done _ -> 2
  in
  let b = frame_bytes tid len in
  let pos = write_ack r_tc r_epoch r_seq b (open_frame b tid 'K' len) in
  seal b
    (match r_reply with
    | Ack -> write_tag 'A' b pos
    | Checkpoint_done { granted } ->
      write_tag (if granted then '\001' else '\000') b (write_tag 'G' b pos))

let decode_control_reply_from ~verify s =
  let r = payload ~verify 'K' s in
  let r_tc = read_tc r in
  let r_epoch = read_nat r in
  let r_seq = read_nat r in
  let r_reply =
    match Codec.next_byte r with
    | 'A' -> Ack
    | 'G' -> (
      match Codec.next_byte r with
      | '\000' -> Checkpoint_done { granted = false }
      | '\001' -> Checkpoint_done { granted = true }
      | _ -> fail "bad grant")
    | _ -> fail "bad control reply"
  in
  finish r { r_tc; r_epoch; r_seq; r_reply }

(* ---- replication ---- *)

(* A repl message opens with its epoch, seq, tag and tc. *)
let write_repl_head epoch seq tag tc b pos =
  let pos = write_nat seq b (write_nat epoch b pos) in
  write_tc tc b (write_tag tag b pos)

let encode_repl ?(tid = 0) { p_epoch; p_seq; p_repl } =
  let head =
    nat_length p_epoch + nat_length p_seq + 1 + tc_length (repl_tc p_repl)
  in
  match p_repl with
  | Repl_hello { tc } ->
    let b = frame_bytes tid head in
    seal b (write_repl_head p_epoch p_seq 'H' tc b (open_frame b tid 'S' head))
  | Repl_ship { tc; eosl; lwm; upto; ops } ->
    let len =
      head + lsn_length eosl + lsn_length lwm + lsn_length upto
      + batch_length op_length ops
    in
    let b = frame_bytes tid len in
    let pos = open_frame b tid 'S' len in
    let pos = write_repl_head p_epoch p_seq 'S' tc b pos in
    let pos = write_lsn lwm b (write_lsn eosl b pos) in
    let pos = write_lsn upto b pos in
    seal b (write_batch write_op ops b pos)

let decode_repl_from ~verify s =
  let r = payload ~verify 'S' s in
  let p_epoch = read_nat r in
  let p_seq = read_nat r in
  let p_repl =
    match Codec.next_byte r with
    | 'H' -> Repl_hello { tc = read_tc r }
    | 'S' ->
      let tc = read_tc r in
      let eosl = read_lsn r in
      let lwm = read_lsn r in
      let upto = read_lsn r in
      let ops = read_batch read_op r in
      Repl_ship { tc; eosl; lwm; upto; ops }
    | _ -> fail "bad repl"
  in
  finish r { p_epoch; p_seq; p_repl }

let encode_repl_reply ?(tid = 0)
    { q_tc; q_epoch; q_seq; q_reply = Repl_ack { applied } } =
  let len = ack_length q_tc q_epoch q_seq + 1 + lsn_length applied in
  let b = frame_bytes tid len in
  let pos = open_frame b tid 'T' len in
  let pos = write_tag 'A' b (write_ack q_tc q_epoch q_seq b pos) in
  seal b (write_lsn applied b pos)

let decode_repl_reply_from ~verify s =
  let r = payload ~verify 'T' s in
  let q_tc = read_tc r in
  let q_epoch = read_nat r in
  let q_seq = read_nat r in
  match Codec.next_byte r with
  | 'A' ->
    let applied = read_lsn r in
    finish r { q_tc; q_epoch; q_seq; q_reply = Repl_ack { applied } }
  | _ -> fail "bad repl reply"

let decode_request = decode_request_from ~verify:true

let decode_reply = decode_reply_from ~verify:true

let decode_control = decode_control_from ~verify:true

let decode_control_reply = decode_control_reply_from ~verify:true

let decode_repl = decode_repl_from ~verify:true

let decode_repl_reply = decode_repl_reply_from ~verify:true

(* The receiving edge checksums each frame once ([frame_ok]); what it
   hands on is decoded here without hashing it again. *)
module Verified = struct
  let decode_request = decode_request_from ~verify:false

  let decode_reply = decode_reply_from ~verify:false

  let decode_control = decode_control_from ~verify:false

  let decode_control_reply = decode_control_reply_from ~verify:false

  let decode_repl = decode_repl_from ~verify:false

  let decode_repl_reply = decode_repl_reply_from ~verify:false

  let tid s = Int.max 0 (header_tid s)
end

(* The real size of an untraced request on the wire — what the
   transport's byte accounting charges, not an estimate. *)
let request_size r =
  let len = request_length r in
  header_length 0 len + len + trailer_len

let pp_control ppf = function
  | Watermarks { tc; eosl; lwm } ->
    Format.fprintf ppf "watermarks %a eosl=%a lwm=%a" Tc_id.pp tc Lsn.pp eosl
      Lsn.pp lwm
  | Checkpoint { tc; new_rssp } ->
    Format.fprintf ppf "checkpoint %a rssp=%a" Tc_id.pp tc Lsn.pp new_rssp
  | Restart_begin { tc; stable_lsn } ->
    Format.fprintf ppf "restart-begin %a stable=%a" Tc_id.pp tc Lsn.pp
      stable_lsn
  | Redo_fence_begin { tc } ->
    Format.fprintf ppf "redo-fence-begin %a" Tc_id.pp tc
  | Redo_fence_end { tc } -> Format.fprintf ppf "redo-fence-end %a" Tc_id.pp tc
