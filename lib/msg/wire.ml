module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Codec = Untx_util.Codec

type request = { tc : Tc_id.t; lsn : Lsn.t; part : int; op : Op.t }

type result =
  | Done
  | Value of Op.value option
  | Pairs of (Op.key * Op.value) list
  | Next_keys of Op.key list
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
  | End_of_stable_log of { tc : Tc_id.t; eosl : Lsn.t }
  | Low_water_mark of { tc : Tc_id.t; lwm : Lsn.t }
  | Watermarks of { tc : Tc_id.t; eosl : Lsn.t; lwm : Lsn.t }
  | Checkpoint of { tc : Tc_id.t; new_rssp : Lsn.t }
  | Restart_begin of { tc : Tc_id.t; stable_lsn : Lsn.t }
  | Restart_end of { tc : Tc_id.t }
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
  | End_of_stable_log { tc; _ }
  | Low_water_mark { tc; _ }
  | Watermarks { tc; _ }
  | Checkpoint { tc; _ }
  | Restart_begin { tc; _ }
  | Restart_end { tc }
  | Redo_fence_begin { tc }
  | Redo_fence_end { tc } -> tc

(* ------------------------------------------------------------------ *)
(* Frames.

   Layout: 1 kind byte, 4-byte big-endian trace id, 4-byte big-endian
   payload length, payload, 4-byte big-endian FNV-1a checksum over
   everything before it.  The payload is a {!Untx_util.Codec} field
   list, so the whole frame is binary-safe and self-delimiting; any
   mutation — including one that lands on the trace id — is caught by
   the structure checks or the checksum and surfaces as
   [Invalid_argument].  Trace id 0 means "untraced". *)

let header_len = 9

let trailer_len = 4

(* Over bytes, so a frame under construction is hashed where it sits; a
   received string is read through [Bytes.unsafe_of_string], never
   written.  The hash runs in an unboxed [Int64] (the compiler keeps the
   local reference in a register), which saves the tagging arithmetic a
   tagged int pays per byte, and is reduced to 32 bits once at the end:
   the low 32 bits of an xor and a product depend only on the low 32
   bits of their operands. *)
let fnv32 b lo hi =
  let h = ref 0x811c9dc5L in
  for i = lo to hi - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        0x01000193L
  done;
  Int64.to_int !h land 0xFFFFFFFF

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

(* The payload is encoded straight into the frame, between header and
   trailer: [open_frame] makes the frame with its header, the caller
   writes the [len]-byte payload from [header_len], [seal] adds the
   checksum. *)
let open_frame ?(tid = 0) kind len =
  let b = Bytes.create (header_len + len + trailer_len) in
  Bytes.set b 0 kind;
  put_u32 b 1 (tid land 0xFFFFFFFF);
  put_u32 b 5 len;
  b

let seal b len =
  put_u32 b (header_len + len) (fnv32 b 0 (header_len + len));
  Bytes.unsafe_to_string b

let frame ?tid kind fields =
  let len = Codec.encoded_length fields in
  let b = open_frame ?tid kind len in
  ignore (Codec.write fields b header_len);
  seal b len

(* The frame's kind if its shape holds — and, with [verify], its
   checksum too.  Only a frame that already passed [frame_ok] may skip
   the checksum. *)
let frame_kind ~verify s =
  let n = String.length s in
  if n < header_len + trailer_len then None
  else
    let len = get_u32 s 5 in
    if n <> header_len + len + trailer_len then None
    else if
      verify
      && get_u32 s (header_len + len)
         <> fnv32 (Bytes.unsafe_of_string s) 0 (header_len + len)
    then
      None
    else
      match s.[0] with
      | 'Q' -> Some `Request
      | 'R' -> Some `Reply
      | 'C' -> Some `Control
      | 'K' -> Some `Control_reply
      | 'S' -> Some `Repl
      | 'T' -> Some `Repl_reply
      | _ -> None

let frame_ok s = frame_kind ~verify:true s <> None

(* Validates the whole frame first: a corrupted trace id fails the
   checksum and reads as 0 ("untraced") rather than as some other
   operation's id. *)
let frame_tid s = if frame_ok s then get_u32 s 1 else 0

(* The payload length of a frame of [kind]. *)
let payload_len ~verify kind s =
  match frame_kind ~verify s with
  | Some k when k = kind -> get_u32 s 5
  | _ -> invalid_arg "Wire: bad frame"

(* The payload's fields, decoded in place from the frame. *)
let unframe ~verify kind s =
  Codec.decode_sub s ~pos:header_len ~len:(payload_len ~verify kind s)

(* A data frame's payload: a redo batch's, read field by field where it
   sits after its "B" tag, or a single request's or reply's field list
   (which opens with its tc, an integer field). *)
let unframe_data ~verify kind s =
  let len = payload_len ~verify kind s in
  if
    len >= 3
    && s.[header_len] = '1'
    && s.[header_len + 1] = ':'
    && s.[header_len + 2] = 'B'
  then `Batch (Codec.reader_sub s ~pos:(header_len + 3) ~len:(len - 3))
  else `Fields (Codec.decode_sub s ~pos:header_len ~len)

(* ---- field helpers ---- *)

let int_field = Codec.encode_int

let int_of_field f =
  match Codec.decode_int f with
  | i when i >= 0 -> i
  | _ | (exception Invalid_argument _) -> invalid_arg "Wire: bad int field"

let lsn_of_field f = Lsn.of_int (int_of_field f)

let tc_of_field f = Tc_id.of_int (int_of_field f)

let read_nat r =
  match Codec.read_int r with
  | i when i >= 0 -> i
  | _ -> invalid_arg "Wire: bad int field"

let read_lsn r = Lsn.of_int (read_nat r)

(* The next [n] fields, in order. *)
let[@tail_mod_cons] rec read_fields r n =
  if n = 0 then []
  else
    let f = Codec.read_string r in
    f :: read_fields r (n - 1)

let opt_field = function None -> "-" | Some v -> "+" ^ v

let opt_of_field f =
  if String.equal f "-" then None
  else if String.length f >= 1 && f.[0] = '+' then
    Some (String.sub f 1 (String.length f - 1))
  else invalid_arg "Wire: bad option field"

(* ---- requests ---- *)

(* A single operation's payload starts with its tc, an integer; a redo
   batch's starts with the tag "B", which no integer field can be.  Each
   batched operation is its LSN, its field count, then its fields, so
   the run stays one flat field list.  A batch is written straight into
   its frame: one pass sizes it, a second writes it. *)
let batch_tag = [ "B" ]

(* A batch entry: an LSN, the count of [fields], then [fields]. *)
let entry_length lsn fields =
  Codec.int_length (Lsn.to_int lsn)
  + Codec.int_length (List.length fields)
  + Codec.encoded_length fields

let write_entry b pos lsn fields =
  let pos = Codec.write_int (Lsn.to_int lsn) b pos in
  let pos = Codec.write_int (List.length fields) b pos in
  Codec.write fields b pos

(* A batch frame: the tag, [head] (integer fields), then one entry per
   [(lsn, fields)] of [entries]. *)
let batch_frame ?tid kind head entries =
  let len =
    List.fold_left
      (fun acc (lsn, fields) -> acc + entry_length lsn fields)
      (List.fold_left
         (fun acc i -> acc + Codec.int_length i)
         (Codec.encoded_length batch_tag) head)
      entries
  in
  let b = open_frame ?tid kind len in
  let pos = Codec.write batch_tag b header_len in
  let pos = List.fold_left (fun pos i -> Codec.write_int i b pos) pos head in
  ignore
    (List.fold_left
       (fun pos (lsn, fields) -> write_entry b pos lsn fields)
       pos entries);
  seal b len

let encode_request ?tid = function
  | Request { tc; lsn; part; op } ->
    frame ?tid 'Q'
      (int_field (Tc_id.to_int tc)
       :: int_field (Lsn.to_int lsn)
       :: int_field part
       :: Op.to_fields op)
  | Redo_batch { tc; part; ops } ->
    batch_frame ?tid 'Q' [ Tc_id.to_int tc; part ]
      (List.map (fun (lsn, op) -> (lsn, Op.to_fields op)) ops)

(* A batch's entries: each an LSN, a field count, then that many
   fields, parsed by [of_fields]. *)
let[@tail_mod_cons] rec read_batch_ops r =
  if Codec.at_end r then []
  else
    let lsn = read_lsn r in
    let n = read_nat r in
    let op = Op.of_fields (read_fields r n) in
    (lsn, op) :: read_batch_ops r

let decode_request_from ~verify s =
  match unframe_data ~verify `Request s with
  | `Batch r ->
    let tc = Tc_id.of_int (read_nat r) in
    let part = read_nat r in
    Redo_batch { tc; part; ops = read_batch_ops r }
  | `Fields (tc :: lsn :: part :: op_fields) ->
    Request
      {
        tc = tc_of_field tc;
        lsn = lsn_of_field lsn;
        part = int_of_field part;
        op = Op.of_fields op_fields;
      }
  | `Fields _ -> invalid_arg "Wire.decode_request"

(* ---- replies ---- *)

let[@tail_mod_cons] rec pair_fields = function
  | [] -> []
  | (k, v) :: tl -> k :: v :: pair_fields tl

let result_fields = function
  | Done -> [ "D" ]
  | Value v -> [ "V"; opt_field v ]
  | Pairs ps -> "P" :: pair_fields ps
  | Next_keys ks -> "N" :: ks
  | Failed m -> [ "F"; m ]

let result_of_fields = function
  | [ "D" ] -> Done
  | [ "V"; v ] -> Value (opt_of_field v)
  | "P" :: rest ->
    let rec pairs = function
      | [] -> []
      | k :: v :: tl -> (k, v) :: pairs tl
      | [ _ ] -> invalid_arg "Wire: odd pair list"
    in
    Pairs (pairs rest)
  | "N" :: ks -> Next_keys ks
  | [ "F"; m ] -> Failed m
  | _ -> invalid_arg "Wire: bad result"

(* A batch reply entry is the operation's LSN, then its result's
   fields, counted. *)
let encode_reply ?tid = function
  | Reply { tc; lsn; result } ->
    frame ?tid 'R'
      (int_field (Tc_id.to_int tc)
       :: int_field (Lsn.to_int lsn)
       :: result_fields result)
  | Redo_batch_reply { tc; outcomes } ->
    batch_frame ?tid 'R' [ Tc_id.to_int tc ]
      (List.map (fun (lsn, result) -> (lsn, result_fields result)) outcomes)

let[@tail_mod_cons] rec read_outcomes r =
  if Codec.at_end r then []
  else
    let lsn = read_lsn r in
    let n = read_nat r in
    let outcome = (lsn, result_of_fields (read_fields r n)) in
    outcome :: read_outcomes r

let decode_reply_from ~verify s =
  match unframe_data ~verify `Reply s with
  | `Batch r ->
    let tc = Tc_id.of_int (read_nat r) in
    Redo_batch_reply { tc; outcomes = read_outcomes r }
  | `Fields (tc :: lsn :: rest) ->
    Reply
      {
        tc = tc_of_field tc;
        lsn = lsn_of_field lsn;
        result = result_of_fields rest;
      }
  | `Fields _ -> invalid_arg "Wire.decode_reply"

(* ---- control ---- *)

let control_fields ctl =
  let tc_f tc = int_field (Tc_id.to_int tc) in
  let lsn_f l = int_field (Lsn.to_int l) in
  match ctl with
  | End_of_stable_log { tc; eosl } -> [ "E"; tc_f tc; lsn_f eosl ]
  | Low_water_mark { tc; lwm } -> [ "L"; tc_f tc; lsn_f lwm ]
  | Watermarks { tc; eosl; lwm } -> [ "W"; tc_f tc; lsn_f eosl; lsn_f lwm ]
  | Checkpoint { tc; new_rssp } -> [ "C"; tc_f tc; lsn_f new_rssp ]
  | Restart_begin { tc; stable_lsn } -> [ "RB"; tc_f tc; lsn_f stable_lsn ]
  | Restart_end { tc } -> [ "RE"; tc_f tc ]
  | Redo_fence_begin { tc } -> [ "FB"; tc_f tc ]
  | Redo_fence_end { tc } -> [ "FE"; tc_f tc ]

let control_of_fields = function
  | [ "E"; tc; eosl ] ->
    End_of_stable_log { tc = tc_of_field tc; eosl = lsn_of_field eosl }
  | [ "L"; tc; lwm ] ->
    Low_water_mark { tc = tc_of_field tc; lwm = lsn_of_field lwm }
  | [ "W"; tc; eosl; lwm ] ->
    Watermarks
      { tc = tc_of_field tc; eosl = lsn_of_field eosl; lwm = lsn_of_field lwm }
  | [ "C"; tc; rssp ] ->
    Checkpoint { tc = tc_of_field tc; new_rssp = lsn_of_field rssp }
  | [ "RB"; tc; stable ] ->
    Restart_begin { tc = tc_of_field tc; stable_lsn = lsn_of_field stable }
  | [ "RE"; tc ] -> Restart_end { tc = tc_of_field tc }
  | [ "FB"; tc ] -> Redo_fence_begin { tc = tc_of_field tc }
  | [ "FE"; tc ] -> Redo_fence_end { tc = tc_of_field tc }
  | _ -> invalid_arg "Wire: bad control"

let encode_control ?tid { c_epoch; c_seq; c_ctl } =
  frame ?tid 'C'
    (int_field c_epoch :: int_field c_seq :: control_fields c_ctl)

let decode_control_from ~verify s =
  match unframe ~verify `Control s with
  | epoch :: seq :: rest ->
    {
      c_epoch = int_of_field epoch;
      c_seq = int_of_field seq;
      c_ctl = control_of_fields rest;
    }
  | _ -> invalid_arg "Wire.decode_control"

let control_reply_fields = function
  | Ack -> [ "A" ]
  | Checkpoint_done { granted } -> [ "G"; (if granted then "1" else "0") ]

let control_reply_of_fields = function
  | [ "A" ] -> Ack
  | [ "G"; "1" ] -> Checkpoint_done { granted = true }
  | [ "G"; "0" ] -> Checkpoint_done { granted = false }
  | _ -> invalid_arg "Wire: bad control reply"

let encode_control_reply ?tid { r_tc; r_epoch; r_seq; r_reply } =
  frame ?tid 'K'
    (int_field (Tc_id.to_int r_tc)
     :: int_field r_epoch :: int_field r_seq
     :: control_reply_fields r_reply)

let decode_control_reply_from ~verify s =
  match unframe ~verify `Control_reply s with
  | tc :: epoch :: seq :: rest ->
    {
      r_tc = tc_of_field tc;
      r_epoch = int_of_field epoch;
      r_seq = int_of_field seq;
      r_reply = control_reply_of_fields rest;
    }
  | _ -> invalid_arg "Wire.decode_control_reply"

(* ---- replication ---- *)

(* Each shipped record nests as one Codec blob (lsn :: op fields), so a
   batch of any size stays a flat field list at the envelope level. *)
let repl_fields = function
  | Repl_hello { tc } -> [ "H"; int_field (Tc_id.to_int tc) ]
  | Repl_ship { tc; eosl; lwm; upto; ops } ->
    "S"
    :: int_field (Tc_id.to_int tc)
    :: int_field (Lsn.to_int eosl)
    :: int_field (Lsn.to_int lwm)
    :: int_field (Lsn.to_int upto)
    :: List.map
         (fun (lsn, op) ->
           Codec.encode (int_field (Lsn.to_int lsn) :: Op.to_fields op))
         ops

let repl_of_fields = function
  | [ "H"; tc ] -> Repl_hello { tc = tc_of_field tc }
  | "S" :: tc :: eosl :: lwm :: upto :: blobs ->
    let op_of_blob blob =
      match Codec.decode blob with
      | lsn :: op_fields -> (lsn_of_field lsn, Op.of_fields op_fields)
      | [] -> invalid_arg "Wire: empty shipped record"
    in
    Repl_ship
      {
        tc = tc_of_field tc;
        eosl = lsn_of_field eosl;
        lwm = lsn_of_field lwm;
        upto = lsn_of_field upto;
        ops = List.map op_of_blob blobs;
      }
  | _ -> invalid_arg "Wire: bad repl"

let encode_repl ?tid { p_epoch; p_seq; p_repl } =
  frame ?tid 'S'
    (int_field p_epoch :: int_field p_seq :: repl_fields p_repl)

let decode_repl_from ~verify s =
  match unframe ~verify `Repl s with
  | epoch :: seq :: rest ->
    {
      p_epoch = int_of_field epoch;
      p_seq = int_of_field seq;
      p_repl = repl_of_fields rest;
    }
  | _ -> invalid_arg "Wire.decode_repl"

let repl_reply_fields = function
  | Repl_ack { applied } -> [ "A"; int_field (Lsn.to_int applied) ]

let repl_reply_of_fields = function
  | [ "A"; applied ] -> Repl_ack { applied = lsn_of_field applied }
  | _ -> invalid_arg "Wire: bad repl reply"

let encode_repl_reply ?tid { q_tc; q_epoch; q_seq; q_reply } =
  frame ?tid 'T'
    (int_field (Tc_id.to_int q_tc)
     :: int_field q_epoch :: int_field q_seq
     :: repl_reply_fields q_reply)

let decode_repl_reply_from ~verify s =
  match unframe ~verify `Repl_reply s with
  | tc :: epoch :: seq :: rest ->
    {
      q_tc = tc_of_field tc;
      q_epoch = int_of_field epoch;
      q_seq = int_of_field seq;
      q_reply = repl_reply_of_fields rest;
    }
  | _ -> invalid_arg "Wire.decode_repl_reply"

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

  let tid s = if String.length s >= header_len then get_u32 s 1 else 0
end

(* The real size of a request on the wire — what the transport's byte
   accounting charges, not an estimate. *)
let request_size r = String.length (encode_request (Request r))

let pp_control ppf = function
  | End_of_stable_log { tc; eosl } ->
    Format.fprintf ppf "eosl %a %a" Tc_id.pp tc Lsn.pp eosl
  | Low_water_mark { tc; lwm } ->
    Format.fprintf ppf "lwm %a %a" Tc_id.pp tc Lsn.pp lwm
  | Watermarks { tc; eosl; lwm } ->
    Format.fprintf ppf "watermarks %a eosl=%a lwm=%a" Tc_id.pp tc Lsn.pp eosl
      Lsn.pp lwm
  | Checkpoint { tc; new_rssp } ->
    Format.fprintf ppf "checkpoint %a rssp=%a" Tc_id.pp tc Lsn.pp new_rssp
  | Restart_begin { tc; stable_lsn } ->
    Format.fprintf ppf "restart-begin %a stable=%a" Tc_id.pp tc Lsn.pp
      stable_lsn
  | Restart_end { tc } -> Format.fprintf ppf "restart-end %a" Tc_id.pp tc
  | Redo_fence_begin { tc } ->
    Format.fprintf ppf "redo-fence-begin %a" Tc_id.pp tc
  | Redo_fence_end { tc } -> Format.fprintf ppf "redo-fence-end %a" Tc_id.pp tc
