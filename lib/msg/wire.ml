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
type reply = { tc : Tc_id.t; lsn : Lsn.t; result : result; prior : Op.value option }

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
   written. *)
let fnv32 b lo hi =
  let h = ref 0x811c9dc5 in
  for i = lo to hi - 1 do
    h := !h lxor Char.code (Bytes.unsafe_get b i);
    h := !h * 0x01000193 land 0xFFFFFFFF
  done;
  !h

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
   trailer. *)
let frame ?(tid = 0) kind fields =
  let len = Codec.encoded_length fields in
  let b = Bytes.create (header_len + len + trailer_len) in
  Bytes.set b 0 kind;
  put_u32 b 1 (tid land 0xFFFFFFFF);
  put_u32 b 5 len;
  Codec.write fields b header_len;
  put_u32 b (header_len + len) (fnv32 b 0 (header_len + len));
  Bytes.unsafe_to_string b

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

(* The payload's fields, decoded in place from the frame. *)
let unframe ~verify kind s =
  match frame_kind ~verify s with
  | Some k when k = kind ->
    Codec.decode_sub s ~pos:header_len ~len:(get_u32 s 5)
  | _ -> invalid_arg "Wire: bad frame"

(* ---- field helpers ---- *)

let int_field = Codec.encode_int

let int_of_field f =
  match Codec.decode_int f with
  | i when i >= 0 -> i
  | _ | (exception Invalid_argument _) -> invalid_arg "Wire: bad int field"

let lsn_of_field f = Lsn.of_int (int_of_field f)

let tc_of_field f = Tc_id.of_int (int_of_field f)

let opt_field = function None -> "-" | Some v -> "+" ^ v

let opt_of_field f =
  if String.equal f "-" then None
  else if String.length f >= 1 && f.[0] = '+' then
    Some (String.sub f 1 (String.length f - 1))
  else invalid_arg "Wire: bad option field"

(* ---- requests ---- *)

let encode_request ?tid { tc; lsn; part; op } =
  frame ?tid 'Q'
    (int_field (Tc_id.to_int tc)
     :: int_field (Lsn.to_int lsn)
     :: int_field part
     :: Op.to_fields op)

let decode_request_from ~verify s =
  match unframe ~verify `Request s with
  | tc :: lsn :: part :: op_fields ->
    {
      tc = tc_of_field tc;
      lsn = lsn_of_field lsn;
      part = int_of_field part;
      op = Op.of_fields op_fields;
    }
  | _ -> invalid_arg "Wire.decode_request"

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

let encode_reply ?tid { tc; lsn; result; prior } =
  frame ?tid 'R'
    (int_field (Tc_id.to_int tc)
     :: int_field (Lsn.to_int lsn)
     :: opt_field prior :: result_fields result)

let decode_reply_from ~verify s =
  match unframe ~verify `Reply s with
  | tc :: lsn :: prior :: rest ->
    {
      tc = tc_of_field tc;
      lsn = lsn_of_field lsn;
      prior = opt_of_field prior;
      result = result_of_fields rest;
    }
  | _ -> invalid_arg "Wire.decode_reply"

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
let request_size r = String.length (encode_request r)

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
