module Kernel = Untx_kernel.Kernel
module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Stored_record = Untx_dc.Stored_record
module Wire = Untx_msg.Wire

type report = { violations : string list; redelivered : int }

let dump_all dc =
  List.map (fun table -> (table, Dc.dump_table dc table)) (Dc.table_names dc)

let check_structure dc ~stage errs =
  match Dc.check dc with
  | Ok () -> ()
  | Error msg -> errs := Printf.sprintf "structure (%s): %s" stage msg :: !errs

(* After quiesce every transaction's fate is settled, so no record may
   still carry versioning state: a leftover before-version or tombstone
   means recovery lost a Commit_versions/Abort_versions cleanup. *)
let check_versions dc errs =
  List.iter
    (fun (table, rows) ->
      List.iter
        (fun (key, (r : Stored_record.t)) ->
          if r.before <> Stored_record.Absent then
            errs :=
              Printf.sprintf "version hygiene: %s/%s still has a before-image"
                table key
              :: !errs;
          if r.deleted then
            errs :=
              Printf.sprintf "version hygiene: %s/%s is still a tombstone"
                table key
              :: !errs)
        rows)
    (dump_all dc)

let check_oracle k ~table ~expected errs =
  let tc = Kernel.tc k in
  let txn = Tc.begin_txn tc in
  (match Tc.scan tc txn ~table ~from_key:"" ~limit:max_int with
  | `Ok rows ->
    if rows <> expected then begin
      let first_diff =
        let rec go = function
          | [], [] -> "equal?!"
          | (k, v) :: _, [] -> Printf.sprintf "extra row %s=%s" k v
          | [], (k, v) :: _ -> Printf.sprintf "missing row %s=%s" k v
          | (ka, va) :: ra, (kb, vb) :: rb ->
            if ka = kb && va = vb then go (ra, rb)
            else Printf.sprintf "got %s=%s, oracle says %s=%s" ka va kb vb
        in
        go (rows, expected)
      in
      errs :=
        Printf.sprintf "oracle: scan of %s (%d rows) vs oracle (%d rows): %s"
          table (List.length rows) (List.length expected) first_diff
        :: !errs
    end
  | `Blocked ->
    errs :=
      Printf.sprintf "oracle: scan of %s blocked after quiesce" table :: !errs
  | `Fail msg ->
    errs := Printf.sprintf "oracle: scan of %s failed: %s" table msg :: !errs);
  match Tc.commit tc txn with
  | `Ok () -> ()
  | `Blocked | `Fail _ -> Tc.abort tc txn ~reason:"audit scan"

(* Structure and version hygiene of every named DC, then idempotence:
   one more recovery would resend exactly [tc]'s stable suffix from the
   redo-scan start point, each operation to the DC [dc_of] routes it to
   (the TC's map — the same map redo uses).  Deliver it straight into
   the DCs: if the abstract-LSN idempotence machinery is sound, state is
   bit-identical afterwards, and still well-formed.  Returns the number
   of operations re-delivered. *)
let check_dcs ~dcs ~tc ~dc_of errs =
  List.iter
    (fun (name, dc) ->
      check_structure dc ~stage:("post-recovery " ^ name) errs;
      check_versions dc errs)
    dcs;
  let dump () = List.map (fun (name, dc) -> (name, dump_all dc)) dcs in
  let before = dump () in
  let n = ref 0 in
  Tc.iter_stable_ops_from tc ~from:(Tc.rssp tc) (fun lsn op ->
      incr n;
      let dc = dc_of op in
      ignore (Dc.perform dc { Wire.tc = Tc.id tc; lsn; part = Dc.part dc; op }));
  if dump () <> before then
    errs :=
      Printf.sprintf
        "idempotence: re-delivering %d stable ops changed some partition" !n
      :: !errs;
  List.iter
    (fun (name, dc) ->
      check_structure dc ~stage:("post-redelivery " ^ name) errs)
    dcs;
  !n

let run k ~table ~expected =
  let errs = ref [] in
  let dc = Kernel.dc k in
  let redelivered =
    check_dcs ~dcs:[ ("dc", dc) ] ~tc:(Kernel.tc k) ~dc_of:(fun _ -> dc) errs
  in
  check_oracle k ~table ~expected errs;
  { violations = List.rev !errs; redelivered }

(* ------------------------------------------------------------------ *)
(* Partitioned deployments                                             *)

module Deploy = Untx_cloud.Deploy

(* A partitioned table's current rows, in key order, read from each
   DC's fragment directly and merged by key.  A TC-side scan would need
   cross-partition scan support, and more importantly it would not
   notice a record that the map says belongs to DC1 but ended up (only)
   on DC2: such a record is reported as misplaced and left out. *)
let merged_current d ~table errs =
  List.concat_map
    (fun dc_name ->
      let dc = Deploy.dc d dc_name in
      List.filter_map
        (fun (key, r) ->
          if not (String.equal (Deploy.partition_dc d ~table ~key) dc_name)
          then begin
            errs :=
              Printf.sprintf "placement: %s/%s found on %s, owned by %s" table
                key dc_name
                (Deploy.partition_dc d ~table ~key)
              :: !errs;
            None
          end
          else Stored_record.current r |> Option.map (fun v -> (key, v)))
        (Dc.dump_table dc table))
    (Deploy.partitions d ~table)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let check_oracle_deploy d ~table ~expected errs =
  let merged = merged_current d ~table errs in
  if merged <> expected then
    errs :=
      Printf.sprintf
        "oracle: merged partitions of %s (%d rows) disagree with oracle (%d \
         rows)"
        table (List.length merged) (List.length expected)
      :: !errs

(* Index parity: the entry tables must be exactly the image of the live
   primary rows under the registered extractors — computed fresh from
   the merged primary fragments, so the check is independent of any
   oracle the caller may also hold.  Extra entries are dangling (their
   primary died) or stale (the row no longer yields that secondary
   key); missing ones mean maintenance was lost in recovery. *)
module Index = Untx_index.Index

let check_index d ~idx ~table =
  let errs = ref [] in
  let primary = merged_current d ~table errs in
  List.iter
    (fun iname ->
      let itab = Index.index_table ~table ~name:iname in
      let expected = Index.expected_entries idx ~table ~index:iname ~rows:primary in
      let actual = merged_current d ~table:itab errs in
      let describe ekey =
        Printf.sprintf "%s=%S of %s/%s" iname
          (Index.sec_of_entry ekey)
          table (Index.pk_of_entry ekey)
      in
      let rec diff = function
        | [], [] -> ()
        | (ek, pk) :: rest, [] ->
          errs :=
            Printf.sprintf "index: dangling or stale entry %s (value %S)"
              (describe ek) pk
            :: !errs;
          diff (rest, [])
        | [], (ek, _) :: rest ->
          errs :=
            Printf.sprintf "index: missing entry %s" (describe ek) :: !errs;
          diff ([], rest)
        | (ka, va) :: ra, (kb, vb) :: rb ->
          if ka = kb && va = vb then diff (ra, rb)
          else if ka = kb then begin
            errs :=
              Printf.sprintf "index: entry %s holds %S, expected pk %S"
                (describe ka) va vb
              :: !errs;
            diff (ra, rb)
          end
          else if ka < kb then begin
            errs :=
              Printf.sprintf "index: dangling or stale entry %s (value %S)"
                (describe ka) va
              :: !errs;
            diff (ra, (kb, vb) :: rb)
          end
          else begin
            errs :=
              Printf.sprintf "index: missing entry %s" (describe kb) :: !errs;
            diff ((ka, va) :: ra, rb)
          end
      in
      diff (actual, expected))
    (Index.indexes idx ~table);
  List.rev !errs

(* Replica consistency: after shipping reaches parity, every standby's
   logical state must equal its primary's, table by table.  Valid only
   on a quiesced deployment — mid-workload a standby legitimately trails
   by the unshipped suffix.  The comparison is over [dump_table]
   (logical rows), deliberately blind to page structure: primary and
   standby take different split/consolidation paths under different
   cache pressure, and that is fine.

   [wlsn] is also normalized away.  It is physical recovery metadata,
   and it is legitimately path-dependent: when a crash unwinds a commit
   between logging its version cleanup and dispatching it, the retried
   commit logs a second cleanup for the same keys.  The standby replays
   the full stable stream — the first cleanup strips the before-image
   (stamping its LSN), the second is a state-test no-op — while the
   primary only ever applied the retry.  Same row, different last-writer
   LSN; both are stable, so nothing downstream can tell them apart. *)
let logical_rows rows =
  List.map
    (fun (key, (r : Stored_record.t)) ->
      (key, { r with Stored_record.wlsn = Untx_util.Lsn.zero }))
    rows
(* Parity is only owed by *attached* replicas: a detached one is frozen
   at its leased cursor by design, and a rebuild-required one has
   honestly declared it cannot reconstruct the suffix — both
   legitimately trail the primary until reattach/rebuild. *)
let check_replicas d errs =
  let replicated =
    List.filter (fun dcn -> Deploy.replicas d ~dc:dcn <> []) (Deploy.dc_names d)
  in
  if replicated <> [] then begin
    List.iter (fun tcn -> Tc.force_log (Deploy.tc d tcn)) (Deploy.tc_names d);
    Deploy.settle_replicas d;
    List.iter
      (fun dcn ->
        let primary = Deploy.dc d dcn in
        List.iter
          (fun sbn ->
            let sb = Untx_repl.Repl.Standby.dc (Deploy.standby d sbn) in
            check_structure sb ~stage:("standby " ^ sbn) errs;
            List.iter
              (fun tbl ->
                if
                  logical_rows (Dc.dump_table sb tbl)
                  <> logical_rows (Dc.dump_table primary tbl)
                then
                  errs :=
                    Printf.sprintf
                      "replica: %s diverges from %s on table %s" sbn dcn tbl
                    :: !errs)
              (Dc.table_names primary))
          (Deploy.attached_replicas d ~dc:dcn))
      replicated
  end

(* Layer parity: after syncing the store to end-of-stable-log, every
   record the store holds, reconstructed at the ingest watermark, must
   match both the store's own current view and the owning DC's live
   visible value.  Only with exactly one layered TC — the store holds a
   single TC's history, so with several layered stores no single one is
   an oracle for a shared DC. *)
let check_layers d errs =
  let module Layer = Untx_layer.Layer in
  let module Op = Untx_msg.Op in
  let layered =
    List.filter_map
      (fun tcn ->
        match Untx_repl.Repl.Manager.layer_store (Deploy.manager d ~tc:tcn) with
        | Some s -> Some (tcn, s)
        | None -> None)
      (Deploy.tc_names d)
  in
  match layered with
  | [ (tcn, store) ] ->
    List.iter (fun n -> Tc.force_log (Deploy.tc d n)) (Deploy.tc_names d);
    Untx_repl.Repl.Manager.sync_layers (Deploy.manager d ~tc:tcn);
    let tc = Deploy.tc d tcn in
    let at = Layer.ingested_lsn store in
    let dumps = Hashtbl.create 8 in
    let live dc_name table key =
      let id = (dc_name, table) in
      let rows =
        match Hashtbl.find_opt dumps id with
        | Some rows -> rows
        | None ->
          let rows = Dc.dump_table (Deploy.dc d dc_name) table in
          Hashtbl.replace dumps id rows;
          rows
      in
      Option.bind (List.assoc_opt key rows) Stored_record.current
    in
    Layer.iter_current store (fun ~table ~key record ->
        let rebuilt = Layer.reconstruct store ~table ~key ~at in
        if rebuilt <> Stored_record.current record then
          errs :=
            Printf.sprintf
              "layer: reconstruct %s/%s at %s disagrees with the store's \
               current state"
              table key
              (Untx_util.Lsn.to_string at)
            :: !errs;
        let dc_name = Tc.dc_of_op tc (Op.Read { table; key; mode = Op.Own }) in
        if rebuilt <> live dc_name table key then
          errs :=
            Printf.sprintf
              "layer: reconstruct %s/%s at %s disagrees with the live value \
               on %s"
              table key
              (Untx_util.Lsn.to_string at)
              dc_name
            :: !errs)
  | _ -> ()

(* Cross-TC watermark audit (quiesced deployments): every DC's per-TC
   watermark slot must be attributable to that TC alone —
   lwm <= eosl (each force broadcasts EOSL before any LWM capped at the
   new stable can follow on the FIFO control session) and eosl never
   past the TC's actual stable log (a DC believing otherwise could
   flush a page whose redo is still volatile).  A violation means some
   other TC's control traffic leaked into this TC's slot — exactly what
   the (tc, epoch, seq) keying and the misattribution guards exist to
   prevent. *)
let check_watermarks d =
  let module Lsn = Untx_util.Lsn in
  let errs = ref [] in
  List.iter
    (fun tcn ->
      let tc = Deploy.tc d tcn in
      let id = Tc.id tc in
      let stable = Lsn.to_int (Tc.stable_lsn tc) in
      List.iter
        (fun dcn ->
          let dc = Deploy.dc d dcn in
          let eosl = Lsn.to_int (Dc.eosl_of dc id) in
          let lwm = Lsn.to_int (Dc.lwm_of dc id) in
          if lwm > eosl then
            errs :=
              Printf.sprintf
                "watermarks: %s holds lwm %d > eosl %d for TC %s" dcn lwm
                eosl tcn
              :: !errs;
          if eosl > stable then
            errs :=
              Printf.sprintf
                "watermarks: %s believes TC %s's stable log reaches %d but \
                 it ends at %d"
                dcn tcn eosl stable
              :: !errs)
        (Deploy.dc_names d))
    (Deploy.tc_names d);
  List.rev !errs

(* Branch parity: a live branch must have a well-formed DC, agree with
   its parent bit-for-bit on the shared prefix at the fork point — via
   its own combined-LSN read path and, for branches forked directly off
   a root TC, via the deployment's read_as_of — and answer its durable
   point-in-time view consistently with the per-key lookup. *)
module Branch = Untx_branch.Branch

let check_branch d ~name ~table =
  let module Lsn = Untx_util.Lsn in
  let errs = ref [] in
  let br = Deploy.branch d name in
  (match Dc.check (Branch.dc br) with
  | Ok () -> ()
  | Error e ->
    errs := Printf.sprintf "branch %s: ill-formed DC: %s" name e :: !errs);
  let fork = Branch.fork_lsn br in
  if Lsn.(Branch.durable br < fork) then
    errs :=
      Printf.sprintf "branch %s: durable %d below its fork %d" name
        (Lsn.to_int (Branch.durable br))
        (Lsn.to_int fork)
      :: !errs;
  let rooted =
    not
      (List.exists
         (fun b -> List.mem name (Deploy.branch_children d b))
         (Deploy.branch_names d))
  in
  let show = function Some v -> Printf.sprintf "%S" v | None -> "None" in
  List.iter
    (fun (key, v) ->
      let via_branch = Branch.read_as_of br ~table ~key ~at:fork in
      if via_branch <> Some v then
        errs :=
          Printf.sprintf
            "branch %s: fork prefix of %s/%s reads %s through the branch, \
             parent holds %S"
            name table key (show via_branch) v
          :: !errs;
      if rooted then begin
        let via_root = Deploy.read_as_of d ~table ~key ~at:fork in
        if via_root <> Some v then
          errs :=
            Printf.sprintf
              "branch %s: fork prefix of %s/%s reads %s through the root, \
               parent iteration holds %S"
              name table key (show via_root) v
            :: !errs
      end)
    (Branch.fork_rows br ~table);
  let durable = Branch.durable br in
  List.iter
    (fun (key, v) ->
      let got = Branch.read_as_of br ~table ~key ~at:durable in
      if got <> Some v then
        errs :=
          Printf.sprintf
            "branch %s: durable view of %s/%s iterates %S but looks up %s"
            name table key v (show got)
          :: !errs)
    (Branch.rows_at br ~table ~at:durable);
  List.rev !errs

let run_deploy d ~tc ~table ~expected =
  let errs = ref [] in
  let tc = Deploy.tc d tc in
  let redelivered =
    check_dcs
      ~dcs:(List.map (fun name -> (name, Deploy.dc d name)) (Deploy.dc_names d))
      ~tc
      ~dc_of:(fun op -> Deploy.dc d (Tc.dc_of_op tc op))
      errs
  in
  check_oracle_deploy d ~table ~expected errs;
  check_replicas d errs;
  check_layers d errs;
  errs := List.rev_append (check_watermarks d) !errs;
  { violations = List.rev !errs; redelivered }
