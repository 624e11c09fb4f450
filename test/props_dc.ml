(* Differential property for lazily applied low-water marks.

   The DC folds a TC's low-water mark into a page's abstract LSN only
   when something next reads that page's state.  This property drives
   one DC through random interleavings of two TCs' writes on shared
   pages (fresh ones, and resends below and above the marks), watermark
   messages, evictions, flushes, checkpoints, TC restarts
   (Restart_begin, redo, Redo_fence_end) and DC crashes (crash, recover,
   redo), beside a reference model that applies every mark to every
   page the moment it arrives.
   After each step, every page's [Dc.page_meta_of] must equal the
   model's, and each write must be absorbed exactly when the model's
   abstract LSN for its leaf already includes it.

   The model follows the DC's pages through what it cannot predict
   (structure modifications, the pages a TC restart resets, crash
   recovery) by adopting the observed metadata of exactly those pages;
   everything else it predicts. *)

module Dc = Untx_dc.Dc
module Ablsn = Untx_dc.Ablsn
module Page_meta = Untx_dc.Page_meta
module Wire = Untx_msg.Wire
module Op = Untx_msg.Op
module Lsn = Untx_util.Lsn
module Tc_id = Untx_util.Tc_id
module Cache = Untx_storage.Cache
module Page = Untx_storage.Page
module Page_id = Untx_storage.Page_id
module Btree = Untx_btree.Btree

let page_capacity = 96

let tcs = [| Tc_id.of_int 1; Tc_id.of_int 2 |]

(* Steps name TCs by index and choose LSNs by [pick], resolved against
   the TC's state when the step runs, so every generated script keeps
   the protocol's orderings (lwm <= eosl <= issued) and shrinks
   cleanly. *)
type step =
  | Fresh of int * int (* key, kind: insert 0|3, update 1|2, delete *)
  | Resend of int (* pick among issued LSNs *)
  | Marks of int * int option * int option
      (* Watermarks: tc, eosl pick, lwm pick; [None] sends a zero mark *)
  | Evict
  | Flush
  | Checkpoint of int * int
  | Restart of int
  | Crash

let print_step = function
  | Fresh (k, kind) -> Printf.sprintf "fresh(k%d,%d)" k kind
  | Resend p -> Printf.sprintf "resend(%d)" p
  | Marks (tc, e, l) ->
    let pick = function Some p -> string_of_int p | None -> "-" in
    Printf.sprintf "marks(tc%d,%s,%s)" tc (pick e) (pick l)
  | Evict -> "evict"
  | Flush -> "flush"
  | Checkpoint (tc, p) -> Printf.sprintf "checkpoint(tc%d,%d)" tc p
  | Restart tc -> Printf.sprintf "restart(tc%d)" tc
  | Crash -> "crash"

let step_gen =
  let open QCheck.Gen in
  let tc = int_bound 1 and pick = int_bound 1000 in
  let marks e l = map3 (fun t e l -> Marks (t, e, l)) tc e l in
  frequency
    [
      (8, map2 (fun k kind -> Fresh (k, kind)) (int_bound 39) (int_bound 3));
      (5, map (fun p -> Resend p) pick);
      (* the TC's end-of-stable-log and low-water pushes, and any mix *)
      (3, marks (map Option.some pick) (return None));
      (4, marks (return None) (map Option.some pick));
      (2, marks (opt pick) (opt pick));
      (2, return Evict);
      (1, return Flush);
      (1, map2 (fun t p -> Checkpoint (t, p)) tc pick);
      (1, map (fun t -> Restart t) tc);
      (1, return Crash);
    ]

let script_arb =
  QCheck.make
    ~print:(fun s -> String.concat "; " (List.map print_step s))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 80) step_gen)

(* ------------------------------------------------------------------ *)
(* The TC side of the script                                           *)

type tc_state = {
  mutable rssp : int; (* redo starts here: the last granted checkpoint *)
  mutable issued : int;
  mutable eosl : int;
  mutable lwm : int;
  log : (int, string * Op.t) Hashtbl.t; (* LSN -> key, operation *)
}

let in_range lo hi pick = lo + (pick mod (hi - lo + 1))

(* ------------------------------------------------------------------ *)
(* The eager reference model                                           *)

let meta_equal (a : Page_meta.t) (b : Page_meta.t) =
  Lsn.equal a.dlsn b.dlsn && Tc_id.Map.equal Ablsn.equal a.ablsns b.ablsns

let pp_meta ppf (m : Page_meta.t) =
  Format.fprintf ppf "dlsn=%a" Lsn.pp m.dlsn;
  Tc_id.Map.iter
    (fun tc ab -> Format.fprintf ppf " %a:%a" Tc_id.pp tc Ablsn.pp ab)
    m.ablsns

(* Every page of the table with its metadata as the DC reports it. *)
let observe dc =
  List.sort compare (List.map Page_id.to_int (Dc.table_pages dc "t"))
  |> List.map (fun pid -> (pid, Dc.page_meta_of dc (Page_id.of_int pid)))

let lwm_in lwms tc =
  match Tc_id.Map.find_opt tc lwms with Some l -> l | None -> Lsn.zero

let advance lwms (m : Page_meta.t) =
  {
    m with
    ablsns =
      Tc_id.Map.mapi (fun tc ab -> Ablsn.advance ~lwm:(lwm_in lwms tc) ab) m.ablsns;
  }

exception Diverged of string

let diverge fmt = Format.kasprintf (fun s -> raise (Diverged s)) fmt

(* [expected] and [observed] must agree on every page outside [skip],
   and on which pages exist. *)
let compare_pages ~what ?(skip = fun _ -> false) expected observed =
  List.iter
    (fun (pid, _) ->
      if not (skip pid || List.mem_assoc pid expected) then
        diverge "%s: page %d appeared" what pid)
    observed;
  List.iter
    (fun (pid, e) ->
      if not (skip pid) then
        match List.assoc_opt pid observed with
        | None -> diverge "%s: page %d vanished" what pid
        | Some o ->
          if not (meta_equal e o) then
            diverge "%s: page %d is {%a}, the eager model says {%a}" what pid
              pp_meta o pp_meta e)
    expected

let run_script script =
  let dc =
    Dc.create
      {
        Dc.page_capacity;
        cache_pages = 6;
        sync_policy = Dc.Full_ablsn;
        tc_reset_mode = Dc.Selective;
        debug_checks = true;
      }
  in
  Dc.create_table dc ~name:"t" ~versioned:false;
  let tcs_st =
    Array.map
      (fun _ ->
        { rssp = 1; issued = 0; eosl = 0; lwm = 0; log = Hashtbl.create 64 })
      tcs
  in
  let lwms = ref Tc_id.Map.empty in
  (* A TC reset that escalates to a complete DC restart holds the marks
     of every other TC the DC knew — it had the TC's end-of-stable-log
     or low-water mark, a TC's first mark counting even at zero — or
     still held, until that TC's redo fence. *)
  let n = Array.length tcs in
  let has_eosl = Array.make n false
  and has_lwm = Array.make n false
  and held = Array.make n false in
  let forget () =
    Array.fill has_eosl 0 n false;
    Array.fill has_lwm 0 n false
  in
  let expect = ref (observe dc) in
  let control msg = ignore (Dc.control dc msg) in
  let raise_lwm i l =
    if not held.(i) then begin
      let tc = tcs.(i) in
      has_lwm.(i) <- true;
      lwms := Tc_id.Map.add tc (Lsn.max (Lsn.of_int l) (lwm_in !lwms tc)) !lwms;
      expect := List.map (fun (pid, m) -> (pid, advance !lwms m)) !expect
    end
  in
  (* A step's pick moves the TC's mark up within the protocol's
     ordering; no pick sends zero, which claims nothing. *)
  let pick_eosl i = function
    | None -> 0
    | Some p ->
      let s = tcs_st.(i) in
      s.eosl <- in_range s.eosl s.issued p;
      s.eosl
  in
  let pick_lwm i = function
    | None -> 0
    | Some p ->
      let s = tcs_st.(i) in
      s.lwm <- in_range s.lwm s.eosl p;
      s.lwm
  in
  let write i lsn (key, op) =
    let tc = tcs.(i) in
    let tree =
      Btree.attach ~cache:(Dc.cache dc) ~page_capacity
        ~hooks:Btree.null_hooks ~root:(Dc.table_root dc "t")
    in
    let leaf = Page_id.to_int (Page.id (Btree.find_leaf tree key)) in
    let before =
      match List.assoc_opt leaf !expect with
      | Some m -> m
      | None -> diverge "write: leaf %d unknown to the model" leaf
    in
    let predicted = Ablsn.included (Lsn.of_int lsn) (Page_meta.ablsn before tc) in
    let dups = Dc.dup_absorbed dc
    and smos = Dc.splits dc + Dc.consolidations dc in
    ignore (Dc.perform dc { Wire.tc; lsn = Lsn.of_int lsn; part = 0; op });
    let absorbed = Dc.dup_absorbed dc > dups in
    if absorbed <> predicted then
      diverge "write %d of %a: %s, the eager model says %s" lsn Tc_id.pp tc
        (if absorbed then "absorbed" else "applied")
        (if predicted then "absorb" else "apply");
    let observed = observe dc in
    if Dc.splits dc + Dc.consolidations dc = smos then begin
      (* the write lands on the marks' current view of the page *)
      let after =
        if absorbed then before
        else
          advance !lwms
            {
              before with
              ablsns =
                Tc_id.Map.add tc
                  (Ablsn.add (Lsn.of_int lsn) (Page_meta.ablsn before tc))
                  before.ablsns;
            }
      in
      compare_pages ~what:"write"
        (List.map (fun (pid, m) -> (pid, if pid = leaf then after else m)) !expect)
        observed
    end;
    expect := observed
  in
  (* What a TC resends after a failure: its logged operations from the
     redo scan start point through [upto], in LSN order. *)
  let redo i ~upto =
    let s = tcs_st.(i) in
    for lsn = s.rssp to upto do
      Option.iter (write i lsn) (Hashtbl.find_opt s.log lsn)
    done
  in
  let apply = function
    | Fresh (k, kind) ->
      (* each TC writes its own keys, interleaved on shared pages *)
      let i = k land 1 in
      let s = tcs_st.(i) in
      s.issued <- s.issued + 1;
      let key = Printf.sprintf "k%02d" k in
      let value = Printf.sprintf "v%d.%d" i s.issued in
      let op =
        match kind with
        | 0 | 3 -> Op.Insert { table = "t"; key; value }
        | 1 | 2 -> Op.Update { table = "t"; key; value }
        | _ -> Op.Delete { table = "t"; key }
      in
      Hashtbl.replace s.log s.issued (key, op);
      write i s.issued (key, op)
    | Resend p ->
      let i = p land 1 in
      let s = tcs_st.(i) in
      if s.issued > 0 then
        let lsn = in_range 1 s.issued p in
        write i lsn (Hashtbl.find s.log lsn)
    | Marks (i, pe, pl) ->
      let eosl = pick_eosl i pe in
      let lwm = pick_lwm i pl in
      has_eosl.(i) <- true;
      control
        (Wire.Watermarks
           { tc = tcs.(i); eosl = Lsn.of_int eosl; lwm = Lsn.of_int lwm });
      raise_lwm i lwm;
      compare_pages ~what:"watermarks" !expect (observe dc)
    | Evict ->
      (* Write back what may be written, then let every clean page go:
         what an eviction does, for every page at once. *)
      Dc.flush_all dc;
      let cache = Dc.cache dc in
      let clean = ref [] in
      Cache.iter_cached cache (fun page ->
          if not (Cache.is_dirty cache (Page.id page)) then
            clean := Page.id page :: !clean);
      List.iter (Cache.drop_page cache) !clean;
      compare_pages ~what:"evict" !expect (observe dc)
    | Flush ->
      Dc.flush_all dc;
      compare_pages ~what:"flush" !expect (observe dc)
    | Checkpoint (i, p) ->
      let s = tcs_st.(i) in
      let rssp = in_range s.rssp (s.eosl + 1) p in
      (match Dc.control dc (Wire.Checkpoint { tc = tcs.(i); new_rssp = Lsn.of_int rssp }) with
      | Wire.Checkpoint_done { granted = true } -> s.rssp <- rssp
      | _ -> ());
      compare_pages ~what:"checkpoint" !expect (observe dc)
    | Restart i ->
      (* The TC restarts with its stable log ending at its last
         end-of-stable-log: the tail is lost and its LSNs reissued. *)
      let s = tcs_st.(i) and tc = tcs.(i) in
      let stable = Lsn.of_int s.eosl in
      let cache = Dc.cache dc in
      let reset =
        List.filter_map
          (fun (pid, m) ->
            if
              Cache.cached cache (Page_id.of_int pid) <> None
              && Lsn.(Ablsn.max_lsn (Page_meta.ablsn m tc) > stable)
            then Some pid
            else None)
          !expect
      in
      control (Wire.Restart_begin { tc; stable_lsn = stable });
      s.issued <- s.eosl;
      s.lwm <- 0;
      held.(i) <- false;
      has_lwm.(i) <- false;
      has_eosl.(i) <- true;
      let observed = observe dc in
      if Dc.take_escalation dc then begin
        lwms := Tc_id.Map.empty;
        Array.iteri
          (fun j _ ->
            if j <> i then held.(j) <- held.(j) || has_eosl.(j) || has_lwm.(j))
          tcs;
        forget ()
      end
      else begin
        lwms := Tc_id.Map.remove tc !lwms;
        compare_pages ~what:"restart_begin"
          ~skip:(fun pid -> List.mem pid reset)
          !expect observed
      end;
      expect := observed;
      redo i ~upto:s.issued;
      control (Wire.Redo_fence_end { tc });
      compare_pages ~what:"restart_end" !expect (observe dc)
    | Crash ->
      Dc.crash dc;
      Dc.recover dc;
      lwms := Tc_id.Map.empty;
      forget ();
      Array.fill held 0 n false;
      expect := observe dc;
      Array.iteri
        (fun i tc ->
          control (Wire.Redo_fence_begin { tc });
          redo i ~upto:tcs_st.(i).issued;
          control (Wire.Redo_fence_end { tc }))
        tcs;
      compare_pages ~what:"redo" !expect (observe dc)
  in
  List.iteri
    (fun n step ->
      try apply step
      with Diverged msg ->
        QCheck.Test.fail_reportf "step %d (%s): %s" n (print_step step) msg)
    script;
  true

let prop_lazy_equals_eager =
  QCheck.Test.make ~name:"lazy LWM equals eager application" ~count:500
    script_arb run_script

let suite = [ Helpers.qcheck_test prop_lazy_equals_eager ]
