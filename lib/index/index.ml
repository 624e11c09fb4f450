module Tc = Untx_tc.Tc
module Instrument = Untx_util.Instrument

type extract = key:string -> value:string -> string list

type t = {
  counters : Instrument.t;
  defs : (string, (string * extract) list ref) Hashtbl.t;
      (* table -> (index name, extract), kept sorted by name *)
}

let create ?(counters = Instrument.global) () =
  { counters; defs = Hashtbl.create 4 }

let index_table ~table ~name = table ^ "#" ^ name

let define t ~table ~name ~extract =
  let defs =
    match Hashtbl.find_opt t.defs table with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add t.defs table r;
      r
  in
  if List.mem_assoc name !defs then
    invalid_arg
      (Printf.sprintf "Index.define: dup index %s on %s" name table);
  defs :=
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      ((name, extract) :: !defs)

let defs_of t table =
  match Hashtbl.find_opt t.defs table with Some r -> !r | None -> []

let indexes t ~table = List.map fst (defs_of t table)

(* ------------------------------------------------------------------ *)
(* Entry encoding                                                      *)

(* Escape [\x00] to [\x00\xff]: order-preserving, and the pair is the
   only way a NUL can appear inside an escaped component.  The
   two-byte terminator [\x00\x01] that follows can therefore never
   occur inside one — the first occurrence in an entry key always
   marks the component boundary, whatever bytes the primary key
   holds. *)
let esc s =
  if not (String.contains s '\x00') then s
  else begin
    let b = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        Buffer.add_char b c;
        if c = '\x00' then Buffer.add_char b '\xff')
      s;
    Buffer.contents b
  end

let unesc s =
  if not (String.contains s '\x00') then s
  else begin
    let b = Buffer.create (String.length s) in
    let i = ref 0 in
    let n = String.length s in
    while !i < n do
      Buffer.add_char b s.[!i];
      if s.[!i] = '\x00' && !i + 1 < n && s.[!i + 1] = '\xff' then incr i;
      incr i
    done;
    Buffer.contents b
  end

let terminator = "\x00\x01"

let prefix ~sec = esc sec ^ terminator

let entry_key ~sec ~pk = prefix ~sec ^ pk

(* First occurrence of the terminator, or None for a bare key. *)
let split_entry ek =
  let n = String.length ek in
  let rec go i =
    if i + 1 >= n then None
    else if ek.[i] = '\x00' && ek.[i + 1] = '\x01' then Some i
    else go (i + 1)
  in
  go 0

let sec_of_entry ek =
  match split_entry ek with
  | Some i -> unesc (String.sub ek 0 i)
  | None -> unesc ek

let pk_of_entry ek =
  match split_entry ek with
  | Some i -> String.sub ek (i + 2) (String.length ek - i - 2)
  | None -> ""

(* ------------------------------------------------------------------ *)
(* Transactional maintenance                                           *)

let ( let* ) (o : _ Tc.outcome) f : _ Tc.outcome =
  match o with `Ok v -> f v | (`Blocked | `Fail _) as e -> e

let rec each f = function
  | [] -> `Ok ()
  | x :: rest -> (
    match (f x : _ Tc.outcome) with
    | `Ok () -> each f rest
    | (`Blocked | `Fail _) as e -> e)

let secs_of extract ~key ~value =
  List.sort_uniq String.compare (extract ~key ~value)

let add_entries t tc txn ~table ~key ~value defs =
  each
    (fun (name, extract) ->
      let itab = index_table ~table ~name in
      each
        (fun sec ->
          Instrument.bump t.counters "idx.entry_inserts";
          Tc.insert tc txn ~table:itab ~key:(entry_key ~sec ~pk:key)
            ~value:key)
        (secs_of extract ~key ~value))
    defs

let drop_entries t tc txn ~table ~key ~value defs =
  each
    (fun (name, extract) ->
      let itab = index_table ~table ~name in
      each
        (fun sec ->
          Instrument.bump t.counters "idx.entry_deletes";
          Tc.delete tc txn ~table:itab ~key:(entry_key ~sec ~pk:key))
        (secs_of extract ~key ~value))
    defs

let insert t tc txn ~table ~key ~value =
  let* () = Tc.insert tc txn ~table ~key ~value in
  add_entries t tc txn ~table ~key ~value (defs_of t table)

(* The old value decides which entries go stale; only the symmetric
   difference is touched, so an update that leaves an index's secondary
   key unchanged costs that index nothing. *)
let update t tc txn ~table ~key ~value =
  let* old = Tc.read tc txn ~table ~key in
  match old with
  | None -> `Fail (Printf.sprintf "Index.update: no such key %s/%s" table key)
  | Some old_value ->
    let* () = Tc.update tc txn ~table ~key ~value in
    each
      (fun (name, extract) ->
        let itab = index_table ~table ~name in
        let old_secs = secs_of extract ~key ~value:old_value in
        let new_secs = secs_of extract ~key ~value in
        let* () =
          each
            (fun sec ->
              Instrument.bump t.counters "idx.entry_deletes";
              Tc.delete tc txn ~table:itab ~key:(entry_key ~sec ~pk:key))
            (List.filter (fun s -> not (List.mem s new_secs)) old_secs)
        in
        each
          (fun sec ->
            Instrument.bump t.counters "idx.entry_inserts";
            Tc.insert tc txn ~table:itab ~key:(entry_key ~sec ~pk:key)
              ~value:key)
          (List.filter (fun s -> not (List.mem s old_secs)) new_secs))
      (defs_of t table)

let delete t tc txn ~table ~key =
  let* old = Tc.read tc txn ~table ~key in
  let* () = Tc.delete tc txn ~table ~key in
  match old with
  | None -> `Ok ()
  | Some value -> drop_entries t tc txn ~table ~key ~value (defs_of t table)

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let batch = 32

let each_map xs f =
  let rec go acc = function
    | [] -> `Ok (List.rev acc)
    | x :: rest -> (
      match (f x : _ Tc.outcome) with
      | `Ok y -> go (y :: acc) rest
      | (`Blocked | `Fail _) as e -> e)
  in
  go [] xs

let lookup t tc txn ~table ~index ~sec =
  if not (List.mem_assoc index (defs_of t table)) then
    invalid_arg
      (Printf.sprintf "Index.lookup: no index %s on %s" index table);
  let extract = List.assoc index (defs_of t table) in
  let itab = index_table ~table ~name:index in
  let pfx = prefix ~sec in
  Instrument.bump t.counters "idx.lookups";
  (* Secondary-hash placement keeps every key with this prefix on one
     partition, so the batched scan never has to cross DCs. *)
  let rec collect acc from_key =
    let* rows = Tc.scan tc txn ~table:itab ~from_key ~limit:batch in
    let mine =
      List.filter (fun (k, _) -> String.starts_with ~prefix:pfx k) rows
    in
    let acc = acc @ mine in
    if List.length rows < batch || List.length mine < List.length rows then
      `Ok acc
    else
      let last, _ = List.nth rows (List.length rows - 1) in
      collect acc (last ^ "\x00")
  in
  let* entries = collect [] pfx in
  each_map entries
    (fun (ek, ev) ->
      let pk = pk_of_entry ek in
      if not (String.equal ev pk) then
        `Fail
          (Printf.sprintf "Index.lookup: entry %s/%s carries value %S, not \
                           its primary key %S"
             itab index ev pk)
      else
        let* v = Tc.read tc txn ~table ~key:pk in
        match v with
        | None ->
          Instrument.bump t.counters "idx.dangling";
          `Fail
            (Printf.sprintf
               "Index.lookup: dangling entry in %s: no %s/%s record" itab
               table pk)
        | Some value ->
          if not (List.mem sec (secs_of extract ~key:pk ~value)) then begin
            Instrument.bump t.counters "idx.dangling";
            `Fail
              (Printf.sprintf
                 "Index.lookup: stale entry in %s: %s/%s no longer extracts \
                  to %S"
                 itab table pk sec)
          end
          else begin
            Instrument.bump t.counters "idx.lookup_rows";
            `Ok (pk, value)
          end)

(* The TC surface with every mutation maintaining [t]'s indexes; reads
   and scans stay the TC's own. *)
let engine t tc : (module Untx_kernel.Engine.S) =
  let module Writes = struct
    let insert = insert t tc
    let update = update t tc
    let delete = delete t tc
  end in
  (module struct
    include Untx_kernel.Engine.Of_tc (struct
      let tc = tc
    end)

    include Writes
  end)

(* ------------------------------------------------------------------ *)
(* Parity                                                              *)

let expected_entries t ~table ~index ~rows =
  let extract =
    match List.assoc_opt index (defs_of t table) with
    | Some e -> e
    | None ->
      invalid_arg
        (Printf.sprintf "Index.expected_entries: no index %s on %s" index
           table)
  in
  List.concat_map
    (fun (key, value) ->
      List.map
        (fun sec -> (entry_key ~sec ~pk:key, key))
        (secs_of extract ~key ~value))
    rows
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
