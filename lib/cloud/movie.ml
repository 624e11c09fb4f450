module Tc = Untx_tc.Tc
module Dc = Untx_dc.Dc
module Tc_id = Untx_util.Tc_id

type t = {
  d : Deploy.t;
  n_user_tcs : int;
  n_movie_dcs : int;
  versioned : bool;
}

let movie_key mid = Printf.sprintf "m%06d" mid

let user_key uid = Printf.sprintf "u%06d" uid

let review_key ~mid ~uid = Printf.sprintf "%s:%s" (movie_key mid) (user_key uid)

let myreview_key ~uid ~mid = Printf.sprintf "%s:%s" (user_key uid) (movie_key mid)

let movie_dc_name i = Printf.sprintf "dc-m%d" i

let user_dc_name = "dc-u"

let updater_name i = Printf.sprintf "tc-u%d" i

let reader_name = "tc-r"

(* Partition by the movie id encoded in the key prefix "m<6 digits>". *)
let movie_partition t key =
  let mid =
    if String.length key >= 7 && key.[0] = 'm' then
      match int_of_string_opt (String.sub key 1 6) with
      | Some m -> m
      | None -> 0
    else 0
  in
  movie_dc_name (mid mod t.n_movie_dcs)

let map_tables t tc =
  Tc.map_table_partitioned tc ~table:"movies" ~versioned:t.versioned
    ~partition:(fun key -> movie_partition t key);
  Tc.map_table_partitioned tc ~table:"reviews" ~versioned:t.versioned
    ~partition:(fun key -> movie_partition t key);
  Tc.map_table tc ~table:"users" ~dc:user_dc_name ~versioned:t.versioned;
  Tc.map_table tc ~table:"myreviews" ~dc:user_dc_name ~versioned:t.versioned

let create ?policy ?seed ?counters ?(versioned = true) ~n_user_tcs
    ~n_movie_dcs () =
  if n_user_tcs <= 0 || n_movie_dcs <= 0 then
    invalid_arg "Movie.create: counts must be positive";
  let d = Deploy.create ?counters ?policy ?seed () in
  let t = { d; n_user_tcs; n_movie_dcs; versioned } in
  for i = 0 to n_movie_dcs - 1 do
    ignore (Deploy.add_dc d ~name:(movie_dc_name i) Dc.default_config)
  done;
  ignore (Deploy.add_dc d ~name:user_dc_name Dc.default_config);
  for i = 0 to n_movie_dcs - 1 do
    Deploy.create_table d ~dc:(movie_dc_name i) ~name:"movies"
      ~versioned;
    Deploy.create_table d ~dc:(movie_dc_name i) ~name:"reviews" ~versioned
  done;
  Deploy.create_table d ~dc:user_dc_name ~name:"users" ~versioned;
  Deploy.create_table d ~dc:user_dc_name ~name:"myreviews" ~versioned;
  for i = 0 to n_user_tcs - 1 do
    let tc =
      Deploy.add_tc d ~name:(updater_name i)
        (Tc.default_config (Tc_id.of_int (i + 1)))
    in
    map_tables t tc
  done;
  let reader =
    Deploy.add_tc d ~name:reader_name
      (Tc.default_config (Tc_id.of_int (n_user_tcs + 1)))
  in
  map_tables t reader;
  t

let deploy t = t.d

let updater_for t uid = Deploy.tc t.d (updater_name (uid mod t.n_user_tcs))

let reader t = Deploy.tc t.d reader_name

(* Run [f] inside one transaction on [tc]; deadlock-free workloads here
   never block (disjoint ownership), so `Blocked is an error. *)
let in_txn tc f =
  let txn = Tc.begin_txn tc in
  let fail msg =
    Tc.abort tc txn ~reason:msg;
    Error msg
  in
  match f txn with
  | Ok () -> (
    match Tc.commit tc txn with
    | `Ok () -> Ok ()
    | `Fail msg -> Error msg
    | `Blocked -> fail "blocked at commit")
  | Error msg -> fail msg

let lift = function
  | `Ok v -> Ok v
  | `Fail msg -> Error msg
  | `Blocked -> Error "blocked"

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let seed_movies t n =
  let tc = updater_for t 0 in
  for mid = 0 to n - 1 do
    match
      in_txn tc (fun txn ->
          let* () =
            lift
              (Tc.insert tc txn ~table:"movies" ~key:(movie_key mid)
                 ~value:(Printf.sprintf "title-%d" mid))
          in
          Ok ())
    with
    | Ok () -> ()
    | Error msg -> failwith ("Movie.seed_movies: " ^ msg)
  done;
  (* the catalog never changes after load: read-only sharing
     (Section 6.2.1) lets every TC read it without coordination *)
  Tc.quiesce tc;
  for i = 0 to t.n_movie_dcs - 1 do
    Dc.seal_table (Deploy.dc t.d (movie_dc_name i)) ~name:"movies"
  done

let seed_users t n =
  for uid = 0 to n - 1 do
    let tc = updater_for t uid in
    match
      in_txn tc (fun txn ->
          let* () =
            lift
              (Tc.insert tc txn ~table:"users" ~key:(user_key uid)
                 ~value:(Printf.sprintf "profile-%d" uid))
          in
          Ok ())
    with
    | Ok () -> ()
    | Error msg -> failwith ("Movie.seed_users: " ^ msg)
  done

let w1_reviews_for_movie t ~mid ~mode =
  let tc = reader t in
  let from_key = movie_key mid ^ ":" in
  let rows =
    match mode with
    | `Committed -> Tc.scan_committed tc ~table:"reviews" ~from_key ~limit:1000
    | `Dirty -> Tc.scan_dirty tc ~table:"reviews" ~from_key ~limit:1000
  in
  List.filter
    (fun (k, _) ->
      String.length k >= String.length from_key
      && String.equal (String.sub k 0 (String.length from_key)) from_key)
    rows

let w2_add_review t ~uid ~mid ~text =
  let tc = updater_for t uid in
  in_txn tc (fun txn ->
      let* () =
        lift
          (Tc.insert tc txn ~table:"reviews" ~key:(review_key ~mid ~uid)
             ~value:text)
      in
      let* () =
        lift
          (Tc.insert tc txn ~table:"myreviews" ~key:(myreview_key ~uid ~mid)
             ~value:text)
      in
      Ok ())

let w3_update_profile t ~uid ~profile =
  let tc = updater_for t uid in
  in_txn tc (fun txn ->
      let* () =
        lift
          (Tc.update tc txn ~table:"users" ~key:(user_key uid) ~value:profile)
      in
      Ok ())

let w4_my_reviews t ~uid =
  let tc = updater_for t uid in
  let prefix = user_key uid ^ ":" in
  let txn = Tc.begin_txn tc in
  let rows =
    match Tc.scan tc txn ~table:"myreviews" ~from_key:prefix ~limit:1000 with
    | `Ok rows -> rows
    | `Blocked | `Fail _ -> []
  in
  ignore (Tc.commit tc txn);
  List.filter
    (fun (k, _) ->
      String.length k >= String.length prefix
      && String.equal (String.sub k 0 (String.length prefix)) prefix)
    rows

let crash_user_tc t i = Deploy.crash_tc t.d (updater_name (i mod t.n_user_tcs))

let messages_total t = Deploy.messages_total t.d
