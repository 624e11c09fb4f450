(* Every suite runs in this one executable.  Alcotest sizes its name
   column to the longest suite name in a run and cuts each case's
   description to fit 80 columns, so a plain run goes group by group,
   each group one Alcotest run: a case prints the same line whatever
   suites are added to another group.  With arguments (`test <suite>`,
   `list`, flags) every suite is one Alcotest run, as its `test`
   command exits when its run ends. *)

let groups =
  [
    ( "untx",
      [
        ("util", Suite_util.suite);
        ("storage", Suite_storage.suite);
        ("wal", Suite_wal.suite);
        ("ablsn", Suite_ablsn.suite);
        ("msg", Suite_msg.suite);
        ("wire", Suite_wire.suite);
        ("btree", Suite_btree.suite);
        ("lock", Suite_lock.suite);
        ("dc", Suite_dc.suite);
        ("dc-lazy-lwm", Props_dc.suite);
        ("tc", Suite_tc.suite);
        ("transport", Suite_transport.suite);
        ("kernel", Suite_kernel.suite);
        ("driver", Suite_driver.suite);
        ("baseline", Suite_baseline.suite);
        ("cloud", Suite_cloud.suite);
        ("deploy", Suite_deploy.suite);
        ("extensions", Suite_extensions.suite);
        ("occ", Suite_occ.suite);
        ("recovery", Suite_recovery.suite);
        ("fault", Suite_fault.suite);
        ("chaos", Suite_chaos.suite);
        ("cloud-recovery", Suite_cloud_recovery.suite);
        ("properties", Props.suite);
      ] );
    ( "untx-obs",
      [
        ("obs", Suite_obs.suite);
        ("props-ablsn", Props_ablsn.suite);
        ("props-lock", Props_lock.suite);
      ] );
    ( "untx-repl",
      [
        ("session", Suite_session.suite);
        ("repl", Suite_repl.suite);
        ("props_repl", Props_repl.suite);
      ] );
    ( "untx-layer",
      [ ("layer", Suite_layer.suite); ("props_layer", Props_layer.suite) ] );
    ( "untx-front",
      [ ("front", Suite_front.suite); ("props-front", Props_front.suite) ] );
    ( "untx-index",
      [
        ("index", Suite_index.suite);
        ("index-props", Props_index.suite);
        ("workload", Suite_workload.suite);
      ] );
    ( "untx-branch",
      [ ("branch", Suite_branch.suite); ("props_branch", Props_branch.suite) ]
    );
  ]

let () =
  if Array.length Sys.argv > 1 then
    Alcotest.run "untx" (List.concat_map snd groups)
  else begin
    let failed =
      List.filter
        (fun (name, suites) ->
          match Alcotest.run ~and_exit:false name suites with
          | () -> false
          | exception Alcotest.Test_error -> true)
        groups
    in
    if failed <> [] then exit 1
  end
