(* Tests for the phylo command line: every enumerated spelling the
   configuration flags have ever accepted still parses, and the solving
   commands share one set of configuration flags. *)

let exe =
  if Sys.file_exists "../bin/phylo_cli.exe" then "../bin/phylo_cli.exe"
  else "_build/default/bin/phylo_cli.exe"

let data name =
  if Sys.file_exists ("../data/" ^ name) then "../data/" ^ name
  else "data/" ^ name

let matrix = data "hominoids.phy"

(* Run the CLI with stdout captured and stderr discarded (the other way
   round with [~stderr:true]); the exit code and the captured output. *)
let run ?(stderr = false) args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let r, w = Unix.pipe () in
  let env =
    Array.append [| "PAGER=cat"; "MANPAGER=cat"; "TERM=dumb" |]
      (Unix.environment ())
  in
  let out, err = if stderr then (devnull, w) else (w, devnull) in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin
      out err
  in
  Unix.close w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, out)
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> (-1, out)

(* Every spelling of an enumerated configuration flag that the CLI
   accepted before the spellings moved into per-type tables. *)
let spellings =
  [
    ("--preset", [ "paper"; "fast"; "exhaustive" ]);
    ("--kernel", [ "reference"; "incremental" ]);
    ("--linkage", [ "max"; "min"; "avg" ]);
    ("--exploration", [ "dfs"; "best-first"; "best_first"; "hybrid" ]);
    ( "--branching",
      [ "paper"; "paper_order"; "largest"; "largest_first"; "residual";
        "residual_lb" ] );
    ("--executor", [ "local"; "sim"; "tcp" ]);
  ]

let test_spellings_parse () =
  List.iter
    (fun (flag, values) ->
      List.iter
        (fun v ->
          (* [--method upgmm] parses and validates the configuration
             without solving, so even [tcp] needs no worker. *)
          let extra =
            if v = "tcp" then [ "--workers-addr"; "127.0.0.1:0" ] else []
          in
          let code, _ =
            run ([ "tree"; matrix; "--method"; "upgmm"; flag; v ] @ extra)
          in
          Alcotest.(check int) (Printf.sprintf "tree %s %s" flag v) 0 code)
        values)
    spellings;
  let code, _ = run [ "tree"; matrix; "--exploration"; "sideways" ] in
  Alcotest.(check int) "unknown spelling is a usage error" 124 code

let config_flags =
  [
    "--preset"; "--kernel"; "--linkage"; "--workers"; "--block-workers";
    "--exploration"; "--branching"; "--gap"; "--cache"; "--cache-max-bytes";
    "--deadline"; "--max-nodes";
  ]

let executor_flags = [ "--executor"; "--workers-addr" ]

let test_shared_config_flags () =
  let help cmd =
    let code, out = run [ cmd; "--help=plain" ] in
    Alcotest.(check int) (cmd ^ " --help") 0 code;
    out
  in
  (* An option is defined where a help line starts with its name
     ("--cache=DIR", or "-j N, --workers=N"); other mentions are
     prose. *)
  let has cmd text flag expect =
    let defines line =
      let line = String.trim line in
      String.starts_with ~prefix:(flag ^ "=") line
      || Astring_contains.contains line (", " ^ flag ^ "=")
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s %s %s" cmd
         (if expect then "has" else "lacks")
         flag)
      expect
      (List.exists defines (String.split_on_char '\n' text))
  in
  List.iter
    (fun cmd ->
      let text = help cmd in
      List.iter (fun f -> has cmd text f true) config_flags;
      let runs_one_pipeline = cmd = "tree" || cmd = "compare" in
      List.iter (fun f -> has cmd text f runs_one_pipeline) executor_flags)
    [ "tree"; "compare"; "render"; "report"; "align"; "serve" ];
  let worker = help "worker" in
  List.iter (fun f -> has "worker" worker f false) executor_flags

let test_config_flags_apply () =
  (* The shared flags reach the solve on commands that gained them. *)
  List.iter
    (fun args ->
      let code, out = run args in
      Alcotest.(check int) (String.concat " " args) 0 code;
      Alcotest.(check bool) "produced output" true (String.length out > 0))
    [
      [ "render"; matrix; "--max-nodes"; "100000"; "--exploration"; "hybrid" ];
      [ "report"; matrix; "--deadline"; "30"; "--branching"; "largest" ];
      [ "compare"; matrix; "--cache-max-bytes"; "100000"; "--linkage"; "avg" ];
    ]

let test_progress_prints_heartbeats () =
  (* --progress prints the flight recorder's heartbeats.  A worker
     pulse's first call always emits one and the sink's first heartbeat
     is always due, so the sequential and the parallel search loop each
     print at least one line, however fast the solve. *)
  List.iter
    (fun j ->
      let args =
        [ "tree"; data "random20.phy"; "--method"; "exact"; "--progress";
          "-j"; j ]
      in
      let code, err = run ~stderr:true args in
      Alcotest.(check int) (String.concat " " args) 0 code;
      Alcotest.(check bool) ("expanded= line with -j " ^ j) true
        (Astring_contains.contains err "expanded="))
    [ "1"; "2" ]

let () =
  Alcotest.run "cli"
    [
      ( "config",
        [
          Alcotest.test_case "parent spellings parse" `Quick
            test_spellings_parse;
          Alcotest.test_case "shared config flags" `Quick
            test_shared_config_flags;
          Alcotest.test_case "config flags apply" `Quick
            test_config_flags_apply;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "progress prints heartbeats" `Quick
            test_progress_prints_heartbeats;
        ] );
    ]
