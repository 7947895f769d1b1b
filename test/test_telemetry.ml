(* The live telemetry plane, end to end:

   - the flight recorder keeps the newest events under wraparound,
     counts what it overwrote, and survives concurrent domain writers
     without tearing or duplicating an entry;
   - the Prometheus exposition is deterministic (golden-file tested)
     whatever order metrics were registered or mutated in;
   - the /metrics, /healthz and /events endpoints round-trip over a
     real socket;
   - [phylo top]'s pure half folds canned polls into the exact frame
     the non-TTY renderer prints;
   - a run that stops early (the SIGINT/budget path) dumps a flight
     record that still holds the last incumbent event;
   - installing the recorder changes no solver outcome, bit for bit;
   - a Chrome trace cut mid-write recovers to the longest complete
     event prefix. *)

module Dist_matrix = Distmat.Dist_matrix
module Utree = Ultra.Utree
module Solver = Bnb.Solver
module Stats = Bnb.Stats
module Budget = Bnb.Budget

let rng seed = Random.State.make [| 0x7E1E; seed |]
let hard n seed = Distmat.Gen.uniform_metric ~rng:(rng seed) n

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- recorder: ring semantics --- *)

let test_recorder_wraparound () =
  (* A single-domain writer lands every event in one 2-slot shard:
     emitting 100 must retain the newest 2 and count 98 drops. *)
  let r = Obs.Recorder.create ~capacity:32 () in
  for i = 1 to 100 do
    Obs.Recorder.emit r (Obs.Events.Incumbent { cost = float_of_int i })
  done;
  Alcotest.(check int) "last_seq" 100 (Obs.Recorder.last_seq r);
  Alcotest.(check int) "dropped" 98 (Obs.Recorder.dropped r);
  let entries = Obs.Recorder.snapshot r in
  Alcotest.(check int) "retained" 2 (List.length entries);
  Alcotest.(check (list int))
    "newest survive" [ 99; 100 ]
    (List.map (fun (e : Obs.Recorder.entry) -> e.seq) entries)

let test_recorder_concurrent_domains () =
  let n_domains = 4 and per_domain = 500 in
  let r = Obs.Recorder.create ~capacity:64 () in
  let writers =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Recorder.emit r
                (Obs.Events.Heartbeat
                   {
                     worker = d;
                     expanded = i;
                     pruned = 0;
                     open_nodes = 0;
                     ub = 1.;
                     lb = 0.;
                   })
            done))
  in
  List.iter Domain.join writers;
  let total = n_domains * per_domain in
  Alcotest.(check int) "every emit got a seq" total (Obs.Recorder.last_seq r);
  let entries = Obs.Recorder.snapshot r in
  Alcotest.(check bool)
    "retained within capacity" true
    (List.length entries <= 64);
  Alcotest.(check int)
    "drops + retained account for every emit" total
    (Obs.Recorder.dropped r + List.length entries);
  (* No duplicated or torn entry: seqs are unique and sorted. *)
  let seqs = List.map (fun (e : Obs.Recorder.entry) -> e.seq) entries in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "seqs strictly increasing" true
    (strictly_increasing seqs)

let test_recorder_snapshot_since () =
  let r = Obs.Recorder.create ~capacity:64 () in
  for i = 1 to 10 do
    Obs.Recorder.emit r (Obs.Events.Incumbent { cost = float_of_int i })
  done;
  Alcotest.(check int) "since filters" 3
    (List.length (Obs.Recorder.snapshot ~since:7 r))

(* --- metrics: deterministic Prometheus exposition --- *)

(* A registry with one of everything, including names that need
   sanitising and a histogram with an overflow observation. *)
let build_exposition_registry () =
  let reg = Obs.Metrics.create_registry () in
  Obs.Metrics.add (Obs.Metrics.counter ~registry:reg "bnb.pruned.lb1_suffix") 7;
  Obs.Metrics.set (Obs.Metrics.gauge ~registry:reg "pool.queue_depth") 3.5;
  ignore (Obs.Metrics.gauge ~registry:reg "unset.gauge");
  ignore (Obs.Metrics.counter ~registry:reg "z-metric with spaces");
  let h = Obs.Metrics.histogram ~registry:reg "solve.ms" in
  List.iter (Obs.Metrics.observe h) [ 0.25; 3.; 100.; 1e12 ];
  reg

(* Under `dune runtest` the cwd is the test directory (fixture staged
   at ../data); under `dune exec` it is the project root. *)
let fixture_path =
  if Sys.file_exists "../data/metrics_exposition.txt" then
    "../data/metrics_exposition.txt"
  else "data/metrics_exposition.txt"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_metrics_exposition_golden () =
  let reg = build_exposition_registry () in
  let body = Obs.Metrics.to_prometheus ~registry:reg () in
  if Sys.getenv_opt "TELEMETRY_BLESS" <> None then begin
    let oc = open_out_bin fixture_path in
    output_string oc body;
    close_out oc
  end;
  Alcotest.(check string) "matches committed fixture" (read_file fixture_path)
    body

let test_metrics_exposition_order_independent () =
  (* Same state reached by different registration and mutation orders
     must scrape byte-identically. *)
  let reg = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~registry:reg "solve.ms" in
  ignore (Obs.Metrics.counter ~registry:reg "z-metric with spaces");
  Obs.Metrics.set (Obs.Metrics.gauge ~registry:reg "pool.queue_depth") 3.5;
  List.iter (Obs.Metrics.observe h) [ 100.; 1e12; 3.; 0.25 ];
  Obs.Metrics.add (Obs.Metrics.counter ~registry:reg "bnb.pruned.lb1_suffix") 7;
  ignore (Obs.Metrics.gauge ~registry:reg "unset.gauge");
  let a = Obs.Metrics.to_prometheus ~registry:reg () in
  let b =
    Obs.Metrics.to_prometheus ~registry:(build_exposition_registry ()) ()
  in
  Alcotest.(check string) "byte-identical" b a;
  (* The JSON dump shares the determinism guarantee. *)
  Alcotest.(check string)
    "dump deterministic too"
    (Obs.Json.to_string
       (Obs.Metrics.dump ~registry:(build_exposition_registry ()) ()))
    (Obs.Json.to_string (Obs.Metrics.dump ~registry:reg ()))

let test_exposition_parses_back () =
  let reg = build_exposition_registry () in
  let samples =
    Obs.Top.parse_prometheus (Obs.Metrics.to_prometheus ~registry:reg ())
  in
  Alcotest.(check (option (float 0.)))
    "counter" (Some 7.)
    (Obs.Top.value samples "bnb_pruned_lb1_suffix");
  Alcotest.(check (option (float 0.)))
    "gauge" (Some 3.5)
    (Obs.Top.value samples "pool_queue_depth");
  match Obs.Top.find samples "solve_ms" with
  | Some (Obs.Top.Histogram { count; sum; buckets }) ->
      Alcotest.(check (float 0.)) "count" 4. count;
      (* %.12g prints the 1e12 outlier to 12 significant digits, so the
         round-trip is only accurate to ~10. *)
      Alcotest.(check (float 10.)) "sum" (0.25 +. 3. +. 100. +. 1e12) sum;
      let inf_count =
        List.assoc_opt Float.infinity
          (List.map (fun (le, c) -> (le, c)) buckets)
      in
      Alcotest.(check (option (float 0.)))
        "+Inf bucket is total" (Some 4.) inf_count
  | _ -> Alcotest.fail "solve_ms did not parse as a histogram"

(* --- serve: endpoints over a real socket --- *)

let test_serve_endpoints () =
  let reg = build_exposition_registry () in
  let r = Obs.Recorder.create ~capacity:64 () in
  Obs.Recorder.emit r (Obs.Events.Incumbent { cost = 42. });
  Obs.Recorder.emit r (Obs.Events.Budget_stop { status = "deadline" });
  let srv = Obs.Serve.start ~registry:reg ~recorder:r ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Obs.Serve.stop srv)
    (fun () ->
      let port =
        match Obs.Serve.port srv with
        | Some p -> p
        | None -> Alcotest.fail "no bound port"
      in
      let target = Obs.Serve.Tcp ("127.0.0.1", port) in
      (match Obs.Serve.get target "/metrics" with
      | Ok (200, body) ->
          Alcotest.(check string)
            "exposition body"
            (Obs.Metrics.to_prometheus ~registry:reg ())
            body
      | Ok (code, _) -> Alcotest.failf "/metrics -> %d" code
      | Error e -> Alcotest.failf "/metrics: %s" e);
      (match Obs.Serve.get target "/healthz" with
      | Ok (200, body) -> (
          match Obs.Json.of_string body with
          | Ok j ->
              Alcotest.(check (option string))
                "status ok" (Some "ok")
                (Option.bind (Obs.Json.member "status" j)
                   Obs.Json.to_string_opt);
              Alcotest.(check (option int))
                "last_seq" (Some 2)
                (Option.bind (Obs.Json.member "last_seq" j)
                   Obs.Json.to_int_opt)
          | Error e -> Alcotest.failf "/healthz body: %s" e)
      | Ok (code, _) -> Alcotest.failf "/healthz -> %d" code
      | Error e -> Alcotest.failf "/healthz: %s" e);
      (match Obs.Serve.get target "/events?since=0" with
      | Ok (200, body) ->
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' body)
          in
          Alcotest.(check int) "two events" 2 (List.length lines);
          Alcotest.(check bool) "ndjson parses" true
            (List.for_all
               (fun l ->
                 match Obs.Json.of_string l with Ok _ -> true | Error _ -> false)
               lines)
      | Ok (code, _) -> Alcotest.failf "/events -> %d" code
      | Error e -> Alcotest.failf "/events: %s" e);
      (match Obs.Serve.get target "/events?since=2" with
      | Ok (200, body) -> Alcotest.(check string) "drained" "" body
      | Ok (code, _) -> Alcotest.failf "/events?since -> %d" code
      | Error e -> Alcotest.failf "/events?since: %s" e);
      match Obs.Serve.get target "/nope" with
      | Ok (404, _) -> ()
      | Ok (code, _) -> Alcotest.failf "unknown path -> %d" code
      | Error e -> Alcotest.failf "unknown path: %s" e)

let test_target_of_string () =
  let ok s = match Obs.Serve.target_of_string s with
    | Ok t -> t
    | Error e -> Alcotest.failf "%S: %s" s e
  in
  Alcotest.(check bool) "host:port" true
    (ok "127.0.0.1:9100" = Obs.Serve.Tcp ("127.0.0.1", 9100));
  Alcotest.(check bool) "bare port" true
    (ok "9100" = Obs.Serve.Tcp ("127.0.0.1", 9100));
  Alcotest.(check bool) "http url" true
    (ok "http://127.0.0.1:9100" = Obs.Serve.Tcp ("127.0.0.1", 9100));
  Alcotest.(check bool) "socket path" true
    (ok "/tmp/phylo.sock" = Obs.Serve.Unix_sock "/tmp/phylo.sock");
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Obs.Serve.target_of_string "not a target"))

(* --- phylo top: canned polls render the exact frame --- *)

let top_canned_events =
  let ev seq t_s kind = Obs.Events.to_json ~seq ~t_s ~domain:0 kind in
  [
    ev 1 0.1 (Obs.Events.Run_start { n = 26; n_blocks = 3 });
    ev 2 0.2 (Obs.Events.Block_start { id = 0; size = 12 });
    ev 3 0.5 (Obs.Events.Incumbent { cost = 181.5 });
    ev 4 1.0 (Obs.Events.Incumbent { cost = 180.25 });
    ev 5 1.0
      (Obs.Events.Block_finish
         { id = 0; size = 12; solve_s = 0.75; status = "exact" });
    ev 6 1.1 (Obs.Events.Block_start { id = 1; size = 9 });
    ev 7 1.2
      (Obs.Events.Heartbeat
         {
           worker = 0;
           expanded = 5000;
           pruned = 20000;
           open_nodes = 40;
           ub = 180.25;
           lb = 170.;
         });
    ev 8 1.3 (Obs.Events.Checkpoint_write { path = "/tmp/ck" });
  ]

let top_metrics_body expanded =
  Printf.sprintf
    "# TYPE bnb_expanded counter\n\
     bnb_expanded %d\n\
     # TYPE bnb_pruned_incumbent counter\n\
     bnb_pruned_incumbent 600\n\
     # TYPE bnb_pruned_lb1_suffix counter\n\
     bnb_pruned_lb1_suffix 400\n\
     # TYPE domain_pool_queue_depth gauge\n\
     domain_pool_queue_depth 2\n\
     # TYPE domain_pool_busy gauge\n\
     domain_pool_busy 3\n\
     # TYPE domain_pool_size gauge\n\
     domain_pool_size 4\n"
    expanded

let test_top_snapshot () =
  let st =
    Obs.Top.update Obs.Top.init ~now_s:10.0 ~events:top_canned_events
      ~metrics:(Obs.Top.parse_prometheus (top_metrics_body 123456))
      ~dropped:5
  in
  Alcotest.(check int) "last_seq tracks envelope" 8 (Obs.Top.last_seq st);
  let st =
    Obs.Top.update st ~now_s:11.0 ~events:[]
      ~metrics:(Obs.Top.parse_prometheus (top_metrics_body 223456))
      ~dropped:5
  in
  let expected =
    "phylo top — incumbent 180.250 (2 improvements)  gap 5.7%\n\
     run: n=26  blocks 1/3 done  (1 running)  block solve p50 0.750s p95 \
     0.750s\n\
     nodes: 223.5k expanded  100.0k nodes/s  queue 2  busy 3/4\n\
     prune: incumbent 60.0%  lb1_suffix 40.0%\n\
     worker 0: expanded 5.0k  pruned 20.0k  open 40  ub 180.250  lb 170\n\
     events: last_seq 8  dropped 5  checkpoints 1  polls 2\n"
  in
  Alcotest.(check string) "non-TTY frame" expected
    (Obs.Top.render ~tty:false st);
  Alcotest.(check bool) "no escapes in non-TTY frame" false
    (contains ~affix:"\x1b" (Obs.Top.render ~tty:false st));
  let tty_frame = Obs.Top.render ~tty:true st in
  Alcotest.(check bool) "TTY frame homes the cursor" true
    (contains ~affix:"\x1b[H" tty_frame);
  Alcotest.(check bool) "TTY frame clears the tail" true
    (contains ~affix:"\x1b[J" tty_frame)

(* --- flight dump on an interrupted run --- *)

let test_flight_dump_after_stop () =
  (* The SIGINT path: a cancel-flag budget stops the solve, then the
     CLI cleanup dumps the flight recorder.  Reproduce both halves and
     check the dump still holds the last incumbent. *)
  let m = hard 9 4 in
  let r = Obs.Recorder.create () in
  Obs.Recorder.install r;
  let outcome =
    Fun.protect ~finally:Obs.Recorder.uninstall (fun () ->
        let options =
          { Solver.default_options with initial_ub = Solver.No_heuristic_ub }
        in
        (* hard 9 solves in ~37 expansions from an infinite UB; a cap
           of 20 guarantees the stop fires after incumbents exist. *)
        Solver.solve ~options ~budget:(Budget.create ~max_nodes:20 ()) m)
  in
  Alcotest.(check bool) "run stopped early" true
    (outcome.Solver.status = Budget.Node_cap);
  let path = Filename.temp_file "flight" ".json" in
  Obs.Recorder.dump_flight r path;
  match Obs.Json.read_file path with
  | Error e -> Alcotest.failf "dump unreadable: %s" e
  | Ok j ->
      Alcotest.(check (option bool))
        "flight marker" (Some true)
        (Option.bind (Obs.Json.member "flight_recorder" j)
           (function Obs.Json.Bool b -> Some b | _ -> None));
      let events =
        Option.value ~default:[]
          (Option.bind (Obs.Json.member "events" j) Obs.Json.to_list_opt)
      in
      Alcotest.(check bool) "dump has events" true (events <> []);
      let kind e =
        Option.bind (Obs.Json.member "kind" e) Obs.Json.to_string_opt
      in
      let incumbents =
        List.filter (fun e -> kind e = Some "incumbent") events
      in
      Alcotest.(check bool) "an incumbent survived" true (incumbents <> []);
      let last_cost =
        match List.rev incumbents with
        | last :: _ ->
            Option.value ~default:Float.nan
              (Option.bind (Obs.Json.member "cost" last)
                 Obs.Json.to_float_opt)
        | [] -> Float.nan
      in
      Alcotest.(check (float 1e-9))
        "last incumbent is the returned cost" outcome.Solver.cost last_cost;
      Alcotest.(check bool) "budget stop recorded" true
        (List.exists (fun e -> kind e = Some "budget_stop") events);
      Sys.remove path

(* --- bit identity: telemetry on vs off --- *)

let test_recorder_bit_identity () =
  let m = hard 10 6 in
  let plain = Solver.solve m in
  let r = Obs.Recorder.create () in
  Obs.Recorder.install r;
  let traced =
    Fun.protect ~finally:Obs.Recorder.uninstall (fun () -> Solver.solve m)
  in
  Alcotest.(check bool) "recorder saw the run" true
    (Obs.Recorder.last_seq r > 0);
  Alcotest.(check (float 0.)) "cost" plain.Solver.cost traced.Solver.cost;
  Alcotest.(check bool) "tree" true
    (Utree.equal plain.Solver.tree traced.Solver.tree);
  Alcotest.(check int) "expanded" plain.Solver.stats.Stats.expanded
    traced.Solver.stats.Stats.expanded;
  Alcotest.(check int) "generated" plain.Solver.stats.Stats.generated
    traced.Solver.stats.Stats.generated;
  Alcotest.(check int) "pruned" plain.Solver.stats.Stats.pruned
    traced.Solver.stats.Stats.pruned;
  Alcotest.(check int) "ub_updates" plain.Solver.stats.Stats.ub_updates
    traced.Solver.stats.Stats.ub_updates;
  Alcotest.(check int) "max_open" plain.Solver.stats.Stats.max_open
    traced.Solver.stats.Stats.max_open;
  Alcotest.(check bool) "optimal" plain.Solver.optimal traced.Solver.optimal

(* --- incremental Chrome trace: stream, kill, recover --- *)

let stream_some_spans path =
  let buf = Obs.Span.create () in
  Obs.Span.stream_to ~flush_every:1 buf path;
  for i = 1 to 5 do
    Obs.Span.record buf
      ~args:[ ("i", Obs.Json.Int i) ]
      ~start_ns:(Int64.of_int (i * 1000))
      ~stop_ns:(Int64.of_int ((i * 1000) + 500))
      "step"
  done;
  buf

let test_stream_and_load_complete () =
  let path = Filename.temp_file "trace" ".json" in
  let buf = stream_some_spans path in
  Obs.Span.close_stream buf;
  (match Obs.Span.load_trace path with
  | Ok events -> Alcotest.(check int) "all five events" 5 (List.length events)
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_stream_truncated_recovers () =
  let path = Filename.temp_file "trace" ".json" in
  let buf = stream_some_spans path in
  (* No close_stream: the file ends flushed but unterminated, like a
     SIGKILLed run.  Every flush ended on a complete object, so all
     five events must load. *)
  (match Obs.Span.load_trace path with
  | Ok events -> Alcotest.(check int) "unterminated loads" 5 (List.length events)
  | Error e -> Alcotest.failf "unterminated load failed: %s" e);
  (* Now cut mid-object: recovery drops only the torn tail. *)
  let raw = read_file path in
  let cut = String.length raw - 12 in
  let oc = open_out_bin path in
  output_string oc (String.sub raw 0 cut);
  close_out oc;
  (match Obs.Span.load_trace path with
  | Ok events ->
      Alcotest.(check bool) "recovered a strict prefix" true
        (List.length events >= 1 && List.length events < 5)
  | Error e -> Alcotest.failf "recovery failed: %s" e);
  Obs.Span.close_stream buf;
  Sys.remove path

(* --- progress: no ANSI escapes on a redirected stderr --- *)

let with_captured_stderr f =
  let file = Filename.temp_file "captured" ".log" in
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f;
  let s = read_file file in
  Sys.remove file;
  s

let test_progress_status_line_plain () =
  let captured =
    with_captured_stderr (fun () ->
        let p =
          Obs.Progress.create ~interval_s:0.
            ~sink:(Obs.Progress.Status_line { tty = false })
            ()
        in
        Obs.Progress.observe p
          (Obs.Events.Heartbeat
             { worker = 0; expanded = 10; pruned = 5; open_nodes = 3; ub = 4.;
               lb = 2. }))
  in
  Alcotest.(check bool) "no escapes" false (contains ~affix:"\x1b" captured);
  Alcotest.(check bool) "no carriage returns" false
    (contains ~affix:"\r" captured);
  Alcotest.(check bool) "one plain line" true
    (contains ~affix:"[w0]" captured && contains ~affix:"\n" captured)

let test_progress_status_line_tty () =
  let captured =
    with_captured_stderr (fun () ->
        let p =
          Obs.Progress.create ~interval_s:0.
            ~sink:(Obs.Progress.Status_line { tty = true })
            ()
        in
        Obs.Progress.observe p
          (Obs.Events.Heartbeat
             { worker = 1; expanded = 10; pruned = 5; open_nodes = 3; ub = 4.;
               lb = 2. }))
  in
  Alcotest.(check bool) "rewrites in place" true
    (contains ~affix:"\r\x1b[2K" captured)

let () =
  Alcotest.run "telemetry"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick test_recorder_wraparound;
          Alcotest.test_case "concurrent domains" `Quick
            test_recorder_concurrent_domains;
          Alcotest.test_case "snapshot since" `Quick
            test_recorder_snapshot_since;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "golden fixture" `Quick
            test_metrics_exposition_golden;
          Alcotest.test_case "order independent" `Quick
            test_metrics_exposition_order_independent;
          Alcotest.test_case "parses back" `Quick test_exposition_parses_back;
        ] );
      ( "serve",
        [
          Alcotest.test_case "endpoints" `Quick test_serve_endpoints;
          Alcotest.test_case "target parsing" `Quick test_target_of_string;
        ] );
      ( "top",
        [ Alcotest.test_case "non-TTY snapshot" `Quick test_top_snapshot ] );
      ( "flight",
        [
          Alcotest.test_case "dump after stop" `Quick
            test_flight_dump_after_stop;
          Alcotest.test_case "bit identity" `Quick test_recorder_bit_identity;
        ] );
      ( "trace-stream",
        [
          Alcotest.test_case "stream + load" `Quick
            test_stream_and_load_complete;
          Alcotest.test_case "truncated recovery" `Quick
            test_stream_truncated_recovers;
        ] );
      ( "progress",
        [
          Alcotest.test_case "plain on non-TTY" `Quick
            test_progress_status_line_plain;
          Alcotest.test_case "rewrite on TTY" `Quick
            test_progress_status_line_tty;
        ] );
    ]
