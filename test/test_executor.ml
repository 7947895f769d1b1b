(* The Executor API and its three backends.

   - wire codecs round-trip jobs and results bit-exactly (hex floats);
   - a localhost TCP worker pool reproduces the sequential pipeline's
     cost and topology exactly;
   - a worker killed mid-block has its job retried elsewhere and the
     run still reaches the optimum;
   - a pool whose only worker times out (or that never had workers)
     degrades gracefully to local solves;
   - worker heartbeats land in the ambient recorder, so /healthz
     reports staleness for remote workers exactly as for local ones. *)

module Dist_matrix = Distmat.Dist_matrix
module Gen = Distmat.Gen
module Utree = Ultra.Utree
module Solver = Bnb.Solver
module Budget = Bnb.Budget
module Pipeline = Compactphy.Pipeline
module Run_config = Compactphy.Run_config
module Executor = Compactphy.Executor
module Wire = Compactphy.Wire
module Net_exec = Compactphy.Net_exec

let rng seed = Random.State.make [| seed |]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let job_of ?(id = 0) ?(options = Solver.default_options) ?node_share
    ?(poll_every = 32) ?trace m =
  {
    Executor.j_id = id;
    j_size = Dist_matrix.size m;
    j_matrix = m;
    j_options = options;
    j_workers = 1;
    j_node_share = node_share;
    j_poll_every = poll_every;
    j_resume = None;
    j_cache = false;
    j_trace = trace;
  }

let unwrap = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected decode error: %s" e

(* --- wire codecs --- *)

let test_wire_job_roundtrip () =
  let m = Gen.uniform_metric ~rng:(rng 1) 7 in
  let options = { Solver.default_options with Solver.gap = 0.125 } in
  let job = job_of ~id:3 ~options ~node_share:41 ~poll_every:7 ~trace:"run-1-af" m in
  let job' = unwrap (Wire.job_of_json (Wire.job_to_json job)) in
  Alcotest.(check int) "id" job.Executor.j_id job'.Executor.j_id;
  Alcotest.(check (option string)) "trace context" (Some "run-1-af")
    job'.Executor.j_trace;
  (* an untraced job stays untraced — and its frame carries no trace key
     at all, preserving byte-identity with telemetry off *)
  let bare = unwrap (Wire.job_of_json (Wire.job_to_json (job_of m))) in
  Alcotest.(check (option string)) "no trace" None bare.Executor.j_trace;
  Alcotest.(check int) "size" job.Executor.j_size job'.Executor.j_size;
  Alcotest.(check bool) "node share" true
    (job'.Executor.j_node_share = Some 41);
  Alcotest.(check int) "poll_every" 7 job'.Executor.j_poll_every;
  Alcotest.(check (float 0.)) "gap bit-exact" 0.125
    job'.Executor.j_options.Solver.gap;
  (* every matrix entry must survive bit-exactly *)
  Dist_matrix.iter_pairs
    (fun i j v ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "d(%d,%d)" i j)
        v
        (Dist_matrix.get job'.Executor.j_matrix i j))
    m

let test_wire_solved_roundtrip () =
  let m = Gen.uniform_metric ~rng:(rng 2) 9 in
  (* A capped solve, so the solved value carries a genuine incumbent,
     non-trivial stats and an open frontier. *)
  let monitor = Budget.arm (Budget.create ~max_nodes:15 ~poll_every:1 ()) in
  let sv = Executor.solve_job ~monitor (job_of m) in
  Alcotest.(check bool) "capped run has a frontier" true
    (sv.Executor.s_frontier <> []);
  let sv' = unwrap (Wire.solved_of_json (Wire.solved_to_json sv)) in
  Alcotest.(check bool) "tree" true
    (Utree.equal sv.Executor.s_tree sv'.Executor.s_tree);
  Alcotest.(check (float 0.)) "lb bit-exact" sv.Executor.s_lb
    sv'.Executor.s_lb;
  Alcotest.(check bool) "status" true
    (sv.Executor.s_status = sv'.Executor.s_status);
  Alcotest.(check int) "expanded" sv.Executor.s_stats.Bnb.Stats.expanded
    sv'.Executor.s_stats.Bnb.Stats.expanded;
  Alcotest.(check int) "pruned" sv.Executor.s_stats.Bnb.Stats.pruned
    sv'.Executor.s_stats.Bnb.Stats.pruned;
  Alcotest.(check bool) "frontier" true
    (List.equal Utree.equal sv.Executor.s_frontier sv'.Executor.s_frontier)

let test_wire_trace_roundtrip () =
  let proc =
    {
      Obs.Procstat.minor_collections = 12;
      major_collections = 3;
      compactions = 1;
      heap_words = 1 lsl 20;
      rss_bytes = 64 lsl 20;
    }
  in
  let rt =
    {
      (* worker-clock nanoseconds travel as decimal strings, so pick
         values past 2^53 to catch any float round-trip *)
      Wire.rt_spans =
        [
          {
            Wire.sp_name = "job.solve";
            sp_start_ns = 9_223_372_036_854_775_806L;
            sp_dur_ns = 2_500_000L;
            sp_args =
              [ ("job", Obs.Json.Int 3); ("trace", Obs.Json.String "run-1-af") ];
          };
        ];
      rt_now_ns = 9_007_199_254_740_993L;
      rt_proc = Some proc;
    }
  in
  let rt' = unwrap (Wire.remote_trace_of_json (Wire.remote_trace_to_json rt)) in
  (match rt'.Wire.rt_spans with
  | [ sp ] ->
      Alcotest.(check string) "span name" "job.solve" sp.Wire.sp_name;
      Alcotest.(check bool) "start ns exact" true
        (sp.Wire.sp_start_ns = 9_223_372_036_854_775_806L);
      Alcotest.(check bool) "dur ns exact" true (sp.Wire.sp_dur_ns = 2_500_000L);
      Alcotest.(check bool) "args survive" true
        (List.assoc_opt "trace" sp.Wire.sp_args
        = Some (Obs.Json.String "run-1-af"))
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  Alcotest.(check bool) "now_ns exact" true
    (rt'.Wire.rt_now_ns = 9_007_199_254_740_993L);
  match rt'.Wire.rt_proc with
  | Some p ->
      Alcotest.(check int) "rss" (64 lsl 20) p.Obs.Procstat.rss_bytes;
      Alcotest.(check int) "minors" 12 p.Obs.Procstat.minor_collections
  | None -> Alcotest.fail "proc sample lost in transit"

let test_wire_frames_over_socket () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let m = Gen.uniform_metric ~rng:(rng 3) 5 in
      let frames =
        [
          Wire.Hello { version = Wire.version };
          Wire.Welcome { version = Wire.version; worker_id = 7 };
          Wire.Job (job_of ~id:2 m);
          Wire.Heartbeat
            {
              job_id = Some 2;
              expanded = 19;
              now_ns = 123456789L;
              proc = None;
            };
          Wire.Cancel { job_id = 2 };
          Wire.Shutdown;
        ]
      in
      List.iter (Wire.write_frame a) frames;
      List.iter
        (fun sent ->
          match Wire.read_frame b with
          | Error _ -> Alcotest.fail "read_frame failed"
          | Ok got -> (
              match (sent, got) with
              | Wire.Job j, Wire.Job j' ->
                  Alcotest.(check int) "job id" j.Executor.j_id
                    j'.Executor.j_id
              | Wire.Heartbeat { expanded; _ }, Wire.Heartbeat h ->
                  Alcotest.(check int) "expanded" expanded h.expanded
              | s, g ->
                  Alcotest.(check bool)
                    "same constructor" true
                    (Wire.frame_to_json s = Wire.frame_to_json g)))
        frames;
      Unix.close a;
      match Wire.read_frame b with
      | Error Wire.Eof -> ()
      | Error (Wire.Bad e) -> Alcotest.failf "expected Eof, got Bad %s" e
      | Ok _ -> Alcotest.fail "expected Eof after peer close")

(* --- TCP pool helpers --- *)

(* Run [f] with in-process worker threads dialing every coordinator the
   pipeline binds; [specs] gives one [die_after_jobs] per worker. *)
let with_worker_threads specs f =
  let threads = ref [] in
  Net_exec.on_bound (fun host port ->
      List.iter
        (fun die_after_jobs ->
          let th =
            Thread.create
              (fun () ->
                try
                  ignore
                    (Net_exec.run_worker ?die_after_jobs
                       ~heartbeat_every_s:0.02
                       ~connect:(Printf.sprintf "%s:%d" host port) ())
                with _ -> ())
              ()
          in
          threads := th :: !threads)
        specs);
  Fun.protect
    ~finally:(fun () ->
      Net_exec.on_bound (fun _ _ -> ());
      List.iter Thread.join !threads)
    (fun () -> f ())

let tcp_config =
  Run_config.(
    default
    |> with_executor Compactphy.Executor.Tcp
    |> with_workers_addr "127.0.0.1:0")

(* --- bit-identity: localhost pool vs sequential --- *)

let test_tcp_bit_identical () =
  let m = Gen.clustered ~rng:(rng 4) ~n_clusters:3 15 in
  let seq = Pipeline.with_compact_sets m in
  let tcp =
    with_worker_threads [ None; None ] (fun () ->
        Pipeline.with_compact_sets ~config:tcp_config m)
  in
  Alcotest.(check (float 0.)) "cost bit-identical" seq.Pipeline.cost
    tcp.Pipeline.cost;
  Alcotest.(check bool) "topology identical" true
    (Utree.equal seq.Pipeline.tree tcp.Pipeline.tree);
  Alcotest.(check int) "same blocks" seq.Pipeline.n_blocks
    tcp.Pipeline.n_blocks;
  Alcotest.(check bool) "exact" true (tcp.Pipeline.status = Budget.Exact);
  Alcotest.(check int) "same expansions"
    seq.Pipeline.stats.Bnb.Stats.expanded tcp.Pipeline.stats.Bnb.Stats.expanded

let test_tcp_exact_entrypoint () =
  let m = Gen.uniform_metric ~rng:(rng 5) 9 in
  (* [exact] routes its single job — the whole run — through the
     configured executor, so a tcp config really solves remotely. *)
  let seq = Pipeline.exact m in
  let tcp =
    with_worker_threads [ None ] (fun () ->
        Pipeline.exact ~config:tcp_config m)
  in
  Alcotest.(check (float 0.)) "cost" seq.Pipeline.cost tcp.Pipeline.cost;
  Alcotest.(check bool) "topology identical" true
    (Utree.equal seq.Pipeline.tree tcp.Pipeline.tree)

(* --- fault injection --- *)

let test_worker_death_retries () =
  let m = Gen.clustered ~rng:(rng 6) ~n_clusters:3 15 in
  let seq = Pipeline.with_compact_sets m in
  (* First worker drops dead on its first job, mid-block; the second
     worker (or a later retry) must pick the job up. *)
  let tcp =
    with_worker_threads
      [ Some 1; None ]
      (fun () -> Pipeline.with_compact_sets ~config:tcp_config m)
  in
  Alcotest.(check (float 0.)) "optimum survives worker death"
    seq.Pipeline.cost tcp.Pipeline.cost;
  Alcotest.(check bool) "topology identical" true
    (Utree.equal seq.Pipeline.tree tcp.Pipeline.tree)

let test_timeout_falls_back_to_local () =
  let m = Gen.uniform_metric ~rng:(rng 7) 8 in
  let monitor = Budget.arm Budget.unlimited in
  let exec, port =
    Net_exec.coordinator ~job_timeout_s:0.3 ~fallback_after_s:0.2
      ~max_retries:0 ~addr:"127.0.0.1:0" ~monitor ()
  in
  (* The only worker sits on its result for longer than the timeout, so
     the coordinator must kill it and solve locally. *)
  let th =
    Thread.create
      (fun () ->
        try
          ignore
            (Net_exec.run_worker ~delay_result_s:2.0
               ~connect:(Printf.sprintf "127.0.0.1:%d" port) ())
        with _ -> ())
      ()
  in
  let fut = exec.Executor.submit (job_of m) in
  let o = fut.Executor.await () in
  exec.Executor.shutdown ();
  Thread.join th;
  let r = Solver.solve m in
  Alcotest.(check (float 0.)) "local fallback reaches the optimum"
    r.Solver.cost
    (Utree.weight o.Executor.o_solved.Executor.s_tree)

let test_no_workers_degrades () =
  let m = Gen.uniform_metric ~rng:(rng 8) 8 in
  let monitor = Budget.arm Budget.unlimited in
  let exec, _port =
    Net_exec.coordinator ~fallback_after_s:0.1 ~addr:"127.0.0.1:0" ~monitor ()
  in
  let fut = exec.Executor.submit (job_of m) in
  let o = fut.Executor.await () in
  exec.Executor.shutdown ();
  let r = Solver.solve m in
  Alcotest.(check (float 0.)) "worker-less pool still solves" r.Solver.cost
    (Utree.weight o.Executor.o_solved.Executor.s_tree);
  Alcotest.(check bool) "and it is exact" true
    (o.Executor.o_solved.Executor.s_status = Budget.Exact)

(* --- merged tracing --- *)

(* A traced two-worker run must leave one merged timeline: coordinator
   job.queue/job.rpc spans plus worker job.solve spans re-recorded on
   per-worker pid tracks, clock-aligned into the coordinator's envelope
   and tagged with the run's trace context — and the whole thing must
   reconcile with the observed wall clock. *)
let test_tcp_merged_trace () =
  let m = Gen.clustered ~rng:(rng 12) ~n_clusters:3 15 in
  let buf = Obs.Span.create () in
  Obs.Span.install buf;
  Obs.Span.set_process_name buf ~pid:Obs.Span.self_pid "coordinator";
  let config = Run_config.with_run_id "run-test-1" tcp_config in
  let t0 = Obs.Clock.counter () in
  let run =
    Fun.protect ~finally:Obs.Span.uninstall (fun () ->
        with_worker_threads [ None; None ] (fun () ->
            Pipeline.with_compact_sets ~config m))
  in
  let wall_s = Obs.Clock.elapsed_s t0 in
  Alcotest.(check bool) "run finished" true (run.Pipeline.cost > 0.);
  let events = Obs.Span.events buf in
  let named n = List.filter (fun e -> e.Obs.Span.name = n) events in
  Alcotest.(check bool) "queue spans recorded" true (named "job.queue" <> []);
  Alcotest.(check bool) "rpc spans recorded" true (named "job.rpc" <> []);
  let worker_solves =
    List.filter (fun e -> e.Obs.Span.pid <> Obs.Span.self_pid) (named "job.solve")
  in
  Alcotest.(check bool) "worker solves merged" true (worker_solves <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "tagged with the run's trace context" true
        (List.assoc_opt "trace" e.Obs.Span.args
        = Some (Obs.Json.String "run-test-1"));
      (* Clock alignment: the translated span must land inside the
         coordinator's own time envelope. *)
      let start_s = Int64.to_float e.Obs.Span.start_ns /. 1e9 in
      let finish_s =
        Int64.to_float (Int64.add e.Obs.Span.start_ns e.Obs.Span.dur_ns) /. 1e9
      in
      Alcotest.(check bool) "starts after the trace origin" true
        (start_s >= -0.001);
      Alcotest.(check bool) "finishes within the wall clock" true
        (finish_s <= wall_s +. 0.1))
    worker_solves;
  (* Worker tracks got process_name labels when their spans merged. *)
  let labels =
    List.filter_map
      (fun e ->
        if e.Obs.Span.ph = "M" && e.Obs.Span.pid <> Obs.Span.self_pid then
          match List.assoc_opt "name" e.Obs.Span.args with
          | Some (Obs.Json.String l) -> Some l
          | _ -> None
        else None)
      events
  in
  Alcotest.(check bool) "worker track labelled" true
    (List.exists (fun l -> contains l "worker") labels);
  (* And the timeline model reconciles the file with the wall clock. *)
  let path = Filename.temp_file "tcp-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Span.write_chrome buf path;
      let evs =
        match Obs.Span.load_trace path with
        | Ok evs -> evs
        | Error e -> Alcotest.failf "load_trace: %s" e
      in
      let t = Obs.Timeline.of_events evs in
      Alcotest.(check bool) "timeline has job rows" true
        (t.Obs.Timeline.jobs <> []);
      Alcotest.(check bool) "some solve on a worker track" true
        (List.exists
           (fun r -> r.Obs.Timeline.solve_pid <> Obs.Span.self_pid)
           t.Obs.Timeline.jobs);
      match Obs.Timeline.reconcile t ~wall_s with
      | Ok () -> ()
      | Error es ->
          Alcotest.failf "timeline does not reconcile: %s"
            (String.concat "; " es))

(* --- heartbeats and /healthz --- *)

(* Poll /healthz until it answers [want] or [deadline_s] passes, then
   return the last response.  A fixed sleep flakes both ways under CI
   load (the machine may stall past the staleness threshold before a
   "fresh" check, or not schedule the listener within a fixed window),
   so both assertions poll with a deadline instead.  [prepare] runs
   before every attempt (e.g. to emit a fresh heartbeat). *)
let poll_healthz ?(prepare = fun () -> ()) target ~want ~deadline_s =
  let t0 = Obs.Clock.counter () in
  let rec go () =
    prepare ();
    match Obs.Serve.get target "/healthz" with
    | Ok (code, _) as r
      when code = want || Obs.Clock.elapsed_s t0 > deadline_s ->
        r
    | Ok _ ->
        Thread.delay 0.05;
        go ()
    | Error _ as e -> e
  in
  go ()

let test_heartbeats_reach_healthz () =
  let recorder = Obs.Recorder.create () in
  Obs.Recorder.install recorder;
  let srv = Obs.Serve.start ~recorder ~stale_after_s:0.4 () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Serve.stop srv;
      Obs.Recorder.uninstall ())
    (fun () ->
      let m = Gen.clustered ~rng:(rng 9) ~n_clusters:3 15 in
      let run =
        with_worker_threads [ None ] (fun () ->
            Pipeline.with_compact_sets ~config:tcp_config m)
      in
      Alcotest.(check bool) "run finished" true (run.Pipeline.cost > 0.);
      let kinds =
        List.map
          (fun e -> e.Obs.Recorder.kind)
          (Obs.Recorder.snapshot recorder)
      in
      Alcotest.(check bool) "worker heartbeat recorded" true
        (List.exists
           (function Obs.Events.Heartbeat _ -> true | _ -> false)
           kinds);
      (* Every block solved remotely, and a remote heartbeat knows no
         bounds: it carries NaN, never a fabricated 0 incumbent.  (The
         worker threads share this process, so their solvers' own
         heartbeats, with real bounds, are recorded too.) *)
      let bounds =
        List.filter_map
          (function
            | Obs.Events.Heartbeat { ub; lb; _ } -> Some (ub, lb) | _ -> None)
          kinds
      in
      Alcotest.(check bool) "remote heartbeats carry NaN ub/lb" true
        (List.exists (fun (ub, lb) -> Float.is_nan ub && Float.is_nan lb) bounds);
      Alcotest.(check bool) "no heartbeat claims a 0 bound" false
        (List.exists (fun (ub, lb) -> ub = 0. || lb = 0.) bounds);
      let target =
        Obs.Serve.Tcp ("127.0.0.1", Option.get (Obs.Serve.port srv))
      in
      (* Re-emit a heartbeat before every attempt so freshness does not
         depend on how long ago the run's workers went quiet. *)
      let fresh_heartbeat () =
        Obs.Recorder.emit_ambient
          (Obs.Events.Heartbeat
             {
               worker = 0;
               expanded = 0;
               pruned = 0;
               open_nodes = 0;
               ub = Float.nan;
               lb = Float.nan;
             })
      in
      (match
         poll_healthz ~prepare:fresh_heartbeat target ~want:200 ~deadline_s:5.
       with
      | Ok (code, body) ->
          Alcotest.(check int) "fresh heartbeat -> 200" 200 code;
          Alcotest.(check bool) "reports staleness" true
            (contains body "heartbeat_staleness_s")
      | Error e -> Alcotest.failf "/healthz: %s" e);
      (* No more heartbeats: staleness must cross the 0.4 s threshold
         well before the deadline. *)
      match poll_healthz target ~want:503 ~deadline_s:10. with
      | Ok (code, _) -> Alcotest.(check int) "stale -> 503" 503 code
      | Error e -> Alcotest.failf "/healthz (stale): %s" e)

(* --- sim backend --- *)

let test_sim_backend () =
  let m = Gen.clustered ~rng:(rng 10) ~n_clusters:3 15 in
  let seq = Pipeline.with_compact_sets m in
  let sim =
    Pipeline.with_compact_sets
      ~config:
        Run_config.(
          default |> with_executor Compactphy.Executor.Sim |> with_workers 4)
      m
  in
  Alcotest.(check (float 1e-9)) "simulated cluster finds the same optimum"
    seq.Pipeline.cost sim.Pipeline.cost;
  Alcotest.(check int) "same blocks" seq.Pipeline.n_blocks sim.Pipeline.n_blocks

let () =
  Alcotest.run "executor"
    [
      ( "wire",
        [
          Alcotest.test_case "job round trip" `Quick test_wire_job_roundtrip;
          Alcotest.test_case "solved round trip" `Quick
            test_wire_solved_roundtrip;
          Alcotest.test_case "trace payload round trip" `Quick
            test_wire_trace_roundtrip;
          Alcotest.test_case "frames over a socket" `Quick
            test_wire_frames_over_socket;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "bit-identical to sequential" `Quick
            test_tcp_bit_identical;
          Alcotest.test_case "exact entry point" `Quick
            test_tcp_exact_entrypoint;
          Alcotest.test_case "worker death mid-block" `Quick
            test_worker_death_retries;
          Alcotest.test_case "timeout falls back to local" `Quick
            test_timeout_falls_back_to_local;
          Alcotest.test_case "no workers degrades" `Quick
            test_no_workers_degrades;
          Alcotest.test_case "two-worker merged trace" `Quick
            test_tcp_merged_trace;
          Alcotest.test_case "heartbeats reach /healthz" `Quick
            test_heartbeats_reach_healthz;
        ] );
      ( "sim",
        [ Alcotest.test_case "simulator backend" `Quick test_sim_backend ] );
    ]
