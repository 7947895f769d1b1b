(* compactphy — command-line interface.

   Subcommands: gen, stats, compact-sets, tree, compare, simulate.
   Matrices travel as PHYLIP square files (see Distmat.Matrix_io). *)

module Dist_matrix = Distmat.Dist_matrix
module Metric = Distmat.Metric
module Matrix_io = Distmat.Matrix_io
module Gen = Distmat.Gen
module Compact_sets = Cgraph.Compact_sets
module Newick = Ultra.Newick
module Solver = Bnb.Solver
module Kernel = Bnb.Kernel
module Strategy = Bnb.Strategy
module Pipeline = Compactphy.Pipeline
module Run_config = Compactphy.Run_config
module Budget = Bnb.Budget
module Checkpoint = Bnb.Checkpoint
module Decompose = Compactphy.Decompose
module Platform = Clustersim.Platform
module Dist_bnb = Clustersim.Dist_bnb
module Executor = Compactphy.Executor
module Net_exec = Compactphy.Net_exec

open Cmdliner

let read_matrix path =
  let named = Matrix_io.of_phylip (Matrix_io.read_file path) in
  (named.Matrix_io.names, named.Matrix_io.matrix)

(* --- observability plumbing (see doc/observability.mld) ---

   Every solving subcommand composes [obs_term]: it installs the Logs
   reporter honouring -v/--verbosity, and returns a config whose
   [with_obs] wrapper arranges for --trace / --metrics files to be
   written when the command finishes (also on failure). *)

type obs_cfg = {
  trace : string option;
  metrics : string option;
  progress : bool;
  telemetry_port : int option;
  telemetry_socket : string option;
  flight : string option;
  run_id : string option;
      (* trace context, minted iff some telemetry surface is on — so
         telemetry-off runs carry no id and stay byte-identical *)
}

let obs_setup style_renderer level trace metrics progress telemetry_port
    telemetry_socket flight =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ~app:Fmt.stderr ~dst:Fmt.stderr ());
  (* Progress lines are emitted at [info]; make sure they show when the
     user asked for them, whatever the global verbosity. *)
  if progress then Logs.Src.set_level Obs.Progress.src (Some Logs.Info);
  let run_id =
    if
      trace <> None || metrics <> None || telemetry_port <> None
      || telemetry_socket <> None || flight <> None || progress
    then
      Some
        (Printf.sprintf "run-%d-%Lx" (Unix.getpid ()) (Obs.Clock.now_ns ()))
    else None
  in
  {
    trace;
    metrics;
    progress;
    telemetry_port;
    telemetry_socket;
    flight;
    run_id;
  }

let obs_term =
  let trace =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record spans and write them as Chrome-trace JSON to $(docv) \
             (open at chrome://tracing or ui.perfetto.dev).")
  in
  let metrics =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Dump the metrics registry as JSON to $(docv) on exit.")
  in
  let progress =
    Cmdliner.Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Stream live branch-and-bound progress (expanded / pruned / \
             open-list / UB-LB gap) to stderr twice a second.")
  in
  let telemetry_port =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "telemetry-port" ] ~docv:"PORT"
          ~doc:
            "Serve live telemetry over HTTP on 127.0.0.1:$(docv) while the \
             command runs: $(b,/metrics) (Prometheus text exposition), \
             $(b,/healthz) and $(b,/events) (flight-recorder NDJSON).  \
             Port 0 picks a free ephemeral port; the bound address is \
             printed to stderr.  Watch it live with $(b,phylo top).")
  in
  let telemetry_socket =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-socket" ] ~docv:"PATH"
          ~doc:
            "Like $(b,--telemetry-port), but listen on a Unix socket at \
             $(docv) instead of a TCP port.")
  in
  let flight =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"FILE"
          ~doc:
            "Arm the in-memory flight recorder and write its tail (the \
             last ~4096 events: incumbents, block lifecycles, budget \
             stops, worker heartbeats) to $(docv) as JSON when the run \
             ends — including on Ctrl-C and crashes.")
  in
  Cmdliner.Term.(
    const obs_setup $ Fmt_cli.style_renderer () $ Logs_cli.level () $ trace
    $ metrics $ progress $ telemetry_port $ telemetry_socket $ flight)

(* Fail before the (possibly long) run, not after it, when a telemetry
   output path cannot be written. *)
let check_writable = function
  | None -> ()
  | Some path -> (
      try close_out (open_out path)
      with Sys_error e ->
        Fmt.epr "phylo: cannot write %s@." e;
        exit 1)

let with_obs cfg f =
  check_writable cfg.trace;
  check_writable cfg.metrics;
  check_writable cfg.flight;
  (* Traces stream to disk incrementally: each flush ends on a complete
     event object, so even a hard kill leaves a file the viewers (and
     Obs.Span.load_trace) still read. *)
  (match cfg.trace with
  | Some path ->
      let buf = Obs.Span.create () in
      Obs.Span.install buf;
      (* Label this process's track; worker tracks are labelled by the
         coordinator as results carrying spans arrive. *)
      Obs.Span.set_process_name buf ~pid:Obs.Span.self_pid "coordinator";
      Obs.Span.stream_to buf path
  | None -> ());
  (* Any live-telemetry surface arms the flight recorder; solver emit
     sites cost one atomic load when it stays off.  --progress is one of
     them: it prints the recorder's worker heartbeats. *)
  let recorder =
    if cfg.telemetry_port <> None || cfg.telemetry_socket <> None
       || cfg.flight <> None || cfg.progress
    then
      let progress =
        if cfg.progress then Some (Obs.Progress.create ()) else None
      in
      Some (Obs.Recorder.create ?progress ())
    else None
  in
  Option.iter Obs.Recorder.install recorder;
  let server =
    match (cfg.telemetry_port, cfg.telemetry_socket) with
    | Some _, Some _ ->
        Fmt.epr
          "phylo: give either --telemetry-port or --telemetry-socket, not \
           both@.";
        exit 1
    | Some port, None -> Some (Obs.Serve.start ?recorder ~port ())
    | None, Some path -> Some (Obs.Serve.start ?recorder ~socket:path ())
    | None, None -> None
  in
  Option.iter
    (fun srv ->
      (* Plain stderr, not Logs: scripts (and the CI smoke job) read the
         ephemeral port back from this line at any verbosity. *)
      Fmt.epr "phylo: telemetry on %s@." (Obs.Serve.addr_string srv))
    server;
  (* One cleanup, reachable two ways: the normal/exception path through
     Fun.protect, and at_exit for the hard paths (second Ctrl-C calls
     [exit], which does not unwind the stack). *)
  let cleaned = Atomic.make false in
  let cleanup () =
    if not (Atomic.exchange cleaned true) then begin
      (match (cfg.trace, Obs.Span.installed ()) with
      | Some path, Some buf ->
          Obs.Span.close_stream buf;
          Logs.info (fun m ->
              m "wrote %d spans to %s" (Obs.Span.length buf) path)
      | _ -> ());
      (match (recorder, cfg.flight) with
      | Some r, Some path ->
          Obs.Recorder.dump_flight r path;
          Fmt.epr "phylo: flight-recorder dump written to %s@." path
      | _ -> ());
      (match cfg.metrics with
      | Some path -> Obs.Metrics.write_file path
      | None -> ());
      Option.iter Obs.Serve.stop server
    end
  in
  at_exit cleanup;
  Fun.protect ~finally:cleanup f

let write_or_print output contents =
  match output with
  | None -> print_string contents
  | Some path -> Matrix_io.write_file path contents

(* --- common options --- *)

let input_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"MATRIX" ~doc:"Input distance matrix (PHYLIP square).")

let output_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write output to $(docv).")

let seed_opt =
  Arg.(
    value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let species_opt =
  Arg.(
    value
    & opt int 12
    & info [ "n"; "species" ] ~docv:"N" ~doc:"Number of species.")

(* Worker counts are validated at parse time: a zero or negative count
   would otherwise reach the library as an Invalid_argument mid-run. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "expected a count >= 1, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let workers_opt =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "j"; "workers" ] ~docv:"N"
        ~doc:
          "Worker domains inside each branch-and-bound search (must be \
           >= 1; overrides the preset).")

let block_workers_opt =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "block-workers" ] ~docv:"N"
        ~doc:
          "Independent compact-set blocks solved concurrently \
           (largest-first; must be >= 1; overrides the preset).  \
           Composes with $(b,--workers): up to $(docv) * workers domains \
           run at once.  Results are identical to the sequential \
           schedule.")

let executor_opt =
  Arg.(
    value
    & opt (some (enum Executor.kind_names)) None
    & info [ "executor" ] ~docv:"BACKEND"
        ~doc:
          "Where block solves run: $(b,local) (this process — the \
           default), $(b,sim) (the master/slave cluster simulator) or \
           $(b,tcp) (a real worker pool; requires $(b,--workers-addr) \
           and at least one $(b,phylo worker) connected).  Budgets, \
           checkpoints and manifests compose unchanged across backends.")

let addr_conv =
  let parse s =
    match Executor.parse_addr s with
    | Ok _ -> Ok s
    | Error e -> Error (`Msg e)
  in
  Arg.conv ~docv:"HOST:PORT" (parse, Format.pp_print_string)

let workers_addr_opt =
  Arg.(
    value
    & opt (some addr_conv) None
    & info [ "workers-addr" ] ~docv:"HOST:PORT"
        ~doc:
          "Bind address for the $(b,--executor tcp) coordinator.  Port \
           $(b,0) picks an ephemeral port; the bound address is logged \
           as \"worker pool listening on HOST:PORT\" so workers know \
           where to connect.")

(* Budgets: a deadline must be a positive, finite number of seconds. *)
let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some d when d > 0. && Float.is_finite d -> Ok d
    | Some d ->
        Error
          (`Msg (Printf.sprintf "expected a positive duration, got %g" d))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv ~docv:"SECONDS" (parse, fun ppf d -> Format.fprintf ppf "%g" d)

let deadline_opt =
  Arg.(
    value
    & opt (some pos_float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the whole run.  When it fires, the \
           search stops at a clean node boundary and reports the best \
           tree found so far together with a certified lower bound \
           (status $(b,deadline)).")

let max_nodes_opt =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:
          "Stop after expanding $(docv) branch-and-bound nodes across \
           the whole run (split over compact-set blocks proportionally \
           to their expected work; status $(b,node_cap)).")

let cache_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Memoize certified block solves in a content-addressed store \
           under $(docv) (created if missing).  Re-runs and runs \
           sharing sub-problems replay cached results bit-for-bit — \
           cost, topology and search counters; budget-interrupted \
           solves are never cached.  Hit/miss counters appear in \
           $(b,--metrics) dumps, $(b,/metrics) and run manifests.")

let cache_max_bytes_opt =
  Arg.(
    value
    & opt (some pos_int) None
    & info [ "cache-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Bound the on-disk size of the $(b,--cache) store: after each \
           store the oldest entries (by modification time; hits refresh \
           it) are evicted until the directory fits in $(docv) bytes.  \
           Evictions are counted in the $(b,cache.disk_evictions) \
           metric.  Unbounded when omitted.")

let linkage_opt =
  Arg.(
    value
    & opt (some (enum Decompose.linkage_names)) None
    & info [ "linkage" ] ~docv:"KIND"
        ~doc:
          "Representative distance for small matrices: $(b,max) (the \
           paper's variant, the default), $(b,min) or $(b,avg).")

let preset_opt =
  Arg.(
    value
    & opt (some (enum Run_config.preset_names)) None
    & info [ "preset" ] ~docv:"NAME"
        ~doc:
          "Named configuration: $(b,paper) (the published sequential \
           setup with the reference expansion kernel), $(b,fast) \
           (incremental kernels plus host-sized parallelism) or \
           $(b,exhaustive) (gather every optimal tree, best-first).  \
           Individual flags override the preset; the manifest records \
           both.")

let kernel_opt =
  Arg.(
    value
    & opt (some (enum Kernel.kind_names)) None
    & info [ "kernel" ] ~docv:"KERNEL"
        ~doc:
          "Branch-and-bound expansion kernel: $(b,incremental) (score \
           insertions from the flat matrix, realise only un-pruned \
           children — the default) or $(b,reference) (materialise all \
           children first — the seed behaviour).  Both explore the \
           identical search tree.")

let exploration_opt =
  Arg.(
    value
    & opt (some (enum Strategy.exploration_names)) None
    & info [ "exploration" ] ~docv:"STRATEGY"
        ~doc:
          "Exploration strategy: $(b,dfs) (the papers' depth-first \
           search, the default), $(b,best-first) (always expand the \
           open node of least lower bound) or $(b,hybrid) (depth-first \
           dive to a complete tree, then best-first).  All three reach \
           the same optimal cost; they differ in node visits and \
           memory.")

let branching_opt =
  Arg.(
    value
    & opt (some (enum Strategy.branching_names)) None
    & info [ "branching" ] ~docv:"ORDER"
        ~doc:
          "Branching (child-ordering) strategy: $(b,paper) (ascending \
           lower bound, as published — the default), $(b,largest) \
           (root-nearest insertion points first) or $(b,residual) \
           (descending lower bound).")

(* A gap of exactly 0 is the exact search, so unlike durations the
   tolerance may be zero. *)
let nonneg_float =
  let parse s =
    match float_of_string_opt s with
    | Some g when g >= 0. && Float.is_finite g -> Ok g
    | Some g ->
        Error
          (`Msg
             (Printf.sprintf "expected a tolerance >= 0, got %g" g))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv ~docv:"EPS" (parse, fun ppf g -> Format.fprintf ppf "%g" g)

let gap_opt =
  Arg.(
    value
    & opt (some nonneg_float) None
    & info [ "gap" ] ~docv:"EPS"
        ~doc:
          "Optimality-gap tolerance: prune once a node's lower bound \
           times $(i,1 + EPS) meets the incumbent.  The returned tree \
           is certified within a relative factor $(docv) of the \
           optimum (the exact certificate is recorded in the manifest \
           as $(b,certified_gap)).  $(b,0) (the default) keeps the \
           search exact, decision for decision.")

let apply v f cfg = match v with Some v -> f v cfg | None -> cfg

(* The run configuration every solving command shares.  Preset first,
   then explicit flags on top, so [--preset fast -j 1] means "fast, but
   sequential inside each block". *)
let config_term =
  let make preset kernel linkage workers block_workers exploration branching
      gap cache cache_max_bytes deadline max_nodes =
    Run_config.default
    |> apply preset (fun p _ -> Run_config.of_preset p)
    |> apply linkage Run_config.with_linkage
    |> apply workers Run_config.with_workers
    |> apply block_workers Run_config.with_block_workers
    |> apply cache Run_config.with_cache_dir
    |> apply cache_max_bytes Run_config.with_cache_max_bytes
    |> apply kernel (fun k cfg ->
           Run_config.with_solver
             { cfg.Run_config.solver with Solver.kernel = k }
             cfg)
    |> apply exploration Run_config.with_exploration
    |> apply branching Run_config.with_branching
    |> apply gap Run_config.with_gap
    |> apply deadline Run_config.with_deadline
    |> apply max_nodes Run_config.with_max_nodes
  in
  Term.(
    const make $ preset_opt $ kernel_opt $ linkage_opt $ workers_opt
    $ block_workers_opt $ exploration_opt $ branching_opt $ gap_opt
    $ cache_opt $ cache_max_bytes_opt $ deadline_opt $ max_nodes_opt)

(* [config_term] plus the backend choice, for the commands that run one
   pipeline per invocation ([serve] builds a coordinator per request,
   so it has no use for them). *)
let executor_config_term =
  let set executor workers_addr cfg =
    cfg
    |> apply executor Run_config.with_executor
    |> apply workers_addr Run_config.with_workers_addr
  in
  Term.(const set $ executor_opt $ workers_addr_opt $ config_term)

(* Attach the runtime handles no flag spells — the trace id of [obs]
   and the SIGINT [cancel] flag — then surface an incoherent flag
   combination (e.g. --executor tcp without --workers-addr) as a usage
   error, not a backtrace. *)
let finish_config ?cancel obs config =
  let config =
    config
    |> apply obs.run_id Run_config.with_run_id
    |> apply cancel Run_config.with_cancel
  in
  try Run_config.validate ~who:"phylo" config
  with Invalid_argument msg ->
    Fmt.epr "%s@." msg;
    Stdlib.exit 124

(* First Ctrl-C flips the cancel flag the solvers poll cooperatively —
   the run winds down at a node boundary, reports status [cancelled]
   and writes its checkpoint if asked to; a second Ctrl-C aborts
   immediately. *)
let install_sigint () =
  let flag = Atomic.make false in
  (try
     Sys.set_signal Sys.sigint
       (Sys.Signal_handle
          (fun _ ->
            if Atomic.get flag then Stdlib.exit 130
            else begin
              Atomic.set flag true;
              prerr_endline
                "phylo: interrupted - finishing cleanly (Ctrl-C again to \
                 abort)"
            end))
   with Invalid_argument _ | Sys_error _ -> ());
  flag

let load_checkpoint path =
  match Checkpoint.load path with
  | Ok ck -> ck
  | Error e ->
      Fmt.epr "phylo: cannot resume from %s: %s@." path e;
      Stdlib.exit 1

(* The preset choice itself is not derivable from the config record;
   stamp it into manifests next to the expanded configuration. *)
let stamp_preset report preset =
  Obs.Report.set report "preset"
    (match preset with
    | Some p -> Obs.Json.enum Run_config.preset_names p
    | None -> Obs.Json.Null)

(* --- --explain: human-readable search forensics --- *)

let explain_opt =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "After solving, print search forensics: pruning attribution \
           by reason and depth, the expansion/branching profile, the \
           slowest compact-set blocks with their queue waits, and \
           branch-and-bound solve-time percentiles.")

let print_explain ~stats ~report =
  Fmt.pr "@[<v>== search forensics ==@,%a@]@." Obs.Attribution.pp_summary
    stats.Bnb.Stats.att;
  (* Which strategy produced these numbers, and what the run proved. *)
  (match Obs.Report.field report "strategy" with
  | Some (Obs.Json.Obj kvs) ->
      let str k =
        match List.assoc_opt k kvs with
        | Some (Obs.Json.String s) -> s
        | _ -> "?"
      in
      let gap =
        match List.assoc_opt "gap" kvs with
        | Some (Obs.Json.Float g) -> g
        | _ -> 0.
      in
      Fmt.pr "strategy: exploration %s, branching %s, gap tolerance %g@."
        (str "exploration") (str "branching") gap
  | _ -> ());
  (match Obs.Report.field report "certified_gap" with
  | Some (Obs.Json.Float g) ->
      if Float.is_finite g then
        Fmt.pr "certified gap: %.6g (cost is within %.4g%% of the bound)@." g
          (100. *. g)
      else Fmt.pr "certified gap: unbounded (no lower bound proved)@."
  | _ -> ());
  (* Block hot-spots, from the manifest's per-block worker entries:
     where the run's wall-clock went, and whether blocks waited on the
     scheduler or on their own solve. *)
  let blocks =
    List.filter_map
      (function
        | Obs.Json.Obj kvs ->
            let num k =
              match List.assoc_opt k kvs with
              | Some (Obs.Json.Float f) -> Some f
              | Some (Obs.Json.Int i) -> Some (float_of_int i)
              | _ -> None
            in
            (match (List.assoc_opt "block" kvs, num "solve_s") with
            | Some (Obs.Json.Int b), Some s ->
                let size =
                  match List.assoc_opt "block_size" kvs with
                  | Some (Obs.Json.Int z) -> z
                  | _ -> 0
                in
                Some (b, size, s, Option.value ~default:0. (num "queue_wait_s"))
            | _ -> None)
        | _ -> None)
      (Obs.Report.workers report)
  in
  (match
     List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a) blocks
   with
  | [] -> ()
  | sorted ->
      Fmt.pr "@[<v>block hot-spots (top 5 by solve time):@,";
      List.iteri
        (fun i (b, size, s, w) ->
          if i < 5 then
            Fmt.pr "  block %-3d size %-3d  solve %9.4f s  queue wait %9.4f s@,"
              b size s w)
        sorted;
      Fmt.pr "@]@.");
  let snap =
    Obs.Metrics.histogram_value (Obs.Metrics.histogram "bnb.solve_ms")
  in
  if snap.Obs.Metrics.count > 0 then
    Fmt.pr "bnb solve time: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  (%d solves)@."
      (Obs.Metrics.histogram_quantile snap 0.50)
      (Obs.Metrics.histogram_quantile snap 0.95)
      (Obs.Metrics.histogram_quantile snap 0.99)
      snap.Obs.Metrics.count

(* --- gen --- *)

let gen_cmd =
  let kind_conv =
    Arg.enum
      [
        ("uniform", `Uniform);
        ("mtdna", `Mtdna);
        ("clustered", `Clustered);
        ("ultrametric", `Ultrametric);
        ("near-ultrametric", `Near);
      ]
  in
  let kind =
    Arg.(
      value
      & opt kind_conv `Mtdna
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Workload family: $(b,uniform) (the papers' random 0-100 \
             matrices), $(b,mtdna) (surrogate mitochondrial DNA), \
             $(b,clustered), $(b,ultrametric) or $(b,near-ultrametric).")
  in
  let run kind n seed output =
    let rng = Random.State.make [| seed |] in
    let m =
      match kind with
      | `Uniform -> Gen.uniform_metric ~rng n
      | `Mtdna -> (Seqsim.Mtdna.generate ~rng n).Seqsim.Mtdna.matrix
      | `Clustered ->
          Gen.clustered ~rng ~n_clusters:(Int.max 2 (n / 5)) n
      | `Ultrametric -> Gen.ultrametric ~rng n
      | `Near -> Gen.near_ultrametric ~rng n
    in
    write_or_print output (Matrix_io.to_phylip m)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a distance matrix.")
    Term.(const run $ kind $ species_opt $ seed_opt $ output_opt)

(* --- stats --- *)

let stats_cmd =
  let run input =
    let names, m = read_matrix input in
    let n = Dist_matrix.size m in
    Fmt.pr "species:          %d@." n;
    Fmt.pr "first species:    %s@." names.(0);
    Fmt.pr "metric:           %b@." (Metric.is_metric m);
    Fmt.pr "ultrametric:      %b@." (Metric.is_ultrametric m);
    Fmt.pr "max distance:     %g@." (Dist_matrix.max_entry m);
    if n >= 2 then
      Fmt.pr "min distance:     %g@." (Dist_matrix.min_off_diagonal m);
    let deco = Compactphy.Decompose.decompose m in
    Fmt.pr "compact sets:     %d@." (Compactphy.Decompose.n_blocks deco - 1);
    Fmt.pr "largest block:    %d@." (Compactphy.Decompose.largest_block deco)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Diagnostics for a distance matrix.")
    Term.(const run $ input_arg)

(* --- compact-sets --- *)

let compact_sets_cmd =
  let run input =
    let names, m = read_matrix input in
    let sets = Compact_sets.find m in
    if sets = [] then Fmt.pr "no compact sets@."
    else
      List.iter
        (fun set ->
          Fmt.pr "{%s}@."
            (String.concat ", " (List.map (fun i -> names.(i)) set)))
        sets
  in
  Cmd.v
    (Cmd.info "compact-sets"
       ~doc:"List all compact sets of the matrix's complete graph.")
    Term.(const run $ input_arg)

(* --- tree --- *)

let method_opt =
  let method_conv =
    Arg.enum
      [
        ("compact", `Compact);
        ("exact", `Exact);
        ("upgmm", `Upgmm);
        ("upgma", `Upgma);
        ("nj", `Nj);
        ("nni", `Nni);
      ]
  in
  Arg.(
    value
    & opt method_conv `Compact
    & info [ "method" ] ~docv:"M"
        ~doc:
          "Construction method: $(b,compact) (the paper's technique), \
           $(b,exact) (full branch-and-bound), the $(b,upgmm), \
           $(b,upgma), $(b,nj) heuristics, or $(b,nni) (UPGMM plus \
           local search).")

let tree_cmd =
  let nexus =
    Arg.(
      value & flag
      & info [ "nexus" ]
          ~doc:
            "Write a NEXUS document (taxa + distance matrix + tree) \
             instead of bare Newick.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "With $(b,--method exact): gather every optimal tree (the \
             companion paper's Step 7) and print them all, plus their \
             strict consensus.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a resumable search snapshot to $(docv) if the run \
             stops early (budget exhausted or Ctrl-C).  No file is \
             written when the search runs to completion.")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Continue from a checkpoint written by $(b,--checkpoint) \
             (same matrix, same configuration).  The resumed search \
             reaches the same optimum an uninterrupted run finds.")
  in
  let manifest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Write the run manifest (phase timings, per-block search \
             counters, status, lower bound) as JSON to $(docv).")
  in
  let run cfg input method_ preset config checkpoint resume all nexus manifest
      explain output =
    check_writable manifest;
    check_writable checkpoint;
    with_obs cfg @@ fun () ->
    let cancel = install_sigint () in
    let config = finish_config ~cancel cfg config in
    let names, m = read_matrix input in
    match (method_, all) with
    | `Exact, true ->
        if checkpoint <> None || resume <> None then
          Fmt.epr
            "phylo: --checkpoint/--resume are not supported with --all; \
             ignoring@.";
        let options =
          { config.Run_config.solver with Solver.collect_all = true }
        in
        let r =
          Solver.solve ~options ~budget:(Run_config.budget config) m
        in
        if r.Solver.status <> Budget.Exact then
          Fmt.epr
            "status: %s (stopped early - optimal-tree collection \
             incomplete; certified lower bound %g)@."
            (Budget.status_to_string r.Solver.status)
            r.Solver.lower_bound;
        Fmt.epr "optimum %g; %d optimal tree(s)@." r.Solver.cost
          (List.length r.Solver.all_optimal);
        let buf = Buffer.create 256 in
        List.iter
          (fun t ->
            Buffer.add_string buf (Newick.to_string ~names t);
            Buffer.add_char buf '\n')
          r.Solver.all_optimal;
        List.iter
          (fun cluster ->
            Buffer.add_string buf
              ("consensus: {"
              ^ String.concat ", " (List.map (fun i -> names.(i)) cluster)
              ^ "}\n"))
          (Ultra.Consensus.strict r.Solver.all_optimal);
        write_or_print output (Buffer.contents buf)
    | _, _ ->
        let resume_ck = Option.map load_checkpoint resume in
        let solved, tree =
          match method_ with
          | `Compact ->
              let r = Pipeline.with_compact_sets ~config ?resume:resume_ck m in
              (Some r, r.Pipeline.tree)
          | `Exact ->
              let r = Pipeline.exact ~config ?resume:resume_ck m in
              (Some r, r.Pipeline.tree)
          | `Upgmm -> (None, Clustering.Linkage.upgmm m)
          | `Upgma ->
              ( None,
                Ultra.Utree.minimal_realization m (Clustering.Linkage.upgma m)
              )
          | `Nj -> (None, Clustering.Nj.ultrametric_of m)
          | `Nni ->
              (None, (Bnb.Local_search.from_upgmm m).Bnb.Local_search.tree)
        in
        (match solved with
        | Some r ->
            stamp_preset r.Pipeline.report preset;
            if r.Pipeline.status <> Budget.Exact then
              Fmt.epr "status: %s (certified lower bound %g)@."
                (Budget.status_to_string r.Pipeline.status)
                r.Pipeline.lower_bound;
            if config.Run_config.solver.Solver.gap > 0. then
              Fmt.epr "certified gap: %g (tolerance %g)@."
                r.Pipeline.certified_gap config.Run_config.solver.Solver.gap;
            (match (checkpoint, r.Pipeline.checkpoint) with
            | Some path, Some ck ->
                Checkpoint.save path ck;
                Obs.Recorder.emit_ambient (Obs.Events.Checkpoint_write { path });
                Fmt.epr "checkpoint written to %s (continue with --resume)@."
                  path
            | Some path, None ->
                (* The run finished: drop the empty placeholder that
                   [check_writable] pre-created (also prevents a stale
                   checkpoint from outliving the run it belongs to). *)
                (try Sys.remove path with Sys_error _ -> ())
            | None, _ -> ());
            (match manifest with
            | Some path -> Obs.Report.write_file r.Pipeline.report path
            | None -> ());
            if explain then
              print_explain ~stats:r.Pipeline.stats ~report:r.Pipeline.report
        | None ->
            if checkpoint <> None || resume <> None || manifest <> None
               || explain
            then
              Fmt.epr
                "phylo: --checkpoint/--resume/--manifest/--explain apply \
                 only to --method compact or exact; ignoring@.");
        Ultra.Tree_check.assert_valid m tree;
        Fmt.epr "tree cost: %g@." (Ultra.Utree.weight tree);
        if nexus then
          write_or_print output
            (Ultra.Nexus.to_string
               { Ultra.Nexus.taxa = names; matrix = Some m;
                 trees = [ ("compactphy", tree) ] })
        else write_or_print output (Newick.to_string ~names tree ^ "\n")
  in
  Cmd.v
    (Cmd.info "tree"
       ~doc:"Construct an ultrametric tree (Newick or NEXUS output).")
    Term.(
      const run $ obs_term $ input_arg $ method_opt $ preset_opt
      $ executor_config_term $ checkpoint_arg $ resume_arg $ all $ nexus
      $ manifest_arg $ explain_opt $ output_opt)

(* --- compare --- *)

let compare_cmd =
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Write the run manifest (phase timings, per-block search \
             counters, headline percentages) as JSON to $(docv).")
  in
  let cap =
    Arg.(
      value
      & opt (some int) None
      & info [ "cap" ] ~docv:"N"
          ~doc:
            "Stop each branch-and-bound search after expanding $(docv) \
             nodes (the papers' budget for sizes where the exact search \
             is \"unendurable\"); capped runs report the best tree found \
             within the budget.")
  in
  let run cfg input preset config cap manifest explain =
    check_writable manifest;
    with_obs cfg @@ fun () ->
    let _, m = read_matrix input in
    let cancel = install_sigint () in
    let config = finish_config ~cancel cfg config in
    let config =
      match cap with
      | None -> config
      | Some n ->
          Run_config.with_solver
            { config.Run_config.solver with Solver.max_expanded = Some n }
            config
    in
    let c = Pipeline.compare_methods ~config m in
    stamp_preset c.Pipeline.report preset;
    Fmt.pr "@[<v>with compact sets:    cost %-12g %8.4f s (%d blocks, largest %d)@,"
      c.Pipeline.with_cs.Pipeline.cost c.Pipeline.with_cs.Pipeline.elapsed_s
      c.Pipeline.with_cs.Pipeline.n_blocks
      c.Pipeline.with_cs.Pipeline.largest_block;
    Fmt.pr "without compact sets: cost %-12g %8.4f s@,"
      c.Pipeline.without_cs.Pipeline.cost
      c.Pipeline.without_cs.Pipeline.elapsed_s;
    Fmt.pr "time saved:           %.2f %%@,cost increase:        %.2f %%@]@."
      c.Pipeline.time_saved_pct c.Pipeline.cost_increase_pct;
    (match
       (c.Pipeline.with_cs.Pipeline.status, c.Pipeline.without_cs.Pipeline.status)
     with
    | Budget.Exact, Budget.Exact -> ()
    | s_with, s_without ->
        Fmt.pr "status:               with CS %s, without CS %s@."
          (Budget.status_to_string s_with)
          (Budget.status_to_string s_without));
    Logs.info (fun msg ->
        msg "search stats with CS: %a" Bnb.Stats.pp
          c.Pipeline.with_cs.Pipeline.stats);
    Logs.info (fun msg ->
        msg "search stats without CS: %a" Bnb.Stats.pp
          c.Pipeline.without_cs.Pipeline.stats);
    if explain then begin
      Fmt.pr "@.-- with compact sets --@.";
      print_explain ~stats:c.Pipeline.with_cs.Pipeline.stats
        ~report:c.Pipeline.with_cs.Pipeline.report;
      Fmt.pr "@.-- without compact sets --@.";
      print_explain ~stats:c.Pipeline.without_cs.Pipeline.stats
        ~report:c.Pipeline.without_cs.Pipeline.report
    end;
    match manifest with
    | Some path -> Obs.Report.write_file c.Pipeline.report path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare construction with and without compact sets.")
    Term.(
      const run $ obs_term $ input_arg $ preset_opt $ executor_config_term
      $ cap $ manifest $ explain_opt)

(* --- render --- *)

let render_cmd =
  let svg =
    Arg.(
      value & flag
      & info [ "svg" ] ~doc:"Emit an SVG document instead of ASCII art.")
  in
  let run cfg input method_ config svg output =
    with_obs cfg @@ fun () ->
    let config = finish_config cfg config in
    let names, m = read_matrix input in
    let tree =
      match method_ with
      | `Compact -> (Pipeline.with_compact_sets ~config m).Pipeline.tree
      | `Exact -> (Pipeline.exact ~config m).Pipeline.tree
      | `Upgmm -> Clustering.Linkage.upgmm m
      | `Upgma ->
          Ultra.Utree.minimal_realization m (Clustering.Linkage.upgma m)
      | `Nj -> Clustering.Nj.ultrametric_of m
      | `Nni -> (Bnb.Local_search.from_upgmm m).Bnb.Local_search.tree
    in
    let rendered =
      if svg then Ultra.Render.to_svg ~names tree
      else Ultra.Render.to_ascii ~names tree
    in
    write_or_print output rendered
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:"Construct a tree and draw it as an ASCII or SVG dendrogram.")
    Term.(
      const run $ obs_term $ input_arg $ method_opt $ config_term $ svg
      $ output_opt)

(* --- treedist --- *)

let treedist_cmd =
  let tree_a =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TREE_A" ~doc:"First tree (Newick).")
  in
  let tree_b =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"TREE_B" ~doc:"Second tree (Newick).")
  in
  let run a b =
    let load path = Ultra.Newick.of_string (Matrix_io.read_file path) in
    let ta = load a and tb = load b in
    Fmt.pr "Robinson-Foulds: %d (normalised %.4f)@."
      (Ultra.Rf_distance.distance ta tb)
      (Ultra.Rf_distance.normalized ta tb);
    Fmt.pr "triplet:         %d (normalised %.4f)@."
      (Ultra.Triplet_distance.distance ta tb)
      (Ultra.Triplet_distance.normalized ta tb)
  in
  Cmd.v
    (Cmd.info "treedist"
       ~doc:
         "Robinson-Foulds and triplet distances between two Newick trees \
          (integer leaf labels).")
    Term.(const run $ tree_a $ tree_b)

(* --- report --- *)

let html_report ~names ~m ~deco ~sets ~fast ~upgmm =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n = Dist_matrix.size m in
  add "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  add "<title>compactphy report</title>\n";
  add
    "<style>body{font-family:sans-serif;max-width:60em;margin:2em \
     auto}table{border-collapse:collapse}td,th{border:1px solid \
     #999;padding:0.3em 0.7em}code{background:#f4f4f4}</style>\n";
  add "</head><body>\n<h1>compactphy report</h1>\n";
  add "<h2>Matrix</h2>\n<table>\n";
  add "<tr><th>species</th><td>%d</td></tr>\n" n;
  add "<tr><th>metric</th><td>%b</td></tr>\n" (Metric.is_metric m);
  add "<tr><th>ultrametric</th><td>%b</td></tr>\n" (Metric.is_ultrametric m);
  add "<tr><th>distance range</th><td>%g &ndash; %g</td></tr>\n"
    (if n >= 2 then Dist_matrix.min_off_diagonal m else 0.)
    (Dist_matrix.max_entry m);
  add "</table>\n<h2>Compact sets</h2>\n";
  add "<p>%d compact sets; largest exact subproblem: %d species.</p>\n<ul>\n"
    (List.length sets)
    (Compactphy.Decompose.largest_block deco);
  List.iter
    (fun set ->
      add "<li>{%s}</li>\n"
        (String.concat ", " (List.map (fun i -> names.(i)) set)))
    sets;
  add "</ul>\n<h2>Trees</h2>\n<table>\n";
  add "<tr><th>compact-set tree cost</th><td>%.4f (%.4f s, %d blocks)</td></tr>\n"
    fast.Pipeline.cost fast.Pipeline.elapsed_s fast.Pipeline.n_blocks;
  add "<tr><th>UPGMM heuristic cost</th><td>%.4f</td></tr>\n"
    (Ultra.Utree.weight upgmm);
  add
    "<tr><th>3-3 contradictions</th><td>compact %d, UPGMM %d</td></tr>\n"
    (Bnb.Relation33.count_contradictions m fast.Pipeline.tree)
    (Bnb.Relation33.count_contradictions m upgmm);
  add "</table>\n<h2>Dendrogram</h2>\n%s\n"
    (Ultra.Render.to_svg ~names fast.Pipeline.tree);
  add "<h2>Newick</h2>\n<p><code>%s</code></p>\n"
    (Ultra.Newick.to_string ~names fast.Pipeline.tree);
  add "</body></html>\n";
  Buffer.contents buf

let report_cmd =
  let html =
    Arg.(
      value & flag
      & info [ "html" ]
          ~doc:"Emit a standalone HTML report (with an SVG dendrogram) \
                instead of text.")
  in
  let run cfg input config html output =
    with_obs cfg @@ fun () ->
    let config = finish_config cfg config in
    let names, m = read_matrix input in
    let n = Dist_matrix.size m in
    if html then begin
      let deco = Compactphy.Decompose.decompose m in
      let sets = Cgraph.Compact_sets.find m in
      let fast = Pipeline.with_compact_sets ~config m in
      let upgmm = Clustering.Linkage.upgmm m in
      write_or_print output (html_report ~names ~m ~deco ~sets ~fast ~upgmm)
    end
    else begin
    Fmt.pr "# compactphy report@.@.";
    Fmt.pr "## Matrix@.@.";
    Fmt.pr "- species: %d@." n;
    Fmt.pr "- metric: %b, ultrametric: %b@." (Metric.is_metric m)
      (Metric.is_ultrametric m);
    Fmt.pr "- distance range: %g .. %g@.@."
      (if n >= 2 then Dist_matrix.min_off_diagonal m else 0.)
      (Dist_matrix.max_entry m);
    Fmt.pr "## Compact sets@.@.";
    let deco = Decompose.decompose m in
    let sets = Cgraph.Compact_sets.find m in
    Fmt.pr "- %d compact sets; largest exact subproblem: %d species@.@."
      (List.length sets)
      (Decompose.largest_block deco);
    List.iter
      (fun set ->
        Fmt.pr "  - {%s}@."
          (String.concat ", " (List.map (fun i -> names.(i)) set)))
      sets;
    Fmt.pr "@.## Trees@.@.";
    let fast = Pipeline.with_compact_sets ~config m in
    Fmt.pr "- compact-set tree: cost %.4f in %.4f s (%d blocks)@."
      fast.Pipeline.cost fast.Pipeline.elapsed_s fast.Pipeline.n_blocks;
    let upgmm = Clustering.Linkage.upgmm m in
    Fmt.pr "- UPGMM heuristic:  cost %.4f@." (Ultra.Utree.weight upgmm);
    Fmt.pr "- 3-3 contradictions (tree vs matrix): compact %d, UPGMM %d@.@."
      (Bnb.Relation33.count_contradictions m fast.Pipeline.tree)
      (Bnb.Relation33.count_contradictions m upgmm);
    Fmt.pr "## Dendrogram@.@.%s@."
      (Ultra.Render.to_ascii ~names fast.Pipeline.tree);
    Fmt.pr "## Newick@.@.%s@."
      (Ultra.Newick.to_string ~names fast.Pipeline.tree)
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Full analysis report of a matrix (markdown-flavoured text, or \
          HTML with $(b,--html)).")
    Term.(
      const run $ obs_term $ input_arg $ config_term $ html $ output_opt)

(* --- align (the sequences model, from FASTA) --- *)

let align_cmd =
  let fasta_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FASTA" ~doc:"Unaligned sequences (FASTA).")
  in
  let matrix_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "matrix" ] ~docv:"FILE"
          ~doc:"Also write the alignment-derived distance matrix (PHYLIP).")
  in
  let with_tree =
    Arg.(
      value & flag
      & info [ "tree" ]
          ~doc:"Also construct the compact-set tree and print it (Newick).")
  in
  let bootstrap =
    Arg.(
      value
      & opt int 0
      & info [ "bootstrap" ] ~docv:"N"
          ~doc:"With $(b,--tree): annotate clades with $(docv)-replicate \
                bootstrap support.")
  in
  let run cfg fasta matrix_out with_tree bootstrap config output =
    with_obs cfg @@ fun () ->
    let entries = Seqsim.Fasta.read_file fasta in
    let names = Array.of_list (List.map (fun e -> e.Seqsim.Fasta.name) entries) in
    let seqs = Array.of_list (List.map (fun e -> e.Seqsim.Fasta.seq) entries) in
    let msa = Align.Msa.align seqs in
    let buf = Buffer.create 1024 in
    Array.iteri
      (fun i row ->
        Buffer.add_string buf
          (Printf.sprintf "%-12s %s\n" names.(i) (Align.Gapped.to_string row)))
      msa.Align.Msa.rows;
    let m = Align.Msa.distance_matrix msa in
    (match matrix_out with
    | Some path -> Matrix_io.write_file path (Matrix_io.to_phylip ~names m)
    | None -> ());
    if with_tree then begin
      let r = Pipeline.with_compact_sets ~config:(finish_config cfg config) m in
      Buffer.add_string buf
        (Newick.to_string ~names r.Pipeline.tree ^ "\n");
      if bootstrap > 0 then begin
        (* Resample alignment columns; gaps become the row-consensus-free
           placeholder A, a standard quick approximation. *)
        let as_dna =
          Array.map
            (Array.map (function
              | Align.Gapped.Base b -> b
              | Align.Gapped.Gap -> Seqsim.Dna.A))
            msa.Align.Msa.rows
        in
        let support =
          Seqsim.Bootstrap.support
            ~rng:(Random.State.make [| 2005 |])
            ~replicates:bootstrap
            ~construct:(fun m -> (Pipeline.with_compact_sets m).Pipeline.tree)
            ~reference:r.Pipeline.tree as_dna
        in
        List.iter
          (fun (clade, sup) ->
            Buffer.add_string buf
              (Printf.sprintf "support {%s}: %.0f%%\n"
                 (String.concat ","
                    (List.map (fun i -> names.(i)) clade))
                 (100. *. sup)))
          support
      end
    end;
    write_or_print output (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "align"
       ~doc:
         "Progressively align FASTA sequences; optionally derive the \
          distance matrix and the compact-set tree with bootstrap \
          support.")
    Term.(
      const run $ obs_term $ fasta_arg $ matrix_out $ with_tree $ bootstrap
      $ config_term $ output_opt)

(* --- obs: manifest diffing and the perf-regression gate --- *)

let rule_conv =
  let parse s =
    match String.index_opt s '=' with
    | None -> Error (`Msg (Printf.sprintf "expected KEY=REL, got %S" s))
    | Some i ->
        let key = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        (match float_of_string_opt v with
        | Some rel when rel >= 0. && Float.is_finite rel ->
            Ok (Obs.Diff.rule key rel)
        | Some _ | None ->
            Error
              (`Msg
                 (Printf.sprintf "bad relative threshold %S (want e.g. 0.02)"
                    v)))
  in
  Arg.conv ~docv:"KEY=REL"
    ( parse,
      fun ppf r ->
        Format.fprintf ppf "%s=%g" r.Obs.Diff.key r.Obs.Diff.max_rel )

let thresholds_opt =
  Arg.(
    value
    & opt_all rule_conv []
    & info [ "thr"; "threshold" ] ~docv:"KEY=REL"
        ~doc:
          "Add a gating rule: $(i,KEY) is a metric path \
           ($(b,stats.expanded)), a bare field name ($(b,expanded)), or \
           a dotted prefix ending in '.' ($(b,attribution.)); \
           $(i,REL) is the allowed relative change (0.02 = ±2%).  \
           Repeatable; user rules take precedence over the defaults.")

let obs_rules user = user @ Obs.Diff.default_rules

let load_manifest path =
  match Obs.Diff.load_entry path with
  | Ok j -> j
  | Error e ->
      Fmt.epr "compactphy obs: %s@." e;
      exit 2

let manifest_pos n name =
  Arg.(
    required
    & pos n (some file) None
    & info [] ~docv:name
        ~doc:
          (Printf.sprintf
             "%s manifest (a run/bench manifest JSON file, or an \
              append-only $(b,BENCH_*.json) trajectory, in which case \
              its latest entry is used)."
             name))

let print_diff_failures d =
  let open Obs.Diff in
  List.iter
    (fun e ->
      Fmt.pr "  %s: %g -> %g (%+.2f%%, limit ±%.0f%%)@." e.path e.base e.cur
        (100. *. e.rel)
        (100. *. Option.value ~default:Float.nan e.threshold))
    (regressions d)

let obs_diff_cmd =
  let markdown =
    Arg.(
      value & flag
      & info [ "markdown" ]
          ~doc:"Render a markdown table instead of structured JSON.")
  in
  let run base cur rules markdown =
    let d =
      Obs.Diff.diff ~rules:(obs_rules rules) ~base:(load_manifest base)
        ~cur:(load_manifest cur) ()
    in
    if markdown then
      print_string
        (Obs.Diff.to_markdown
           ~title:(Printf.sprintf "%s vs %s" base cur)
           d)
    else print_endline (Obs.Json.to_string (Obs.Diff.to_json d))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Structured delta between two manifests: every numeric leaf \
          compared path-wise, classified against relative thresholds.")
    Term.(
      const run $ manifest_pos 0 "BASE" $ manifest_pos 1 "CURRENT"
      $ thresholds_opt $ markdown)

let baseline_dir_opt =
  Arg.(
    required
    & opt (some dir) None
    & info [ "baseline" ] ~docv:"DIR"
        ~doc:"Directory of committed baseline manifests ($(b,*.json)).")

let obs_check_cmd =
  let current =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"CURRENT"
          ~doc:"Directory of freshly produced manifests to gate.")
  in
  let run baseline current rules =
    match
      Obs.Diff.check_dirs ~rules:(obs_rules rules) ~baseline ~current ()
    with
    | Error e ->
        Fmt.epr "compactphy obs check: %s@." e;
        exit 2
    | Ok reports ->
        List.iter
          (fun { Obs.Diff.file; result } ->
            match result with
            | Error e -> Fmt.pr "FAIL %s: %s@." file e
            | Ok d when Obs.Diff.has_regression d ->
                Fmt.pr "FAIL %s@." file;
                print_diff_failures d
            | Ok d ->
                Fmt.pr "OK   %s (%d metrics compared)@." file
                  (List.length d.Obs.Diff.entries))
          reports;
        if Obs.Diff.dirs_regressed reports then begin
          Fmt.pr "perf gate: REGRESSED@.";
          exit 1
        end
        else Fmt.pr "perf gate: ok@."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Gate a directory of manifests against committed baselines: \
          compare same-named $(b,*.json) files and exit non-zero on any \
          threshold breach (the CI perf gate).")
    Term.(const run $ baseline_dir_opt $ current $ thresholds_opt)

let obs_report_cmd =
  let run base cur rules =
    let d =
      Obs.Diff.diff ~rules:(obs_rules rules) ~base:(load_manifest base)
        ~cur:(load_manifest cur) ()
    in
    print_string
      (Obs.Diff.to_markdown ~title:(Printf.sprintf "%s vs %s" base cur) d)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Markdown comparison table between two manifests (for PR \
          comments and bench summaries).")
    Term.(
      const run $ manifest_pos 0 "BASE" $ manifest_pos 1 "CURRENT"
      $ thresholds_opt)

let obs_timeline_cmd =
  let trace_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE"
          ~doc:
            "A Chrome-trace JSON file written by $(b,--trace) — including \
             merged multi-process traces from $(b,--executor tcp) runs.")
  in
  let manifest_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Reconcile the timeline against this run manifest: the trace \
             envelope and every job must fit the manifest's \
             $(b,elapsed_s) wall clock (within $(b,--tol)); exits 2 on \
             any violation.")
  in
  let tol_arg =
    Arg.(
      value
      & opt nonneg_float 0.25
      & info [ "tol" ] ~docv:"REL"
          ~doc:
            "Relative tolerance for $(b,--manifest) reconciliation \
             (clock-offset estimation is only accurate to about one \
             network round trip).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the timeline as JSON instead of text.")
  in
  let run trace manifest tol json =
    match Obs.Span.load_trace trace with
    | Error e ->
        Fmt.epr "compactphy obs timeline: %s@." e;
        exit 2
    | Ok events -> (
        let t = Obs.Timeline.of_events events in
        if json then print_endline (Obs.Json.to_string (Obs.Timeline.to_json t))
        else print_string (Obs.Timeline.render t);
        match manifest with
        | None -> ()
        | Some path -> (
            let wall_s =
              match
                Option.bind
                  (Obs.Json.member "elapsed_s" (load_manifest path))
                  Obs.Json.to_float_opt
              with
              | Some w -> w
              | None ->
                  Fmt.epr
                    "compactphy obs timeline: %s has no elapsed_s field@."
                    path;
                  exit 2
            in
            match Obs.Timeline.reconcile ~tol t ~wall_s with
            | Ok () ->
                Fmt.pr "timeline: reconciled with %s (wall %.4fs, tol %g)@."
                  path wall_s tol
            | Error problems ->
                List.iter
                  (fun p -> Fmt.epr "timeline: MISMATCH %s@." p)
                  problems;
                exit 2))
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Per-job / per-request critical-path breakdown (queue wait, \
          network, solve, cache provenance) out of a merged Chrome \
          trace, with optional reconciliation against the run manifest.")
    Term.(const run $ trace_arg $ manifest_arg $ tol_arg $ json_arg)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Observability tooling: diff run manifests, render comparison \
          reports, reconstruct timelines from traces, and gate on perf \
          regressions.")
    [ obs_diff_cmd; obs_check_cmd; obs_report_cmd; obs_timeline_cmd ]

(* --- top: live dashboard over a running solve's telemetry --- *)

let top_cmd =
  let addr_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Telemetry endpoint of a running solve: $(b,HOST:PORT), a bare \
             port, an $(b,http://) URL, or the path of a Unix socket — \
             whatever the solving command printed as \"telemetry on ...\".")
  in
  let interval =
    Arg.(
      value
      & opt pos_float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render a single frame as plain lines and exit (for scripts \
             and tests).")
  in
  let poll_events target st =
    match
      Obs.Serve.get target
        (Printf.sprintf "/events?since=%d" (Obs.Top.last_seq st))
    with
    | Ok (200, body) ->
        List.filter_map
          (fun line ->
            if String.trim line = "" then None
            else
              match Obs.Json.of_string line with
              | Ok j -> Some j
              | Error _ -> None)
          (String.split_on_char '\n' body)
    | Ok _ | Error _ -> []
  in
  let poll_dropped target =
    match Obs.Serve.get target "/healthz" with
    | Ok (_, body) -> (
        match Obs.Json.of_string body with
        | Ok j ->
            Option.value ~default:0
              (Option.bind (Obs.Json.member "dropped" j) Obs.Json.to_int_opt)
        | Error _ -> 0)
    | Error _ -> 0
  in
  let run addr interval once =
    match Obs.Serve.target_of_string addr with
    | Error e ->
        Fmt.epr "phylo top: %s@." e;
        exit 1
    | Ok target ->
        (* ANSI repaints only on an interactive stdout; redirected output
           (and --once) gets plain frames. *)
        let tty = (not once) && Unix.isatty Unix.stdout in
        if tty then print_string "\x1b[2J";
        let rec loop st failures =
          match Obs.Serve.get target "/metrics" with
          | Error e ->
              (* A run that has not bound yet (or just exited) is not an
                 error worth dying for in watch mode; give it a few
                 polls. *)
              if once || failures >= 5 then begin
                Fmt.epr "phylo top: %s: %s@." addr e;
                exit 1
              end
              else begin
                Unix.sleepf interval;
                loop st (failures + 1)
              end
          | Ok (_, body) ->
              let metrics = Obs.Top.parse_prometheus body in
              let events = poll_events target st in
              let dropped = poll_dropped target in
              let st =
                Obs.Top.update st ~now_s:(Unix.gettimeofday ()) ~events
                  ~metrics ~dropped
              in
              print_string (Obs.Top.render ~tty st);
              if (not tty) && not once then print_newline ();
              flush stdout;
              if not once then begin
                Unix.sleepf interval;
                loop st 0
              end
        in
        loop Obs.Top.init 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard for a running solve: poll its telemetry endpoint \
          (see $(b,--telemetry-port)) and render incumbent/gap, block \
          progress, nodes/s, prune shares and worker heartbeats.")
    Term.(const run $ addr_arg $ interval $ once)

(* --- simulate --- *)

let simulate_cmd =
  let slaves =
    Arg.(
      value
      & opt int 16
      & info [ "slaves" ] ~docv:"N" ~doc:"Simulated slave nodes.")
  in
  let grid =
    Arg.(
      value & flag
      & info [ "grid" ]
          ~doc:"Use the grid platform (WAN latency) instead of the cluster.")
  in
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "manifest" ] ~docv:"FILE"
          ~doc:
            "Write the run manifest (per-slave expansion/pruning counters \
             and utilization) as JSON to $(docv).")
  in
  let run cfg input slaves grid manifest =
    check_writable manifest;
    with_obs cfg @@ fun () ->
    let _, m = read_matrix input in
    let platform =
      if grid then Platform.grid ~sites:[ (slaves, 30_000.) ]
      else Platform.cluster slaves
    in
    let r = Dist_bnb.run platform m in
    Fmt.pr "@[<v>cost:       %g@,makespan:   %.6f virtual s@,"
      r.Dist_bnb.cost r.Dist_bnb.makespan;
    Fmt.pr "expansions: %d@,messages:   %d@]@." r.Dist_bnb.expansions
      r.Dist_bnb.messages;
    match manifest with
    | Some path -> Obs.Report.write_file r.Dist_bnb.report path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the construction on the simulated cluster or grid.")
    Term.(const run $ obs_term $ input_arg $ slaves $ grid $ manifest)

(* --- worker --- *)

let worker_cmd =
  let connect =
    Arg.(
      required
      & opt (some addr_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Coordinator to join — the address a $(b,--executor tcp) \
             run logs as \"worker pool listening on HOST:PORT\".")
  in
  let die_after =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "die-after" ] ~docv:"N"
          ~doc:
            "Fault injection for tests and drills: drop the connection \
             abruptly (no goodbye, as a crash would) when the \
             $(docv)-th job arrives.  The coordinator retries the lost \
             job on another worker.")
  in
  let heartbeat =
    Arg.(
      value
      & opt pos_float 1.0
      & info [ "heartbeat" ] ~docv:"SECONDS"
          ~doc:
            "Interval between heartbeat frames while solving (default \
             1 s).  Heartbeats feed the coordinator's event ring, so \
             $(b,/healthz) staleness reflects worker liveness.")
  in
  let run cfg connect die_after heartbeat cache cache_max_bytes =
    with_obs cfg @@ fun () ->
    (* The hook lives in this worker process: cached jobs sent by a
       coordinator are answered from the local store without solving. *)
    Option.iter
      (fun dir ->
        Compactphy.Subsolve_cache.install
          (Compactphy.Subsolve_cache.get_or_create ~dir
             ?max_bytes:cache_max_bytes ()))
      cache;
    Fmt.epr "phylo worker: connecting to %s@." connect;
    match
      Net_exec.run_worker ?die_after_jobs:die_after
        ~heartbeat_every_s:heartbeat ~connect ()
    with
    | `Shutdown -> Fmt.epr "phylo worker: coordinator shut down; exiting@."
    | `Eof -> Fmt.epr "phylo worker: connection closed; exiting@."
    | `Died -> Fmt.epr "phylo worker: injected fault fired; exiting@."
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Join a TCP worker pool and solve branch-and-bound jobs for a \
          coordinator started with --executor tcp.")
    Term.(
      const run $ obs_term $ connect $ die_after $ heartbeat $ cache_opt
      $ cache_max_bytes_opt)

(* --- serve --- *)

let serve_cmd =
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:
            "TCP port to listen on (default 0: a free ephemeral port; \
             the bound address is printed to stderr).")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (default local).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix socket at $(docv) instead of a TCP port.")
  in
  let pool_workers =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "pool-workers" ] ~docv:"N"
          ~doc:
            "Concurrent solves (the persistent domain pool's size; \
             default: the configuration's block workers).")
  in
  let run cfg config port host socket pool_workers =
    with_obs cfg @@ fun () ->
    let cancel = install_sigint () in
    (* A daemon should log its accesses: raise the listener's source to
       [info] so the one-line-per-request access log (with request ids)
       shows at default verbosity.  -q still silences it. *)
    if Logs.level () <> None then
      Logs.Src.set_level Obs.Serve.src (Some Logs.Info);
    (* Each /solve request replaces the run id with its own request id
       as the trace context (see Server). *)
    let config = finish_config ~cancel cfg config in
    if port <> None && socket <> None then begin
      Fmt.epr "phylo serve: give either --port or --socket, not both@.";
      exit 1
    end;
    let server =
      match socket with
      | Some path -> Compactphy.Server.start ~config ~socket:path ?pool_workers ()
      | None ->
          Compactphy.Server.start ~config ~host
            ~port:(Option.value ~default:0 port)
            ?pool_workers ()
    in
    (* Plain stderr, not Logs: scripts and the CI smoke job read the
       ephemeral address back from this line at any verbosity. *)
    Fmt.epr "phylo serve: listening on %s@."
      (Compactphy.Server.addr_string server);
    Fmt.epr "phylo serve: POST a PHYLIP matrix to /solve (Ctrl-C to stop)@.";
    while not (Atomic.get cancel) do
      Unix.sleepf 0.2
    done;
    Fmt.epr "phylo serve: draining %d in-flight request(s)@."
      (Compactphy.Server.queue_depth server);
    Compactphy.Server.stop server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the tree-construction daemon: POST PHYLIP matrices to \
          /solve, with the sub-solve cache and domain pool kept warm \
          across requests, plus the /metrics, /healthz and /status \
          telemetry endpoints.")
    Term.(
      const run $ obs_term $ config_term $ port $ host $ socket
      $ pool_workers)

let () =
  let doc =
    "Fast evolutionary-tree construction with compact sets (PaCT 2005)."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "compactphy" ~version:"1.0.0" ~doc)
          [
            gen_cmd;
            stats_cmd;
            compact_sets_cmd;
            tree_cmd;
            compare_cmd;
            render_cmd;
            treedist_cmd;
            report_cmd;
            align_cmd;
            obs_cmd;
            top_cmd;
            simulate_cmd;
            worker_cmd;
            serve_cmd;
          ]))
