(* Tests for the unified Run_config API: defaults behave like the bare
   entry points, validation rejects incoherent configurations, manifest
   strings round-trip (the CLI parsers are built from exactly these),
   and presets round-trip through their string names. *)

module Dist_matrix = Distmat.Dist_matrix
module Gen = Distmat.Gen
module Utree = Ultra.Utree
module Decompose = Compactphy.Decompose
module Solver = Bnb.Solver
module Pipeline = Compactphy.Pipeline
module Run_config = Compactphy.Run_config
module Platform = Clustersim.Platform
module Dist_bnb = Clustersim.Dist_bnb
module Executor = Compactphy.Executor

let rng seed = Random.State.make [| seed |]

let rejects name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- defaults --- *)

let test_default_fields () =
  let c = Run_config.default in
  Alcotest.(check int) "workers" 1 c.Run_config.workers;
  Alcotest.(check int) "block_workers" 1 c.Run_config.block_workers;
  Alcotest.(check bool) "no relaxation" true (c.Run_config.relaxation = None);
  Alcotest.(check bool) "max linkage" true
    (c.Run_config.linkage = Decompose.Max);
  Alcotest.(check bool) "solver defaults" true
    (c.Run_config.solver = Solver.default_options);
  Alcotest.(check bool) "incremental kernel" true
    (c.Run_config.solver.Solver.kernel = Solver.Incremental);
  Alcotest.(check bool) "local executor" true
    (c.Run_config.executor = Executor.Local);
  Alcotest.(check bool) "no workers_addr" true
    (c.Run_config.workers_addr = None)

let test_default_equals_bare_exact () =
  let m = Gen.uniform_metric ~rng:(rng 1) 9 in
  let a = Pipeline.exact m in
  let b = Pipeline.exact ~config:Run_config.default m in
  Alcotest.(check (float 0.)) "cost" a.Pipeline.cost b.Pipeline.cost;
  Alcotest.(check bool) "tree" true
    (Utree.equal a.Pipeline.tree b.Pipeline.tree)

let test_default_equals_bare_compact () =
  let m = Gen.clustered ~rng:(rng 2) ~n_clusters:3 15 in
  let a = Pipeline.with_compact_sets m in
  let b = Pipeline.with_compact_sets ~config:Run_config.default m in
  Alcotest.(check (float 0.)) "cost" a.Pipeline.cost b.Pipeline.cost;
  Alcotest.(check int) "blocks" a.Pipeline.n_blocks b.Pipeline.n_blocks;
  Alcotest.(check bool) "tree" true
    (Utree.equal a.Pipeline.tree b.Pipeline.tree)

let test_setters_match_record_literal () =
  let m = Gen.clustered ~rng:(rng 3) ~n_clusters:2 12 in
  let a =
    Pipeline.with_compact_sets
      ~config:
        Run_config.(
          default |> with_linkage Decompose.Avg |> with_relaxation 1.1)
      m
  in
  let b =
    Pipeline.with_compact_sets
      ~config:
        {
          Run_config.default with
          Run_config.linkage = Decompose.Avg;
          relaxation = Some 1.1;
        }
      m
  in
  Alcotest.(check (float 0.)) "cost" a.Pipeline.cost b.Pipeline.cost;
  Alcotest.(check int) "blocks" a.Pipeline.n_blocks b.Pipeline.n_blocks

(* --- setters --- *)

let test_setters () =
  let c =
    Run_config.(
      default |> with_workers 3 |> with_block_workers 2
      |> with_linkage Decompose.Min |> with_relaxation 1.5)
  in
  Alcotest.(check int) "workers" 3 c.Run_config.workers;
  Alcotest.(check int) "block_workers" 2 c.Run_config.block_workers;
  Alcotest.(check bool) "linkage" true (c.Run_config.linkage = Decompose.Min);
  Alcotest.(check bool) "relaxation" true
    (c.Run_config.relaxation = Some 1.5);
  let c' =
    Run_config.with_solver (Solver.options ~lb:Solver.LB0 ()) c
  in
  Alcotest.(check bool) "solver swapped" true
    (c'.Run_config.solver.Solver.lb = Solver.LB0);
  Alcotest.(check int) "others untouched" 3 c'.Run_config.workers;
  let c'' =
    Run_config.(
      c' |> with_executor Executor.Tcp |> with_workers_addr "127.0.0.1:0")
  in
  Alcotest.(check bool) "executor swapped" true
    (c''.Run_config.executor = Executor.Tcp);
  Alcotest.(check bool) "addr kept" true
    (c''.Run_config.workers_addr = Some "127.0.0.1:0")

(* --- validation --- *)

let test_validate_accepts_default () =
  let c = Run_config.validate Run_config.default in
  Alcotest.(check bool) "returned unchanged" true (c = Run_config.default)

let test_validate_rejections () =
  let base = Run_config.default in
  rejects "workers < 1" (fun () ->
      Run_config.(validate (with_workers 0 base)));
  rejects "block_workers < 1" (fun () ->
      Run_config.(validate (with_block_workers 0 base)));
  rejects "relaxation < 1" (fun () ->
      Run_config.(validate (with_relaxation 0.5 base)));
  rejects "relaxation nan" (fun () ->
      Run_config.(validate (with_relaxation Float.nan base)));
  rejects "max_expanded <= 0" (fun () ->
      Run_config.validate
        (Run_config.with_solver
           { Solver.default_options with Solver.max_expanded = Some 0 }
           base));
  rejects "tcp without workers_addr" (fun () ->
      Run_config.(validate (with_executor Executor.Tcp base)));
  rejects "unparseable workers_addr" (fun () ->
      Run_config.(
        validate
          (base
          |> with_executor Executor.Tcp
          |> with_workers_addr "not-an-address")));
  (* A parseable address validates, port 0 (ephemeral) included. *)
  ignore
    Run_config.(
      validate
        (base
        |> with_executor Executor.Tcp
        |> with_workers_addr "127.0.0.1:0"))

let test_options_smart_constructor () =
  rejects "Solver.options rejects 0" (fun () ->
      Solver.options ~max_expanded:0 ());
  rejects "re-export rejects 0" (fun () ->
      Run_config.solver_options ~max_expanded:(-3) ());
  let o = Solver.options ~max_expanded:7 ~collect_all:true () in
  Alcotest.(check bool) "cap kept" true (o.Solver.max_expanded = Some 7);
  Alcotest.(check bool) "collect_all kept" true o.Solver.collect_all

let test_pipeline_rejects_invalid_config () =
  let m = Gen.uniform_metric ~rng:(rng 4) 6 in
  rejects "exact" (fun () ->
      Pipeline.exact ~config:Run_config.(with_workers 0 default) m);
  rejects "with_compact_sets" (fun () ->
      Pipeline.with_compact_sets
        ~config:Run_config.(with_relaxation 0.2 default)
        m)

let test_dist_bnb_takes_options () =
  let m = Gen.uniform_metric ~rng:(rng 5) 6 in
  (* The simulator reads only the solver options of a configuration. *)
  let r = Dist_bnb.run (Platform.cluster 2) m in
  let s = Pipeline.exact m in
  Alcotest.(check (float 1e-9)) "same optimum" s.Pipeline.cost r.Dist_bnb.cost;
  let r' =
    Dist_bnb.run ~options:Run_config.default.Run_config.solver
      (Platform.cluster 2) m
  in
  Alcotest.(check (float 1e-9)) "explicit default options same"
    r.Dist_bnb.cost r'.Dist_bnb.cost;
  let r0 =
    Dist_bnb.run ~options:(Solver.options ~lb:Solver.LB0 ())
      (Platform.cluster 2) m
  in
  Alcotest.(check (float 1e-9)) "LB0 same optimum" r.Dist_bnb.cost
    r0.Dist_bnb.cost;
  Alcotest.(check bool) "stats exposed" true
    (r.Dist_bnb.stats.Bnb.Stats.expanded >= 0)

(* --- manifest strings --- *)

(* Every value of an enumeration has a canonical spelling that parses
   back to it, and unknown names do not parse. *)
let round_trips name table all =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (name ^ " round trip") true
        (List.assoc_opt (Obs.Json.enum_name table v) table = Some v))
    all;
  Alcotest.(check bool) (name ^ " unknown") true
    (List.assoc_opt "warp" table = None)

let test_string_round_trips () =
  round_trips "lb" Solver.lb_names [ Solver.LB0; Solver.LB1 ];
  round_trips "mode33" Solver.mode33_names
    [ Solver.Off; Solver.Third_only; Solver.Every_insertion ];
  round_trips "initial_ub" Solver.initial_ub_names
    [ Solver.Upgmm_ub; Solver.Upgma_ub; Solver.Nj_ub; Solver.No_heuristic_ub ];
  round_trips "search" Bnb.Strategy.exploration_names
    [ Solver.Dfs; Solver.Best_first; Solver.Hybrid ];
  round_trips "branching" Bnb.Strategy.branching_names
    [ Solver.Paper_order; Solver.Largest_first; Solver.Residual_lb ];
  round_trips "linkage" Decompose.linkage_names
    [ Decompose.Max; Decompose.Min; Decompose.Avg ];
  round_trips "executor kind" Executor.kind_names
    [ Executor.Local; Executor.Sim; Executor.Tcp ]

let test_parse_addr () =
  Alcotest.(check bool) "host:port" true
    (Executor.parse_addr "10.0.0.1:9000" = Ok ("10.0.0.1", 9000));
  Alcotest.(check bool) ":port" true
    (Executor.parse_addr ":7000" = Ok ("127.0.0.1", 7000));
  Alcotest.(check bool) "bare port" true
    (Executor.parse_addr "7000" = Ok ("127.0.0.1", 7000));
  Alcotest.(check bool) "port 0 ok" true
    (Executor.parse_addr "127.0.0.1:0" = Ok ("127.0.0.1", 0));
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "port out of range" true
    (is_err (Executor.parse_addr "host:70000"));
  Alcotest.(check bool) "garbage" true (is_err (Executor.parse_addr "host:"))

(* --- presets --- *)

let test_preset_round_trip () =
  round_trips "preset" Run_config.preset_names
    [ Run_config.Paper; Run_config.Fast; Run_config.Exhaustive ]

let test_preset_contents () =
  let paper = Run_config.of_preset Run_config.Paper in
  Alcotest.(check bool) "paper pins the reference kernel" true
    (paper.Run_config.solver.Solver.kernel = Solver.Reference);
  Alcotest.(check int) "paper is sequential" 1 paper.Run_config.block_workers;
  let fast = Run_config.of_preset Run_config.Fast in
  Alcotest.(check bool) "fast uses the incremental kernel" true
    (fast.Run_config.solver.Solver.kernel = Solver.Incremental);
  Alcotest.(check bool) "fast sizes to the host" true
    (fast.Run_config.block_workers >= 1);
  let ex = Run_config.of_preset Run_config.Exhaustive in
  Alcotest.(check bool) "exhaustive collects all" true
    ex.Run_config.solver.Solver.collect_all;
  Alcotest.(check bool) "exhaustive is best-first" true
    (ex.Run_config.solver.Solver.search = Solver.Best_first);
  (* Every preset must pass its own validation. *)
  List.iter
    (fun p -> ignore (Run_config.validate (Run_config.of_preset p)))
    [ Run_config.Paper; Run_config.Fast; Run_config.Exhaustive ]

let test_preset_paper_matches_seed_search () =
  (* The paper preset must reproduce the default search's result. *)
  let m = Gen.near_ultrametric ~rng:(rng 6) 10 in
  let a =
    Pipeline.exact ~config:(Run_config.of_preset Run_config.Paper) m
  in
  let b = Pipeline.exact m in
  Alcotest.(check (float 0.)) "cost" a.Pipeline.cost b.Pipeline.cost;
  Alcotest.(check bool) "tree" true
    (Utree.equal a.Pipeline.tree b.Pipeline.tree)

(* --- manifest serialisation --- *)

let test_to_json_shape () =
  match Run_config.to_json Run_config.default with
  | Obs.Json.Obj kvs ->
      List.iter
        (fun key ->
          Alcotest.(check bool) (key ^ " present") true (List.mem_assoc key kvs))
        [
          "solver"; "linkage"; "relaxation"; "workers"; "block_workers";
          "executor"; "workers_addr";
        ];
      Alcotest.(check bool) "executor spelled" true
        (List.assoc "executor" kvs = Obs.Json.String "local");
      Alcotest.(check bool) "workers_addr null" true
        (List.assoc "workers_addr" kvs = Obs.Json.Null);
      (match List.assoc "solver" kvs with
      | Obs.Json.Obj solver ->
          Alcotest.(check bool) "kernel recorded" true
            (List.assoc "kernel" solver
            = Obs.Json.enum Bnb.Kernel.kind_names
                Run_config.default.Run_config.solver.Solver.kernel)
      | _ -> Alcotest.fail "solver field is not an object")
  | _ -> Alcotest.fail "to_json did not produce an object"

(* --- pinned on-disk and on-wire formats ---

   The spellings above feed cache keys, manifests and wire frames; these
   values were captured before the spellings moved into per-type tables
   and must never change by accident (old caches would silently miss,
   old workers would reject jobs). *)

let hominoids () =
  let path =
    if Sys.file_exists "../data/hominoids.phy" then "../data/hominoids.phy"
    else "data/hominoids.phy"
  in
  (Distmat.Matrix_io.of_phylip (Distmat.Matrix_io.read_file path))
    .Distmat.Matrix_io.matrix

(* Every enumerated option away from its default. *)
let non_default_options =
  Solver.options ~search:Solver.Best_first ~branching:Solver.Residual_lb
    ~lb:Solver.LB0 ~initial_ub:Solver.Nj_ub
    ~relation33:Solver.Every_insertion ~kernel:Solver.Reference ()

let test_pinned_cache_digests () =
  let m = hominoids () in
  let digest options =
    Compactphy.Subsolve_cache.(digest (key ~options m))
  in
  Alcotest.(check string) "default options" "b573f3cad04555abcb7f28b931300555"
    (digest Solver.default_options);
  Alcotest.(check string) "non-default options"
    "dc3b6c0532d9ad5af482bc3a7ec6aedb"
    (digest non_default_options)

let test_pinned_config_json () =
  Alcotest.(check string) "Run_config.default"
    "{\"solver\":{\"lb\":\"lb1\",\"relation33\":\"off\",\"initial_ub\":\"upgmm\",\"max_expanded\":null,\"search\":\"dfs\",\"branching\":\"paper_order\",\"gap\":0.0,\"collect_all\":false,\"kernel\":\"incremental\"},\"linkage\":\"max\",\"relaxation\":null,\"workers\":1,\"block_workers\":1,\"deadline_s\":null,\"max_nodes\":null,\"executor\":\"local\",\"workers_addr\":null,\"cache_dir\":null}"
    (Obs.Json.to_string (Run_config.to_json Run_config.default))

let test_pinned_wire_job_frame () =
  let m = hominoids () in
  let job =
    {
      Executor.j_id = 3;
      j_size = 4;
      j_matrix = Dist_matrix.init 4 (fun i j -> Dist_matrix.get m i j);
      j_options = non_default_options;
      j_workers = 2;
      j_node_share = Some 500;
      j_poll_every = 64;
      j_resume = None;
      j_cache = true;
      j_trace = Some "run-pin";
    }
  in
  let r, w = Unix.pipe () in
  Compactphy.Wire.write_frame w (Compactphy.Wire.Job job);
  Unix.close w;
  let buf = Buffer.create 1024 and chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | 0 -> Unix.close r
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Alcotest.(check string) "job frame bytes"
    "\000\000\002\015{\"type\":\"job\",\"job\":{\"id\":3,\"size\":4,\"matrix\":{\"n\":4,\"entries\":[[2,3,\"0x1.c125bb45bbcbfp+4\"],[1,3,\"0x1.c6fa3443d46b2p+4\"],[1,2,\"0x1.a94850fc9cc92p+1\"],[0,3,\"0x1.91a29f6738f44p+4\"],[0,2,\"0x1.e2909594515b4p+4\"],[0,1,\"0x1.f4a3f3aa8727ap+4\"]]},\"options\":{\"lb\":\"lb0\",\"relation33\":\"every_insertion\",\"initial_ub\":\"nj\",\"max_expanded\":null,\"search\":\"best_first\",\"branching\":\"residual_lb\",\"gap\":\"0x0p+0\",\"collect_all\":false,\"kernel\":\"reference\"},\"workers\":2,\"node_share\":500,\"poll_every\":64,\"resume\":null,\"cache\":true,\"trace\":\"run-pin\"}}"
    (Buffer.contents buf)

let () =
  Alcotest.run "run_config"
    [
      ( "defaults",
        [
          Alcotest.test_case "field values" `Quick test_default_fields;
          Alcotest.test_case "exact default = explicit" `Quick
            test_default_equals_bare_exact;
          Alcotest.test_case "with_compact_sets default = explicit" `Quick
            test_default_equals_bare_compact;
          Alcotest.test_case "setters = record literal" `Quick
            test_setters_match_record_literal;
          Alcotest.test_case "setters" `Quick test_setters;
        ] );
      ( "validation",
        [
          Alcotest.test_case "accepts default" `Quick
            test_validate_accepts_default;
          Alcotest.test_case "rejections" `Quick test_validate_rejections;
          Alcotest.test_case "Solver.options" `Quick
            test_options_smart_constructor;
          Alcotest.test_case "pipeline propagates" `Quick
            test_pipeline_rejects_invalid_config;
          Alcotest.test_case "dist_bnb takes options" `Quick
            test_dist_bnb_takes_options;
        ] );
      ( "strings",
        [
          Alcotest.test_case "manifest string round trips" `Quick
            test_string_round_trips;
          Alcotest.test_case "executor address parsing" `Quick
            test_parse_addr;
        ] );
      ( "presets",
        [
          Alcotest.test_case "string round trip" `Quick test_preset_round_trip;
          Alcotest.test_case "contents" `Quick test_preset_contents;
          Alcotest.test_case "paper preset matches default search" `Quick
            test_preset_paper_matches_seed_search;
        ] );
      ( "manifest",
        [ Alcotest.test_case "to_json shape" `Quick test_to_json_shape ] );
      ( "pinned",
        [
          Alcotest.test_case "cache digests" `Quick test_pinned_cache_digests;
          Alcotest.test_case "default config json" `Quick
            test_pinned_config_json;
          Alcotest.test_case "wire job frame" `Quick test_pinned_wire_job_frame;
        ] );
    ]
