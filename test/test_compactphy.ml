(* Tests for the compactphy core: decomposition, the end-to-end pipeline,
   and the paper's worked example. *)

module Dist_matrix = Distmat.Dist_matrix
module Gen = Distmat.Gen
module Metric = Distmat.Metric
module Laminar = Cgraph.Laminar
module Utree = Ultra.Utree
module Tree_check = Ultra.Tree_check
module Solver = Bnb.Solver
module Stats = Bnb.Stats
module Decompose = Compactphy.Decompose
module Pipeline = Compactphy.Pipeline
module Run_config = Compactphy.Run_config
module Paper_example = Compactphy.Paper_example

let rng seed = Random.State.make [| seed |]
let check_float = Alcotest.(check (float 1e-6))

(* --- Paper_example --- *)

let test_paper_example_metric () =
  Alcotest.(check bool) "metric" true (Metric.is_metric Paper_example.matrix)

let test_paper_example_compact_sets () =
  Alcotest.(check (list (list int)))
    "compact sets" Paper_example.compact_sets
    (Cgraph.Compact_sets.find Paper_example.matrix)

let test_paper_example_c4_matrix () =
  let deco = Decompose.decompose Paper_example.matrix in
  (* Find the block of C4 = {0,1,2,4}. *)
  let c4 =
    List.find
      (fun (tree, _) -> Laminar.members tree = [ 0; 1; 2; 4 ])
      deco.Decompose.set_blocks
  in
  let _, block = c4 in
  Alcotest.(check bool) "figure 6 matrix" true
    (Dist_matrix.equal block.Decompose.small Paper_example.c4_max_matrix)

(* --- Decompose --- *)

let test_decompose_block_count () =
  let deco = Decompose.decompose Paper_example.matrix in
  (* 4 compact sets + virtual root. *)
  Alcotest.(check int) "blocks" 5 (Decompose.n_blocks deco);
  Alcotest.(check int) "largest block" 2 (Decompose.largest_block deco)

let test_decompose_no_sets () =
  (* Equidistant points: a single root block over all species. *)
  let m = Dist_matrix.init 5 (fun _ _ -> 3.) in
  let deco = Decompose.decompose m in
  Alcotest.(check int) "one block" 1 (Decompose.n_blocks deco);
  Alcotest.(check int) "block size" 5 (Decompose.largest_block deco)

(* Decompositions at front-end scale, pinned byte for byte.  The
   brute-force and naive finders stop at a few dozen species, so these
   digests are what ties the optimised finder and forest builder to a
   fixed output on matrices the size the decomposition is used at.  Each
   digest covers the forest as [Laminar.pp] prints it plus every block's
   small matrix in PHYLIP; any change to which sets are found, how they
   nest, how children are ordered or how blocks are built changes it. *)
let scale_digest deco =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Format.asprintf "%a@." Laminar.pp deco.Decompose.forest);
  let add (block : Decompose.block) =
    Buffer.add_string b (Distmat.Matrix_io.to_phylip block.Decompose.small)
  in
  add deco.Decompose.root_block;
  List.iter (fun (_, block) -> add block) deco.Decompose.set_blocks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let scale_pins =
  (* (seed, n, compact sets, digest at relaxation 1, digest at 1.5) *)
  [
    ( 1,
      800,
      504,
      "86c3f255349d863f9138669d4e8ea061",
      "4d4522f8b40c1da4a04f1a01b2a75c39" );
    ( 2,
      810,
      505,
      "12192fa76b59fd0a1ed1969fea58943e",
      "fa61f0f19794d395d90e5b0f16c30796" );
    ( 3,
      790,
      501,
      "0e6c643ae714a6d6749a020a14b1237d",
      "e9251c05c848fdee2c7cdc3673e95ed6" );
  ]

let test_scale_digests () =
  List.iter
    (fun (seed, n, n_compact, strict, relaxed) ->
      let m = Gen.near_ultrametric ~rng:(rng seed) n in
      let found = List.length (Cgraph.Compact_sets.find m) in
      if found < 100 then
        Alcotest.failf "seed %d: only %d compact sets" seed found;
      Alcotest.(check int) (Printf.sprintf "seed %d sets" seed) n_compact found;
      List.iter
        (fun (relaxation, expect) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d relaxation %g" seed relaxation)
            expect
            (scale_digest (Decompose.decompose ~relaxation m)))
        [ (1., strict); (1.5, relaxed) ])
    scale_pins

let test_max_linkage_is_metric () =
  (* Max-linkage representative matrices built from a metric are
     metrics. *)
  for seed = 0 to 9 do
    let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.25 14 in
    let deco = Decompose.decompose ~linkage:Decompose.Max m in
    Alcotest.(check bool) "root block metric" true
      (Metric.is_metric deco.Decompose.root_block.Decompose.small);
    List.iter
      (fun (_, b) ->
        Alcotest.(check bool) "set block metric" true
          (Metric.is_metric b.Decompose.small))
      deco.Decompose.set_blocks
  done

let test_linkage_ordering () =
  (* Pointwise: Min <= Avg <= Max on every block entry. *)
  let m = Gen.near_ultrametric ~rng:(rng 21) ~noise:0.25 12 in
  let dmax = (Decompose.decompose ~linkage:Decompose.Max m).Decompose.root_block in
  let dmin = (Decompose.decompose ~linkage:Decompose.Min m).Decompose.root_block in
  let davg = (Decompose.decompose ~linkage:Decompose.Avg m).Decompose.root_block in
  Dist_matrix.iter_pairs
    (fun i j dx ->
      let mn = Dist_matrix.get dmin.Decompose.small i j
      and av = Dist_matrix.get davg.Decompose.small i j in
      if not (mn <= av +. 1e-9 && av <= dx +. 1e-9) then
        Alcotest.failf "ordering violated at (%d,%d)" i j)
    dmax.Decompose.small

(* --- Pipeline --- *)

let test_exact_pipeline () =
  let m = Gen.uniform_metric ~rng:(rng 1) 8 in
  let r = Pipeline.exact m in
  Alcotest.(check bool) "optimal" true r.Pipeline.optimal;
  check_float "cost equals solver" (Solver.solve m).Solver.cost r.Pipeline.cost;
  Alcotest.(check int) "one block" 1 r.Pipeline.n_blocks

let test_with_compact_sets_valid_tree () =
  for seed = 0 to 9 do
    let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.3 14 in
    let r = Pipeline.with_compact_sets m in
    (match Tree_check.full_check m r.Pipeline.tree with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "seed %d: invalid tree: %a" seed Tree_check.pp_error e);
    check_float "cost is weight" (Utree.weight r.Pipeline.tree) r.Pipeline.cost
  done

let test_compact_sets_near_optimal_on_structured () =
  (* On clustered (mtDNA-like) data the compact-set tree must stay close
     to the optimum — the paper reports <= 1.5 % on mtDNA and <= 5 % on
     random data. *)
  for seed = 0 to 4 do
    let d = Seqsim.Mtdna.generate ~rng:(rng (40 + seed)) 12 in
    let m = d.Seqsim.Mtdna.matrix in
    let cs = Pipeline.with_compact_sets m in
    let ex = Pipeline.exact m in
    let gap = (cs.Pipeline.cost -. ex.Pipeline.cost) /. ex.Pipeline.cost in
    Alcotest.(check bool) "never cheaper than optimal" true
      (cs.Pipeline.cost >= ex.Pipeline.cost -. 1e-6);
    if gap > 0.10 then
      Alcotest.failf "seed %d: gap %.1f%% too large" seed (gap *. 100.)
  done

let test_exact_ultrametric_input_is_recovered () =
  (* On an exactly ultrametric matrix the decomposition is lossless:
     compact-set blocks mirror the dendrogram, so the result is the
     optimal tree with cost = exact. *)
  let m = Gen.ultrametric ~rng:(rng 8) 12 in
  let cs = Pipeline.with_compact_sets m in
  let ex = Pipeline.exact m in
  check_float "same cost" ex.Pipeline.cost cs.Pipeline.cost

let test_pipeline_parallel_workers () =
  let m = Gen.near_ultrametric ~rng:(rng 9) ~noise:0.2 12 in
  let seqr = Pipeline.with_compact_sets m in
  let parr =
    Pipeline.with_compact_sets
      ~config:Run_config.(default |> with_workers 4)
      m
  in
  check_float "same cost" seqr.Pipeline.cost parr.Pipeline.cost

let check_stats_equal msg (a : Stats.t) (b : Stats.t) =
  let check field va vb =
    Alcotest.(check int) (Printf.sprintf "%s: %s" msg field) va vb
  in
  check "expanded" a.Stats.expanded b.Stats.expanded;
  check "generated" a.Stats.generated b.Stats.generated;
  check "pruned" a.Stats.pruned b.Stats.pruned;
  check "pruned_33" a.Stats.pruned_33 b.Stats.pruned_33;
  check "ub_updates" a.Stats.ub_updates b.Stats.ub_updates;
  check "max_open" a.Stats.max_open b.Stats.max_open

let test_block_workers_deterministic () =
  (* The inter-block scheduler must be invisible in the results: same
     cost and identical summed search statistics for every worker
     count. *)
  let m = Gen.near_ultrametric ~rng:(rng 9) ~noise:0.2 14 in
  let base = Pipeline.with_compact_sets m in
  Alcotest.(check bool) "multi-block decomposition" true
    (base.Pipeline.n_blocks >= 4);
  List.iter
    (fun block_workers ->
      let r =
        Pipeline.with_compact_sets
          ~config:Run_config.(default |> with_block_workers block_workers)
          m
      in
      check_float
        (Printf.sprintf "cost, block_workers=%d" block_workers)
        base.Pipeline.cost r.Pipeline.cost;
      check_stats_equal
        (Printf.sprintf "stats, block_workers=%d" block_workers)
        base.Pipeline.stats r.Pipeline.stats)
    [ 1; 2; 4 ]

let test_manifest_one_entry_per_block () =
  (* Whatever order the pool finishes blocks in, the manifest lists one
     worker entry per solved (>= 2 children) block, in block-id order. *)
  let m = Gen.near_ultrametric ~rng:(rng 9) ~noise:0.2 14 in
  let deco = Decompose.decompose m in
  let solvable id (block : Decompose.block) =
    if List.length block.Decompose.children >= 2 then Some id else None
  in
  let expected =
    List.filter_map Fun.id
      (solvable 0 deco.Decompose.root_block
      :: List.mapi
           (fun i (_, b) -> solvable (i + 1) b)
           deco.Decompose.set_blocks)
  in
  List.iter
    (fun block_workers ->
      let r =
        Pipeline.with_compact_sets
          ~config:Run_config.(default |> with_block_workers block_workers)
          m
      in
      let ids =
        List.map
          (function
            | Obs.Json.Obj fields -> (
                match List.assoc_opt "block" fields with
                | Some (Obs.Json.Int id) -> id
                | _ -> Alcotest.fail "worker entry without block id")
            | _ -> Alcotest.fail "worker entry is not an object")
          (Obs.Report.workers r.Pipeline.report)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "block ids, block_workers=%d" block_workers)
        expected ids)
    [ 1; 4 ]

let test_rejects_bad_worker_counts () =
  let m = Gen.uniform_metric ~rng:(rng 3) 6 in
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "workers 0" (fun () ->
      Pipeline.with_compact_sets
        ~config:Run_config.(default |> with_workers 0)
        m);
  expect_invalid "block_workers 0" (fun () ->
      Pipeline.with_compact_sets
        ~config:Run_config.(default |> with_block_workers 0)
        m);
  expect_invalid "workers -1" (fun () ->
      Pipeline.with_compact_sets
        ~config:Run_config.(default |> with_workers (-1))
        m);
  expect_invalid "exact workers 0" (fun () ->
      Pipeline.exact ~config:Run_config.(default |> with_workers 0) m);
  expect_invalid "plan budget 0" (fun () ->
      Pipeline.plan_workers ~budget:0 (Decompose.decompose m))

let test_plan_workers_sane () =
  List.iter
    (fun (seed, n) ->
      let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.3 n in
      let deco = Decompose.decompose m in
      List.iter
        (fun budget ->
          let bw, sw = Pipeline.plan_workers ~budget deco in
          Alcotest.(check bool) "block_workers >= 1" true (bw >= 1);
          Alcotest.(check bool) "workers >= 1" true (sw >= 1);
          Alcotest.(check bool) "within budget" true (bw * sw <= budget))
        [ 1; 2; 4; 8 ])
    [ (9, 14); (3, 6); (800, 16) ]

let test_all_linkages_give_valid_trees () =
  let m = Gen.near_ultrametric ~rng:(rng 10) ~noise:0.3 13 in
  List.iter
    (fun linkage ->
      let r =
        Pipeline.with_compact_sets
          ~config:Run_config.(default |> with_linkage linkage)
          m
      in
      match Tree_check.full_check m r.Pipeline.tree with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid: %a" Tree_check.pp_error e)
    [ Decompose.Max; Decompose.Min; Decompose.Avg ]

let test_relaxed_pipeline_valid_and_faster_decomposition () =
  for seed = 0 to 4 do
    let m = Gen.uniform_metric ~rng:(rng (800 + seed)) 16 in
    let strict = Pipeline.with_compact_sets m in
    let relaxed =
      Pipeline.with_compact_sets
        ~config:Run_config.(default |> with_relaxation 1.5)
        m
    in
    (match Tree_check.full_check m relaxed.Pipeline.tree with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid: %a" Tree_check.pp_error e);
    Alcotest.(check bool) "decomposes at least as much" true
      (relaxed.Pipeline.largest_block <= strict.Pipeline.largest_block)
  done

let test_compare_methods_report () =
  let m = Gen.near_ultrametric ~rng:(rng 11) ~noise:0.2 11 in
  let c = Pipeline.compare_methods m in
  Alcotest.(check bool) "cost increase >= 0" true
    (c.Pipeline.cost_increase_pct >= -1e-6);
  Alcotest.(check bool) "time saved <= 100" true
    (c.Pipeline.time_saved_pct <= 100.)

let test_singleton_matrix () =
  let m = Dist_matrix.create 1 in
  let r = Pipeline.with_compact_sets m in
  check_float "zero cost" 0. r.Pipeline.cost

let test_two_species_pipeline () =
  let m = Dist_matrix.init 2 (fun _ _ -> 8.) in
  let r = Pipeline.with_compact_sets m in
  check_float "cost" 8. r.Pipeline.cost

(* --- qcheck --- *)

let arb_seed_n lo hi =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 10_000) (int_range lo hi))

let prop_pipeline_tree_valid =
  QCheck.Test.make ~name:"compact-set tree is always a valid feasible UT"
    ~count:30 (arb_seed_n 2 14) (fun (seed, n) ->
      let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.35 n in
      let r = Pipeline.with_compact_sets m in
      match Tree_check.full_check m r.Pipeline.tree with
      | Ok () -> true
      | Error _ -> false)

let prop_pipeline_never_beats_exact =
  QCheck.Test.make ~name:"compact-set cost >= exact cost" ~count:20
    (arb_seed_n 2 10) (fun (seed, n) ->
      let m = Gen.uniform_metric ~rng:(rng seed) n in
      let cs = Pipeline.with_compact_sets m in
      let ex = Pipeline.exact m in
      cs.Pipeline.cost >= ex.Pipeline.cost -. 1e-6)

let prop_blocks_cover_species =
  QCheck.Test.make ~name:"decomposition blocks cover every species once"
    ~count:40 (arb_seed_n 2 20) (fun (seed, n) ->
      let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.3 n in
      let deco = Decompose.decompose m in
      let covered =
        List.concat_map Laminar.members
          deco.Decompose.root_block.Decompose.children
      in
      List.sort compare covered = List.init n Fun.id)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "compactphy"
    [
      ( "paper_example",
        [
          Alcotest.test_case "metric" `Quick test_paper_example_metric;
          Alcotest.test_case "compact sets" `Quick
            test_paper_example_compact_sets;
          Alcotest.test_case "figure 6 matrix" `Quick
            test_paper_example_c4_matrix;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "block count" `Quick test_decompose_block_count;
          Alcotest.test_case "no sets" `Quick test_decompose_no_sets;
          Alcotest.test_case "max linkage metric" `Quick
            test_max_linkage_is_metric;
          Alcotest.test_case "linkage ordering" `Quick test_linkage_ordering;
          Alcotest.test_case "scale digests" `Quick test_scale_digests;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "exact" `Quick test_exact_pipeline;
          Alcotest.test_case "valid trees" `Quick
            test_with_compact_sets_valid_tree;
          Alcotest.test_case "near optimal on mtdna" `Quick
            test_compact_sets_near_optimal_on_structured;
          Alcotest.test_case "ultrametric recovered" `Quick
            test_exact_ultrametric_input_is_recovered;
          Alcotest.test_case "parallel workers" `Quick
            test_pipeline_parallel_workers;
          Alcotest.test_case "block workers deterministic" `Quick
            test_block_workers_deterministic;
          Alcotest.test_case "manifest entry per block" `Quick
            test_manifest_one_entry_per_block;
          Alcotest.test_case "rejects bad worker counts" `Quick
            test_rejects_bad_worker_counts;
          Alcotest.test_case "plan_workers sane" `Quick test_plan_workers_sane;
          Alcotest.test_case "all linkages valid" `Quick
            test_all_linkages_give_valid_trees;
          Alcotest.test_case "relaxed pipeline" `Quick
            test_relaxed_pipeline_valid_and_faster_decomposition;
          Alcotest.test_case "compare report" `Quick test_compare_methods_report;
          Alcotest.test_case "singleton" `Quick test_singleton_matrix;
          Alcotest.test_case "two species" `Quick test_two_species_pipeline;
        ] );
      ( "properties",
        q
          [
            prop_pipeline_tree_valid;
            prop_pipeline_never_beats_exact;
            prop_blocks_cover_species;
          ] );
    ]
