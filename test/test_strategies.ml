(* The pluggable strategy layer's contract:

   - every exploration order (DFS, best-first, hybrid) and every
     branching order reaches the same optimal cost at gap 0, on
     generated matrices of every flavour and on the repository's data
     matrices;
   - DFS with gap 0 and the default branching is bit-identical to the
     historical solver (cost, tree, stats);
   - a gap tolerance eps > 0 keeps the certificate: cost within
     (1 + eps) of the true optimum, recorded certified gap <= eps,
     [optimal = false];
   - checkpoint/resume round-trips under best-first exploration;
   - the frontier, heap and ordered shared pool honour their orders;
   - Run_config validates/serialises the new fields and the pipeline
     manifest records strategy and certified gap. *)

module Dist_matrix = Distmat.Dist_matrix
module Matrix_io = Distmat.Matrix_io
module Gen = Distmat.Gen
module Utree = Ultra.Utree
module Bb_tree = Bnb.Bb_tree
module Strategy = Bnb.Strategy
module Solver = Bnb.Solver
module Stats = Bnb.Stats
module Budget = Bnb.Budget
module Shared_pool = Parbnb.Shared_pool
module Pipeline = Compactphy.Pipeline
module Run_config = Compactphy.Run_config

let rng seed = Random.State.make [| 0x57a7; seed |]
let exact_float = Alcotest.(check (float 0.))

let solve ?(search = Solver.Dfs) ?(branching = Solver.Paper_order)
    ?(gap = 0.) m =
  Solver.solve
    ~options:(Solver.options ~search ~branching ~gap ())
    m

let explorations = [ Solver.Dfs; Solver.Best_first; Solver.Hybrid ]

let branchings =
  [ Solver.Paper_order; Solver.Largest_first; Solver.Residual_lb ]

(* --- same optimum across strategies (property) --- *)

let prop_explorations_same_cost () =
  Prop_gen.check ~count:60 ~name:"explorations agree on the optimum"
    (Prop_gen.matrix ~min_n:4 ~max_n:9 ())
    (fun m ->
      let reference = (solve m).Solver.cost in
      List.for_all
        (fun search ->
          Float.abs ((solve ~search m).Solver.cost -. reference) <= 1e-9)
        explorations)

let prop_branchings_same_cost () =
  Prop_gen.check ~count:60 ~name:"branching orders agree on the optimum"
    (Prop_gen.matrix ~min_n:4 ~max_n:9 ())
    (fun m ->
      let reference = (solve m).Solver.cost in
      List.for_all
        (fun branching ->
          Float.abs ((solve ~branching m).Solver.cost -. reference) <= 1e-9)
        branchings)

(* --- data matrices --- *)

let load name =
  (* Under [dune runtest] the cwd is the test directory and the repo's
     data/ sits beside it (see the (deps ...) field of test/dune);
     under [dune exec] from the project root it is ./data. *)
  let candidates =
    [
      Filename.concat ".." (Filename.concat "data" name);
      Filename.concat "data" name;
    ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.failf "data matrix %s not found" name
  in
  (Matrix_io.of_phylip (Matrix_io.read_file path)).Matrix_io.matrix

(* The larger data matrices are unendurable uncapped; a leading
   principal submatrix keeps them representative and fast. *)
let truncate m k =
  let k = Int.min k (Dist_matrix.size m) in
  Dist_matrix.init k (fun i j -> Dist_matrix.get m i j)

let data_matrices () =
  [
    ("hominoids", load "hominoids.phy");
    ("mtdna26[12]", truncate (load "mtdna26.phy") 12);
    ("random20[10]", truncate (load "random20.phy") 10);
  ]

let test_data_matrices_same_cost () =
  List.iter
    (fun (name, m) ->
      let reference = (solve m).Solver.cost in
      List.iter
        (fun search ->
          exact_float (name ^ ": exploration cost") reference
            (solve ~search m).Solver.cost)
        explorations;
      List.iter
        (fun branching ->
          exact_float (name ^ ": branching cost") reference
            (solve ~branching m).Solver.cost)
        branchings)
    (data_matrices ())

(* --- DFS + gap 0 is the historical search, decision for decision --- *)

let test_dfs_gap0_bit_identical () =
  for seed = 0 to 4 do
    let m = Gen.uniform_metric ~rng:(rng seed) 9 in
    let a = Solver.solve m in
    let b = solve ~search:Solver.Dfs ~branching:Solver.Paper_order ~gap:0. m in
    exact_float "cost" a.Solver.cost b.Solver.cost;
    Alcotest.(check bool) "tree" true (Utree.equal a.Solver.tree b.Solver.tree);
    Alcotest.(check int) "expanded" a.Solver.stats.Stats.expanded
      b.Solver.stats.Stats.expanded;
    Alcotest.(check int) "pruned" a.Solver.stats.Stats.pruned
      b.Solver.stats.Stats.pruned;
    Alcotest.(check int) "max_open" a.Solver.stats.Stats.max_open
      b.Solver.stats.Stats.max_open;
    exact_float "certified gap" 0. b.Solver.certified_gap
  done

(* --- gap tolerance: certificate and accounting --- *)

let test_gap_certificate () =
  List.iter
    (fun eps ->
      for seed = 0 to 3 do
        let m = Gen.uniform_metric ~rng:(rng (20 + seed)) 10 in
        let opt = (solve m).Solver.cost in
        let r = solve ~gap:eps m in
        Alcotest.(check bool)
          "status Exact" true
          (r.Solver.status = Budget.Exact);
        Alcotest.(check bool) "not flagged optimal" false r.Solver.optimal;
        Alcotest.(check bool)
          (Printf.sprintf "cost %g within (1+%g) of optimum %g" r.Solver.cost
             eps opt)
          true
          (r.Solver.cost <= ((1. +. eps) *. opt) +. 1e-9);
        Alcotest.(check bool)
          "certified gap within tolerance" true
          (r.Solver.certified_gap <= eps +. 1e-12);
        Alcotest.(check bool)
          "lower bound below cost" true
          (r.Solver.lower_bound <= r.Solver.cost +. 1e-9);
        Alcotest.(check bool)
          "expands no more than exact" true
          (r.Solver.stats.Stats.expanded
          <= (solve m).Solver.stats.Stats.expanded)
      done)
    [ 0.05; 0.2 ]

let test_gap_attribution_reason () =
  (* A loose tolerance on a hard matrix must attribute at least one
     prune to the tolerance itself, and never at eps = 0.  The reference
     kernel keeps every pruning decision at the exact check sites (the
     incremental kernel's conservative pre-filter would absorb most of
     them as [Kernel_threshold]). *)
  let m = Gen.uniform_metric ~rng:(rng 31) 11 in
  let solve_ref gap =
    Solver.solve ~options:(Solver.options ~kernel:Solver.Reference ~gap ()) m
  in
  let count (r : Solver.outcome) =
    Obs.Attribution.total r.Solver.stats.Stats.att
      Obs.Attribution.Gap_tolerance
  in
  Alcotest.(check int) "no gap prunes at eps = 0" 0 (count (solve_ref 0.));
  Alcotest.(check bool)
    "gap prunes recorded at eps = 0.2" true
    (count (solve_ref 0.2) > 0)

(* --- checkpoint/resume under best-first --- *)

let test_best_first_resume () =
  let m = Gen.uniform_metric ~rng:(rng 41) 12 in
  let config =
    Run_config.(default |> with_exploration Solver.Best_first)
  in
  let uninterrupted = Pipeline.exact ~config m in
  let budgeted =
    Pipeline.exact ~config:Run_config.(config |> with_max_nodes 10) m
  in
  Alcotest.(check bool)
    "budgeted run interrupted" true
    (budgeted.Pipeline.status <> Budget.Exact);
  match budgeted.Pipeline.checkpoint with
  | None -> Alcotest.fail "interrupted best-first run offered no checkpoint"
  | Some ck ->
      let resumed = Pipeline.exact ~config ~resume:ck m in
      Alcotest.(check bool)
        "resumed run is Exact" true
        (resumed.Pipeline.status = Budget.Exact);
      exact_float "resumed cost = uninterrupted cost"
        uninterrupted.Pipeline.cost resumed.Pipeline.cost

(* --- parallel solver under strategies --- *)

let test_parallel_strategies_same_cost () =
  let m = Gen.uniform_metric ~rng:(rng 51) 11 in
  let reference = (solve m).Solver.cost in
  List.iter
    (fun search ->
      let r =
        Parbnb.Par_bnb.solve
          ~options:(Solver.options ~search ())
          ~n_workers:2 m
      in
      exact_float "parallel cost" reference r.Parbnb.Par_bnb.cost;
      exact_float "parallel certified gap" 0. r.Parbnb.Par_bnb.certified_gap)
    explorations

let test_parallel_gap_certificate () =
  let m = Gen.uniform_metric ~rng:(rng 52) 11 in
  let opt = (solve m).Solver.cost in
  let r =
    Parbnb.Par_bnb.solve ~options:(Solver.options ~gap:0.1 ()) ~n_workers:2 m
  in
  Alcotest.(check bool)
    "parallel gap cost certified" true
    (r.Parbnb.Par_bnb.cost <= (1.1 *. opt) +. 1e-9);
  Alcotest.(check bool)
    "parallel certified gap within tolerance" true
    (r.Parbnb.Par_bnb.certified_gap <= 0.1 +. 1e-12);
  Alcotest.(check bool) "not flagged optimal" false r.Parbnb.Par_bnb.optimal

(* --- frontier / heap / ordered pool units --- *)

let node lb : Bb_tree.node = { tree = Utree.Leaf 0; k = 2; cost = lb; lb }

let test_frontier_dfs_is_lifo () =
  let f = Strategy.Frontier.create Solver.Dfs in
  List.iter (Strategy.Frontier.push f) [ node 1.; node 2.; node 3. ];
  let pops =
    List.init 3 (fun _ ->
        match Strategy.Frontier.pop f with
        | Some n -> n.Bb_tree.lb
        | None -> Alcotest.fail "frontier ran dry")
  in
  Alcotest.(check (list (float 0.))) "LIFO order" [ 3.; 2.; 1. ] pops

let test_frontier_best_first_pops_min () =
  let f = Strategy.Frontier.create Solver.Best_first in
  List.iter (Strategy.Frontier.push f) [ node 5.; node 1.; node 3.; node 2. ];
  let pops =
    List.init 4 (fun _ ->
        match Strategy.Frontier.pop f with
        | Some n -> n.Bb_tree.lb
        | None -> Alcotest.fail "frontier ran dry")
  in
  Alcotest.(check (list (float 0.))) "ascending lb" [ 1.; 2.; 3.; 5. ] pops

let test_frontier_take_worst () =
  let f = Strategy.Frontier.create Solver.Best_first in
  List.iter (Strategy.Frontier.push f) [ node 5.; node 1.; node 3. ];
  (match Strategy.Frontier.take_worst f with
  | Some n -> exact_float "worst lb donated" 5. n.Bb_tree.lb
  | None -> Alcotest.fail "expected a node");
  Alcotest.(check int) "two remain" 2 (Strategy.Frontier.length f)

let test_hybrid_dives_then_best () =
  (* The dive register keeps the most recent push; once it empties the
     heap serves the globally best node. *)
  let f = Strategy.Frontier.create Solver.Hybrid in
  List.iter (Strategy.Frontier.push f) [ node 2.; node 9. ];
  (match Strategy.Frontier.pop f with
  | Some n -> exact_float "dive takes the latest push" 9. n.Bb_tree.lb
  | None -> Alcotest.fail "expected dive node");
  (match Strategy.Frontier.pop f with
  | Some n -> exact_float "then the heap minimum" 2. n.Bb_tree.lb
  | None -> Alcotest.fail "expected heap node")

let test_shared_pool_ordered_take () =
  let pool = Shared_pool.create ~ordered:true ~n_workers:1 () in
  Shared_pool.seed pool [ node 4.; node 1.; node 3. ];
  (match Shared_pool.take pool with
  | Some n -> exact_float "ordered take is min-lb" 1. n.Bb_tree.lb
  | None -> Alcotest.fail "expected a node");
  match Shared_pool.take pool with
  | Some n -> exact_float "then the next-smallest" 3. n.Bb_tree.lb
  | None -> Alcotest.fail "expected a node"

let test_order_children () =
  let leaf = Utree.leaf in
  let mk tree lb : Bb_tree.node = { tree; k = 3; cost = lb; lb } in
  let a = mk (leaf 0) 3. and b = mk (leaf 1) 1. and c = mk (leaf 2) 2. in
  let children = [ a; b; c ] in
  Alcotest.(check bool)
    "paper order is physically unchanged" true
    (Strategy.order_children Strategy.Paper_order ~inserted:3 children
    == children);
  Alcotest.(check (list (float 0.)))
    "residual order is descending lb" [ 3.; 2.; 1. ]
    (List.map
       (fun (n : Bb_tree.node) -> n.Bb_tree.lb)
       (Strategy.order_children Strategy.Residual_lb ~inserted:3 children))

(* --- configuration plumbing --- *)

let test_options_validation () =
  Alcotest.check_raises "negative gap rejected"
    (Invalid_argument "Solver.options: gap = -0.1 (must be >= 0 and finite)")
    (fun () -> ignore (Solver.options ~gap:(-0.1) ()));
  let bad =
    {
      Run_config.default with
      Run_config.solver = { Solver.default_options with Solver.gap = nan };
    }
  in
  Alcotest.(check bool)
    "validate rejects NaN gap" true
    (match Run_config.validate bad with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_config_json_records_strategy () =
  let config =
    Run_config.(
      default
      |> with_exploration Solver.Hybrid
      |> with_branching Solver.Residual_lb
      |> with_gap 0.05)
  in
  let json = Obs.Json.to_string (Run_config.to_json config) in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "config json mentions %s" needle)
        true
        (Astring_contains.contains json needle))
    [ "\"search\":\"hybrid\""; "\"branching\":\"residual_lb\""; "\"gap\":0.05" ]

let test_manifest_records_strategy_and_gap () =
  let m = Gen.uniform_metric ~rng:(rng 61) 8 in
  let r =
    Pipeline.exact
      ~config:Run_config.(default |> with_gap 0.05)
      m
  in
  (match Obs.Report.field r.Pipeline.report "strategy" with
  | Some (Obs.Json.Obj kvs) ->
      Alcotest.(check bool)
        "strategy object has the three keys" true
        (List.mem_assoc "exploration" kvs
        && List.mem_assoc "branching" kvs
        && List.mem_assoc "gap" kvs)
  | _ -> Alcotest.fail "manifest lacks a strategy object");
  match Obs.Report.field r.Pipeline.report "certified_gap" with
  | Some (Obs.Json.Float g) ->
      Alcotest.(check bool) "certified gap within tolerance" true (g <= 0.05)
  | _ -> Alcotest.fail "manifest lacks certified_gap"

let test_strategy_string_roundtrip () =
  let round table v =
    List.assoc_opt (Obs.Json.enum_name table v) table = Some v
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        "exploration round-trips" true
        (round Strategy.exploration_names e))
    [ Strategy.Dfs; Strategy.Best_first; Strategy.Hybrid ];
  List.iter
    (fun b ->
      Alcotest.(check bool)
        "branching round-trips" true
        (round Strategy.branching_names b))
    [ Strategy.Paper_order; Strategy.Largest_first; Strategy.Residual_lb ];
  (* Aliases parse, but the canonical spelling is what gets written. *)
  Alcotest.(check string) "canonical exploration" "best_first"
    (Obs.Json.enum_name Strategy.exploration_names
       (List.assoc "best-first" Strategy.exploration_names));
  Alcotest.(check string) "canonical branching" "residual_lb"
    (Obs.Json.enum_name Strategy.branching_names
       (List.assoc "residual" Strategy.branching_names))

let () =
  Alcotest.run "strategies"
    [
      ( "same_optimum",
        [
          Alcotest.test_case "explorations (generated)" `Quick
            prop_explorations_same_cost;
          Alcotest.test_case "branchings (generated)" `Quick
            prop_branchings_same_cost;
          Alcotest.test_case "data matrices" `Quick
            test_data_matrices_same_cost;
        ] );
      ( "gap_tolerance",
        [
          Alcotest.test_case "dfs gap 0 bit-identical" `Quick
            test_dfs_gap0_bit_identical;
          Alcotest.test_case "certificate holds" `Quick test_gap_certificate;
          Alcotest.test_case "attribution reason" `Quick
            test_gap_attribution_reason;
        ] );
      ( "anytime",
        [
          Alcotest.test_case "best-first checkpoint/resume" `Quick
            test_best_first_resume;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "strategies same cost" `Quick
            test_parallel_strategies_same_cost;
          Alcotest.test_case "gap certificate" `Quick
            test_parallel_gap_certificate;
        ] );
      ( "frontier",
        [
          Alcotest.test_case "dfs is LIFO" `Quick test_frontier_dfs_is_lifo;
          Alcotest.test_case "best-first pops min" `Quick
            test_frontier_best_first_pops_min;
          Alcotest.test_case "take_worst" `Quick test_frontier_take_worst;
          Alcotest.test_case "hybrid dive" `Quick test_hybrid_dives_then_best;
          Alcotest.test_case "ordered shared pool" `Quick
            test_shared_pool_ordered_take;
          Alcotest.test_case "order_children" `Quick test_order_children;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_options_validation;
          Alcotest.test_case "config json" `Quick
            test_config_json_records_strategy;
          Alcotest.test_case "manifest strategy/gap" `Quick
            test_manifest_records_strategy_and_gap;
          Alcotest.test_case "string round-trips" `Quick
            test_strategy_string_roundtrip;
        ] );
    ]
