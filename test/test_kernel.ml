(* Differential tests for the incremental expansion kernel: with either
   [kernel] setting the solver must run an observably identical search —
   same trees, same costs, same statistics — on generated matrices of
   every flavour and on the repository's data matrices.  Plus direct
   unit tests of [Kernel.insertions] against [Bb_tree.insertions]. *)

module Dist_matrix = Distmat.Dist_matrix
module Matrix_io = Distmat.Matrix_io
module Gen = Distmat.Gen
module Utree = Ultra.Utree
module Bb_tree = Bnb.Bb_tree
module Kernel = Bnb.Kernel
module Solver = Bnb.Solver
module Stats = Bnb.Stats
module Pipeline = Compactphy.Pipeline
module Run_config = Compactphy.Run_config

let rng seed = Random.State.make [| seed |]

(* The two paths promise bit-identical floats, so compare exactly. *)
let exact_float = Alcotest.(check (float 0.))

let solve_with kernel options dm =
  Solver.solve ~options:{ options with Solver.kernel } dm

(* Run both kernels and require the observable outcome to match field
   by field, stats included. *)
let check_differential name options dm =
  let r = solve_with Solver.Reference options dm in
  let i = solve_with Solver.Incremental options dm in
  exact_float (name ^ ": cost") r.Solver.cost i.Solver.cost;
  Alcotest.(check bool)
    (name ^ ": tree") true
    (Utree.equal r.Solver.tree i.Solver.tree);
  Alcotest.(check bool) (name ^ ": optimal flag") r.Solver.optimal
    i.Solver.optimal;
  let rs = r.Solver.stats and is_ = i.Solver.stats in
  Alcotest.(check int) (name ^ ": expanded") rs.Stats.expanded
    is_.Stats.expanded;
  Alcotest.(check int)
    (name ^ ": generated")
    rs.Stats.generated is_.Stats.generated;
  Alcotest.(check int) (name ^ ": pruned") rs.Stats.pruned is_.Stats.pruned;
  Alcotest.(check int)
    (name ^ ": pruned_33")
    rs.Stats.pruned_33 is_.Stats.pruned_33;
  Alcotest.(check int)
    (name ^ ": ub_updates")
    rs.Stats.ub_updates is_.Stats.ub_updates;
  Alcotest.(check int) (name ^ ": max_open") rs.Stats.max_open
    is_.Stats.max_open;
  Alcotest.(check int)
    (name ^ ": all_optimal count")
    (List.length r.Solver.all_optimal)
    (List.length i.Solver.all_optimal);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) (name ^ ": all_optimal tree") true (Utree.equal a b))
    r.Solver.all_optimal i.Solver.all_optimal

(* --- generated matrices, every flavour --- *)

let generators =
  [
    ("uniform", fun ~rng n -> Gen.uniform_metric ~rng n);
    ("euclidean", fun ~rng n -> Gen.euclidean ~rng n);
    ("clustered", fun ~rng n -> Gen.clustered ~rng ~n_clusters:2 n);
    ("ultrametric", fun ~rng n -> Gen.ultrametric ~rng n);
    ("near-ultrametric", fun ~rng n -> Gen.near_ultrametric ~rng n);
  ]

let test_differential_generated () =
  List.iteri
    (fun gi (gname, gen) ->
      List.iter
        (fun n ->
          let m = gen ~rng:(rng ((10 * gi) + n)) n in
          check_differential
            (Printf.sprintf "%s n=%d" gname n)
            Solver.default_options m)
        [ 5; 8; 11 ])
    generators

let test_differential_option_sweep () =
  let m = Gen.uniform_metric ~rng:(rng 42) 9 in
  let combos =
    [
      ("lb0-dfs", Solver.options ~lb:Solver.LB0 ());
      ("lb1-dfs", Solver.options ~lb:Solver.LB1 ());
      ("lb1-best-first", Solver.options ~search:Solver.Best_first ());
      ("lb0-best-first",
        Solver.options ~lb:Solver.LB0 ~search:Solver.Best_first ());
      ("collect-all", Solver.options ~collect_all:true ());
      ("collect-all-best-first",
        Solver.options ~collect_all:true ~search:Solver.Best_first ());
      ("no-heuristic-ub",
        Solver.options ~initial_ub:Solver.No_heuristic_ub ());
      ("capped", Solver.options ~max_expanded:50 ());
    ]
  in
  List.iter (fun (name, options) -> check_differential name options m) combos

let test_differential_relation33 () =
  (* 3-3 filtering forces the reference fallback for the filtered
     nodes; the mixed paths must still agree. *)
  let m = Gen.near_ultrametric ~rng:(rng 7) 10 in
  List.iter
    (fun (name, mode) ->
      check_differential name (Solver.options ~relation33:mode ()) m)
    [
      ("33-third-only", Solver.Third_only);
      ("33-every-insertion", Solver.Every_insertion);
    ]

let test_incremental_matches_exhaustive () =
  (* Insert species 2..n-1 in every position; the cheapest complete
     realization is the certified optimum. *)
  let m = Gen.uniform_metric ~rng:(rng 3) 7 in
  let n = Dist_matrix.size m in
  let h01 = Dist_matrix.get m 0 1 /. 2. in
  let start = Utree.node h01 (Utree.leaf 0) (Utree.leaf 1) in
  let best = ref infinity in
  let rec go t k =
    if k = n then (if Utree.weight t < !best then best := Utree.weight t)
    else List.iter (fun t' -> go t' (k + 1)) (Bb_tree.insertions m t k)
  in
  go start 2;
  let out = solve_with Solver.Incremental Solver.default_options m in
  Alcotest.(check (float 1e-9)) "exhaustive optimum" !best out.Solver.cost

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

let test_differential_hominoids () =
  let m = load "hominoids.phy" in
  check_differential "hominoids dfs" Solver.default_options m;
  check_differential "hominoids best-first"
    (Solver.options ~search:Solver.Best_first ())
    m;
  check_differential "hominoids collect-all"
    (Solver.options ~collect_all:true ())
    m

let test_differential_random20 () =
  let m = load "random20.phy" in
  check_differential "random20 capped"
    (Solver.options ~max_expanded:4_000 ())
    m

let test_differential_mtdna26 () =
  let m = load "mtdna26.phy" in
  check_differential "mtdna26 capped"
    (Solver.options ~max_expanded:2_000 ())
    m

let test_differential_pipeline () =
  (* End-to-end through the compact-set pipeline: flipping the kernel in
     the Run_config must not change the constructed tree. *)
  let m = Gen.clustered ~rng:(rng 12) ~n_clusters:4 20 in
  let run kernel =
    let config =
      Run_config.(
        default
        |> with_solver { Solver.default_options with Solver.kernel })
    in
    Pipeline.with_compact_sets ~config m
  in
  let r = run Solver.Reference and i = run Solver.Incremental in
  exact_float "pipeline cost" r.Pipeline.cost i.Pipeline.cost;
  Alcotest.(check bool)
    "pipeline tree" true
    (Utree.equal r.Pipeline.tree i.Pipeline.tree);
  Alcotest.(check int) "pipeline expanded" r.Pipeline.stats.Stats.expanded
    i.Pipeline.stats.Stats.expanded

(* --- Kernel.insertions against Bb_tree.insertions --- *)

(* A partial minimal realization over species 0..k-1, following the
   first insertion position at every level. *)
let partial_tree m k =
  let t0 =
    Utree.node (Dist_matrix.get m 0 1 /. 2.) (Utree.leaf 0) (Utree.leaf 1)
  in
  let rec go t j =
    if j >= k then t else go (List.hd (Bb_tree.insertions m t j)) (j + 1)
  in
  go t0 2

let test_insertions_unbounded_identical () =
  let m = Gen.uniform_metric ~rng:(rng 5) 10 in
  let kstate = Kernel.prepare m in
  for k = 2 to 9 do
    let t = partial_tree m k in
    let reference = Bb_tree.insertions m t k in
    let survivors, dropped = Kernel.insertions kstate t k ~dthr:infinity in
    Alcotest.(check int) "no drops" 0 dropped;
    Alcotest.(check int) "count" ((2 * k) - 1) (List.length survivors);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "same tree, same order" true (Utree.equal a b))
      reference survivors
  done

let test_insertions_threshold_exact () =
  (* With a threshold placed strictly between two candidate deltas the
     kernel must keep exactly the reference children below it. *)
  let m = Gen.euclidean ~rng:(rng 6) 9 in
  let kstate = Kernel.prepare m in
  let k = 7 in
  let t = partial_tree m k in
  let w0 = Utree.weight t in
  let reference = Bb_tree.insertions m t k in
  let deltas =
    List.sort compare (List.map (fun c -> Utree.weight c -. w0) reference)
  in
  (* Midpoint between the 3rd and 4th cheapest deltas: far from any
     boundary, so float noise cannot flip a verdict. *)
  let dthr = (List.nth deltas 2 +. List.nth deltas 3) /. 2. in
  let survivors, dropped = Kernel.insertions kstate t k ~dthr in
  let expected =
    List.filter (fun c -> Utree.weight c -. w0 < dthr) reference
  in
  Alcotest.(check int) "kept the cheap ones" (List.length expected)
    (List.length survivors);
  Alcotest.(check int) "accounted for the rest"
    ((2 * k) - 1 - List.length expected)
    dropped;
  List.iter2
    (fun a b -> Alcotest.(check bool) "same survivor" true (Utree.equal a b))
    expected survivors

let test_insertions_conservation () =
  (* Whatever the threshold: survivors + dropped = 2k - 1, and the
     survivors are a subsequence of the reference children. *)
  let m = Gen.near_ultrametric ~rng:(rng 8) 11 in
  let kstate = Kernel.prepare m in
  let k = 9 in
  let t = partial_tree m k in
  let reference = Bb_tree.insertions m t k in
  List.iter
    (fun dthr ->
      let survivors, dropped = Kernel.insertions kstate t k ~dthr in
      Alcotest.(check int) "conservation" ((2 * k) - 1)
        (List.length survivors + dropped);
      let rec subseq xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
            if Utree.equal x y then subseq xs' ys' else subseq xs ys'
      in
      Alcotest.(check bool) "subsequence" true (subseq survivors reference))
    [ 0.; 1.; 5.; 20.; 100.; infinity ]

let test_prepare_row_minima () =
  let m = Gen.uniform_metric ~rng:(rng 9) 12 in
  let n = Dist_matrix.size m in
  let mins = Kernel.row_minima (Kernel.prepare m) in
  Alcotest.(check int) "length" n (Array.length mins);
  for i = 0 to n - 1 do
    let manual = ref infinity in
    for j = 0 to n - 1 do
      if j <> i then manual := Float.min !manual (Dist_matrix.get m i j)
    done;
    exact_float "row minimum" !manual mins.(i)
  done

let test_kind_round_trip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        "round trip" true
        (List.assoc_opt (Obs.Json.enum_name Kernel.kind_names k)
           Kernel.kind_names
        = Some k))
    [ Kernel.Reference; Kernel.Incremental ];
  Alcotest.(check bool)
    "unknown name" true
    (List.assoc_opt "turbo" Kernel.kind_names = None)

let () =
  Alcotest.run "kernel"
    [
      ( "differential",
        [
          Alcotest.test_case "generated matrices" `Quick
            test_differential_generated;
          Alcotest.test_case "option sweep" `Quick
            test_differential_option_sweep;
          Alcotest.test_case "relation 3-3 fallback" `Quick
            test_differential_relation33;
          Alcotest.test_case "matches exhaustive optimum" `Quick
            test_incremental_matches_exhaustive;
          Alcotest.test_case "data: hominoids" `Quick
            test_differential_hominoids;
          Alcotest.test_case "data: random20 (capped)" `Slow
            test_differential_random20;
          Alcotest.test_case "data: mtdna26 (capped)" `Slow
            test_differential_mtdna26;
          Alcotest.test_case "pipeline with compact sets" `Quick
            test_differential_pipeline;
        ] );
      ( "insertions",
        [
          Alcotest.test_case "unbounded = reference" `Quick
            test_insertions_unbounded_identical;
          Alcotest.test_case "threshold keeps exactly the cheap ones" `Quick
            test_insertions_threshold_exact;
          Alcotest.test_case "conservation and order" `Quick
            test_insertions_conservation;
        ] );
      ( "state",
        [
          Alcotest.test_case "row minima" `Quick test_prepare_row_minima;
          Alcotest.test_case "kind round trip" `Quick test_kind_round_trip;
        ] );
    ]
