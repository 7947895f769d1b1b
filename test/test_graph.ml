(* Tests for the cgraph library: union-find, graphs, MSTs, compact sets
   and the laminar forest. *)

module Dist_matrix = Distmat.Dist_matrix
module Gen = Distmat.Gen
module Union_find = Cgraph.Union_find
module Wgraph = Cgraph.Wgraph
module Mst = Cgraph.Mst
module Compact_sets = Cgraph.Compact_sets
module Laminar = Cgraph.Laminar

let rng seed = Random.State.make [| seed |]

(* Reconstruction of the paper's 6-vertex worked example (Figures 3-5),
   0-indexed: the MST ascending is (0,2) < (3,5) < (0,1) < (2,4) < (4,5)
   and the compact sets are {0,2}, {3,5}, {0,1,2} and {0,1,2,4}. *)
let paper_example =
  Dist_matrix.of_rows
    [|
      [| 0.; 2.; 1.; 9.; 6.; 9.5 |];
      [| 2.; 0.; 2.5; 10.; 6.; 10.5 |];
      [| 1.; 2.5; 0.; 9.2; 5.; 9.8 |];
      [| 9.; 10.; 9.2; 0.; 8.; 1.5 |];
      [| 6.; 6.; 5.; 8.; 0.; 7. |];
      [| 9.5; 10.5; 9.8; 1.5; 7.; 0. |];
    |]

let paper_compact_sets = [ [ 0; 2 ]; [ 3; 5 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 4 ] ]

(* --- Union_find --- *)

let test_uf_basics () =
  let uf = Union_find.create 5 in
  Alcotest.(check int) "initial sets" 5 (Union_find.n_sets uf);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 3 4);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same" false (Union_find.same uf 1 3);
  Alcotest.(check int) "sets" 3 (Union_find.n_sets uf);
  Alcotest.(check int) "size" 2 (Union_find.size uf 4);
  Alcotest.(check (list int)) "members" [ 3; 4 ] (Union_find.members uf 3)

let test_uf_self_union () =
  let uf = Union_find.create 3 in
  ignore (Union_find.union uf 1 1);
  Alcotest.(check int) "unchanged" 3 (Union_find.n_sets uf)

let test_uf_chain () =
  let n = 100 in
  let uf = Union_find.create n in
  for i = 0 to n - 2 do
    ignore (Union_find.union uf i (i + 1))
  done;
  Alcotest.(check int) "one set" 1 (Union_find.n_sets uf);
  Alcotest.(check int) "full size" n (Union_find.size uf 0)

(* --- Wgraph --- *)

let test_edge_normalised () =
  let e = Wgraph.edge 5 2 1. in
  Alcotest.(check (pair int int)) "u<v" (2, 5) (e.Wgraph.u, e.Wgraph.v)

let test_edge_rejects () =
  List.iter
    (fun f ->
      match f () with
      | (_ : Wgraph.edge) -> Alcotest.fail "expected exception"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> Wgraph.edge 1 1 1.);
      (fun () -> Wgraph.edge (-1) 2 1.);
      (fun () -> Wgraph.edge 0 1 (-1.));
    ]

let test_complete_graph () =
  let g = Wgraph.complete_of_matrix paper_example in
  Alcotest.(check int) "vertices" 6 (Wgraph.n_vertices g);
  Alcotest.(check int) "edges" 15 (Wgraph.n_edges g);
  Alcotest.(check bool) "connected" true (Wgraph.is_connected g)

let test_disconnected () =
  let g = Wgraph.create ~n:4 [ Wgraph.edge 0 1 1. ] in
  Alcotest.(check bool) "disconnected" false (Wgraph.is_connected g)

let test_sorted_edges () =
  let g = Wgraph.complete_of_matrix paper_example in
  let ws = List.map (fun e -> e.Wgraph.w) (Wgraph.sorted_edges g) in
  Alcotest.(check bool) "ascending" true (List.sort compare ws = ws)

(* --- Mst --- *)

let test_kruskal_paper_example () =
  let mst = Mst.kruskal (Wgraph.complete_of_matrix paper_example) in
  Alcotest.(check bool) "spanning" true (Mst.is_spanning_tree ~n:6 mst);
  Alcotest.(check (float 1e-9)) "weight" 16.5 (Mst.total_weight mst)
(* 1 + 1.5 + 2 + 5 + 7 = 16.5 *)

let test_prim_equals_kruskal_weight () =
  for seed = 0 to 9 do
    let m = Gen.uniform_metric ~rng:(rng seed) 20 in
    let k = Mst.kruskal (Wgraph.complete_of_matrix m) in
    let p = Mst.prim m in
    Alcotest.(check (float 1e-6))
      "same weight" (Mst.total_weight k) (Mst.total_weight p);
    Alcotest.(check bool) "prim spanning" true (Mst.is_spanning_tree ~n:20 p)
  done

let test_kruskal_disconnected_raises () =
  let g = Wgraph.create ~n:3 [ Wgraph.edge 0 1 1. ] in
  (match Mst.kruskal g with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ())

let test_is_spanning_tree_rejects_cycle () =
  let es = [ Wgraph.edge 0 1 1.; Wgraph.edge 1 2 1.; Wgraph.edge 0 2 1. ] in
  Alcotest.(check bool) "cycle" false (Mst.is_spanning_tree ~n:4 es)

(* --- Compact_sets --- *)

(* Reference oracle: every subset checked against the definition, O(2^n).
   Same output convention as the library finders: sets ascending, the
   list ordered by size, then lexicographically. *)
let brute_force dm =
  let n = Dist_matrix.size dm in
  let acc = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let members =
      List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)
    in
    if Compact_sets.is_compact dm members then acc := members :: !acc
  done;
  List.sort (fun a b -> compare (List.length a, a) (List.length b, b)) !acc

let test_paper_example_sets () =
  Alcotest.(check (list (list int)))
    "paper example" paper_compact_sets
    (Compact_sets.find_naive paper_example);
  Alcotest.(check (list (list int)))
    "optimised agrees" paper_compact_sets
    (Compact_sets.find paper_example)

let test_is_compact_direct () =
  Alcotest.(check bool) "{0,2}" true
    (Compact_sets.is_compact paper_example [ 0; 2 ]);
  Alcotest.(check bool) "{1,2} not" false
    (Compact_sets.is_compact paper_example [ 1; 2 ]);
  Alcotest.(check bool) "full set not" false
    (Compact_sets.is_compact paper_example [ 0; 1; 2; 3; 4; 5 ]);
  Alcotest.(check bool) "singleton not" false
    (Compact_sets.is_compact paper_example [ 3 ])

let test_three_implementations_agree () =
  for seed = 0 to 19 do
    let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.3 11 in
    let bf = brute_force m in
    let naive = Compact_sets.find_naive m in
    let fast = Compact_sets.find m in
    Alcotest.(check (list (list int))) "naive = brute force" bf naive;
    Alcotest.(check (list (list int))) "fast = brute force" bf fast
  done

let test_uniform_random_agree () =
  for seed = 100 to 109 do
    let m = Gen.uniform_metric ~rng:(rng seed) 12 in
    Alcotest.(check (list (list int)))
      "fast = brute force"
      (brute_force m)
      (Compact_sets.find m)
  done

let test_clustered_has_cluster_sets () =
  let m =
    Gen.clustered ~rng:(rng 3) ~n_clusters:3 ~spread:1. ~separation:200. 12
  in
  let sets = Compact_sets.find m in
  (* Each of the three generated clusters {i : i mod 3 = c} must show up. *)
  List.iter
    (fun c ->
      let expect =
        List.filter (fun i -> i mod 3 = c) (List.init 12 Fun.id)
      in
      if not (List.mem expect sets) then
        Alcotest.failf "cluster %d not discovered" c)
    [ 0; 1; 2 ]

let test_ultrametric_many_sets () =
  (* On an exact ultrametric with distinct levels, every internal node of
     the dendrogram except the root is a compact set: n - 2 of them. *)
  let m = Gen.ultrametric ~rng:(rng 11) 10 in
  let sets = Compact_sets.find m in
  Alcotest.(check int) "n-2 sets" 8 (List.length sets)

let test_mst_independence () =
  (* A matrix with tied edges: two coexisting MSTs (the paper's Figure 7
     situation).  Compact sets must not depend on the MST supplied. *)
  let m =
    Dist_matrix.of_rows
      [|
        [| 0.; 1.; 1.; 5. |];
        [| 1.; 0.; 1.; 5. |];
        [| 1.; 1.; 0.; 5. |];
        [| 5.; 5.; 5.; 0. |];
      |]
  in
  let mst1 = [ Wgraph.edge 0 1 1.; Wgraph.edge 0 2 1.; Wgraph.edge 2 3 5. ] in
  let mst2 = [ Wgraph.edge 0 1 1.; Wgraph.edge 1 2 1.; Wgraph.edge 0 3 5. ] in
  let s1 = Compact_sets.find_naive ~mst:mst1 m in
  let s2 = Compact_sets.find_naive ~mst:mst2 m in
  Alcotest.(check (list (list int))) "same sets" s1 s2;
  Alcotest.(check (list (list int))) "expected" [ [ 0; 1; 2 ] ] s1

let test_no_compact_sets () =
  (* All pairwise distances equal: no subset is strictly tighter. *)
  let m = Dist_matrix.init 6 (fun _ _ -> 4.) in
  Alcotest.(check (list (list int))) "none" [] (Compact_sets.find m);
  Alcotest.(check (list (list int))) "none (naive)" []
    (Compact_sets.find_naive m)

let test_relaxed_alpha_one_equals_find () =
  for seed = 0 to 9 do
    let m = Gen.near_ultrametric ~rng:(rng (500 + seed)) ~noise:0.3 15 in
    Alcotest.(check (list (list int)))
      "alpha 1" (Compact_sets.find m)
      (Compact_sets.find_relaxed ~alpha:1. m)
  done

let test_relaxed_monotone_in_alpha () =
  (* Larger alpha tests the same sweep's components against a looser
     bound, so every strict compact set is still accepted and the family
     can only grow. *)
  for seed = 0 to 9 do
    let m = Gen.uniform_metric ~rng:(rng (600 + seed)) 15 in
    let relaxed = Compact_sets.find_relaxed ~alpha:1.5 m in
    List.iter
      (fun set ->
        if not (List.mem set relaxed) then
          Alcotest.failf "seed %d: strict set dropped at alpha 1.5" seed)
      (Compact_sets.find m)
  done

let test_relaxed_family_is_laminar () =
  for seed = 0 to 9 do
    let m = Gen.uniform_metric ~rng:(rng (700 + seed)) 18 in
    let sets = Compact_sets.find_relaxed ~alpha:2.0 m in
    match Laminar.of_sets ~n:18 sets with
    | (_ : Laminar.t) -> ()
    | exception Invalid_argument msg ->
        Alcotest.failf "seed %d: not laminar (%s)" seed msg
  done

let test_relaxed_rejects_small_alpha () =
  let m = Gen.uniform_metric ~rng:(rng 1) 5 in
  (match Compact_sets.find_relaxed ~alpha:0.9 m with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ())

(* Integer distances drawn from 1-6 distinct values: ties everywhere,
   many coexisting MSTs, and components whose cheapest outgoing edge is
   tied with edges elsewhere in the sweep. *)
let tie_heavy_matrix r =
  let n = 3 + Random.State.int r 10 in
  let levels = 1 + Random.State.int r 6 in
  Dist_matrix.init n (fun _ _ -> float_of_int (1 + Random.State.int r levels))

let test_tie_heavy_agree () =
  for seed = 0 to 499 do
    let m = tie_heavy_matrix (rng seed) in
    let n = Dist_matrix.size m in
    let bf = brute_force m in
    let ctx what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check (list (list int)))
      (ctx "fast = brute force") bf (Compact_sets.find m);
    Alcotest.(check (list (list int)))
      (ctx "naive = brute force") bf (Compact_sets.find_naive m);
    List.iter
      (fun alpha ->
        match Laminar.of_sets ~n (Compact_sets.find_relaxed ~alpha m) with
        | (_ : Laminar.t) -> ()
        | exception Invalid_argument msg ->
            Alcotest.failf "seed %d alpha %g: %s" seed alpha msg)
      [ 1.3; 2.; 3.5 ]
  done

(* --- Laminar --- *)

let test_laminar_paper_example () =
  let t = Laminar.of_sets ~n:6 paper_compact_sets in
  Alcotest.(check int) "set count" 4 (Laminar.n_sets t);
  Alcotest.(check int) "depth" 3 (Laminar.depth t);
  (* Top level: {0,1,2,4} and {3,5} — exactly two roots. *)
  Alcotest.(check int) "roots" 2 (List.length t.Laminar.roots)

let test_laminar_members_sorted () =
  let t = Laminar.of_sets ~n:6 paper_compact_sets in
  List.iter
    (fun r ->
      let ms = Laminar.members r in
      Alcotest.(check bool) "sorted" true (List.sort compare ms = ms))
    t.Laminar.roots

let test_laminar_rejects_crossing () =
  (match Laminar.of_sets ~n:5 [ [ 0; 1; 2 ]; [ 2; 3 ] ] with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ())

let test_laminar_rejects_full_set () =
  (match Laminar.of_sets ~n:3 [ [ 0; 1; 2 ] ] with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ())

let test_laminar_internal_nodes () =
  let t = Laminar.of_sets ~n:6 paper_compact_sets in
  let blocks = Laminar.internal_nodes t in
  (* Virtual root + 4 sets = 5 blocks. *)
  Alcotest.(check int) "blocks" 5 (List.length blocks);
  (* The first block is the virtual root over all vertices. *)
  let _, members = List.hd blocks in
  Alcotest.(check (list int)) "root members" [ 0; 1; 2; 3; 4; 5 ] members

let test_laminar_empty () =
  let t = Laminar.of_sets ~n:4 [] in
  Alcotest.(check int) "no sets" 0 (Laminar.n_sets t);
  Alcotest.(check int) "four roots" 4 (List.length t.Laminar.roots)

(* Random, mostly crossing families: up to five subsets of [0, n), drawn
   by size so that equal-size overlaps, singletons and the full set all
   turn up, plus repeats of earlier sets listed in another order. *)
let random_family r n =
  let subset () =
    let k = 1 + Random.State.int r n in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int r (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    List.sort compare (Array.to_list (Array.sub perm 0 k))
  in
  let rec build acc count =
    if count = 0 then acc
    else
      let set =
        if acc <> [] && Random.State.int r 4 = 0 then
          List.rev (List.nth acc (Random.State.int r (List.length acc)))
        else subset ()
      in
      build (set :: acc) (count - 1)
  in
  build [] (Random.State.int r 6)

(* Test-side oracle: valid sizes, and every two sets disjoint or nested. *)
let laminar_oracle ~n sets =
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  let ok_pair a b =
    (not (List.exists (fun x -> List.mem x b) a)) || subset a b || subset b a
  in
  List.for_all (fun s -> List.length s >= 2 && List.length s < n) sets
  && List.for_all (fun a -> List.for_all (ok_pair a) sets) sets

let check_forest ~n sets (t : Laminar.t) =
  let nodes = ref [] in
  let rec visit = function
    | Laminar.Elem i -> [ i ]
    | Laminar.Set s ->
        let members = Array.to_list s.members in
        nodes := members :: !nodes;
        let covered = List.concat_map visit s.children in
        if List.sort compare covered <> members then
          Alcotest.fail "children do not partition their node";
        members
  in
  let covered = List.concat_map visit t.Laminar.roots in
  if List.sort compare covered <> List.init n Fun.id then
    Alcotest.fail "roots do not partition the vertices";
  let distinct = List.sort_uniq compare (List.map (List.sort compare) sets) in
  Alcotest.(check (list (list int)))
    "one Set node per distinct set" distinct
    (List.sort compare !nodes)

let test_laminar_parity () =
  let accepted = ref 0 and rejected = ref 0 in
  for seed = 0 to 2999 do
    let r = rng seed in
    let n = 2 + Random.State.int r 8 in
    let sets = random_family r n in
    let built =
      match Laminar.of_sets ~n sets with
      | t -> Ok t
      | exception Invalid_argument msg -> Error msg
    in
    match (laminar_oracle ~n sets, built) with
    | true, Ok t ->
        incr accepted;
        check_forest ~n sets t
    | false, Error _ -> incr rejected
    | false, Ok _ ->
        Alcotest.failf "seed %d: accepted a non-laminar family" seed
    | true, Error msg ->
        Alcotest.failf "seed %d: rejected a laminar family (%s)" seed msg
  done;
  if !accepted < 300 || !rejected < 300 then
    Alcotest.failf "unbalanced sample: %d accepted, %d rejected" !accepted
      !rejected

(* --- qcheck properties --- *)

let arb_seed_n lo hi =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck.Gen.(pair (int_bound 10_000) (int_range lo hi))

let prop_fast_equals_brute =
  QCheck.Test.make ~name:"compact sets: fast = brute force" ~count:40
    (arb_seed_n 3 12) (fun (seed, n) ->
      let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.25 n in
      brute_force m = Compact_sets.find m)

let prop_compact_sets_laminar =
  QCheck.Test.make ~name:"compact sets are laminar" ~count:60
    (arb_seed_n 3 25) (fun (seed, n) ->
      let m = Gen.near_ultrametric ~rng:(rng seed) ~noise:0.3 n in
      let sets = Compact_sets.find m in
      match Laminar.of_sets ~n sets with
      | (_ : Laminar.t) -> true
      | exception Invalid_argument _ -> false)

let prop_all_found_are_compact =
  QCheck.Test.make ~name:"every reported set satisfies the definition"
    ~count:60 (arb_seed_n 3 25) (fun (seed, n) ->
      let m = Gen.uniform_metric ~rng:(rng seed) n in
      List.for_all (Compact_sets.is_compact m) (Compact_sets.find m))

let prop_random_laminar_families_accepted =
  QCheck.Test.make ~name:"random laminar families build a forest" ~count:60
    (arb_seed_n 4 30) (fun (seed, n) ->
      (* Build a genuinely laminar family by recursive splitting, then
         check of_sets accepts it and reports consistent counts. *)
      let r = rng seed in
      let sets = ref [] in
      let rec split lo hi =
        (* [lo, hi) is a candidate set. *)
        if hi - lo >= 2 then begin
          if hi - lo < n && Random.State.bool r then
            sets := List.init (hi - lo) (fun i -> lo + i) :: !sets;
          if hi - lo >= 3 || (hi - lo >= 2 && Random.State.bool r) then begin
            let mid = lo + 1 + Random.State.int r (hi - lo - 1) in
            split lo mid;
            split mid hi
          end
        end
      in
      split 0 n;
      match Laminar.of_sets ~n !sets with
      | forest ->
          Laminar.n_sets forest = List.length (List.sort_uniq compare !sets)
      | exception Invalid_argument _ -> false)

let prop_mst_weights_agree =
  QCheck.Test.make ~name:"prim and kruskal MST weights agree" ~count:40
    (arb_seed_n 2 30) (fun (seed, n) ->
      let m = Gen.uniform_metric ~rng:(rng seed) n in
      let k = Mst.kruskal (Wgraph.complete_of_matrix m) in
      Float.abs (Mst.total_weight k -. Mst.total_weight (Mst.prim m)) < 1e-6)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cgraph"
    [
      ( "union_find",
        [
          Alcotest.test_case "basics" `Quick test_uf_basics;
          Alcotest.test_case "self union" `Quick test_uf_self_union;
          Alcotest.test_case "chain" `Quick test_uf_chain;
        ] );
      ( "wgraph",
        [
          Alcotest.test_case "edge normalised" `Quick test_edge_normalised;
          Alcotest.test_case "edge rejects" `Quick test_edge_rejects;
          Alcotest.test_case "complete graph" `Quick test_complete_graph;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "sorted edges" `Quick test_sorted_edges;
        ] );
      ( "mst",
        [
          Alcotest.test_case "kruskal paper example" `Quick
            test_kruskal_paper_example;
          Alcotest.test_case "prim = kruskal" `Quick
            test_prim_equals_kruskal_weight;
          Alcotest.test_case "kruskal disconnected" `Quick
            test_kruskal_disconnected_raises;
          Alcotest.test_case "spanning tree rejects cycle" `Quick
            test_is_spanning_tree_rejects_cycle;
        ] );
      ( "compact_sets",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example_sets;
          Alcotest.test_case "is_compact direct" `Quick test_is_compact_direct;
          Alcotest.test_case "implementations agree" `Quick
            test_three_implementations_agree;
          Alcotest.test_case "uniform random agree" `Quick
            test_uniform_random_agree;
          Alcotest.test_case "clustered clusters found" `Quick
            test_clustered_has_cluster_sets;
          Alcotest.test_case "ultrametric has n-2 sets" `Quick
            test_ultrametric_many_sets;
          Alcotest.test_case "MST independence" `Quick test_mst_independence;
          Alcotest.test_case "no compact sets" `Quick test_no_compact_sets;
          Alcotest.test_case "relaxed alpha=1" `Quick
            test_relaxed_alpha_one_equals_find;
          Alcotest.test_case "relaxed monotone" `Quick
            test_relaxed_monotone_in_alpha;
          Alcotest.test_case "relaxed laminar" `Quick
            test_relaxed_family_is_laminar;
          Alcotest.test_case "relaxed rejects alpha<1" `Quick
            test_relaxed_rejects_small_alpha;
          Alcotest.test_case "tie-heavy agree" `Quick test_tie_heavy_agree;
        ] );
      ( "laminar",
        [
          Alcotest.test_case "paper example" `Quick test_laminar_paper_example;
          Alcotest.test_case "members sorted" `Quick
            test_laminar_members_sorted;
          Alcotest.test_case "rejects crossing" `Quick
            test_laminar_rejects_crossing;
          Alcotest.test_case "rejects full set" `Quick
            test_laminar_rejects_full_set;
          Alcotest.test_case "internal nodes" `Quick
            test_laminar_internal_nodes;
          Alcotest.test_case "empty" `Quick test_laminar_empty;
          Alcotest.test_case "accept/reject parity" `Quick
            test_laminar_parity;
        ] );
      ( "properties",
        q
          [
            prop_fast_equals_brute;
            prop_compact_sets_laminar;
            prop_all_found_are_compact;
            prop_mst_weights_agree;
            prop_random_laminar_families_accepted;
          ] );
    ]
