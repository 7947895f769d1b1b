(* Ablation benches for the design choices called out in DESIGN.md. *)

module Pipeline = Compactphy.Pipeline
module Decompose = Compactphy.Decompose
module Solver = Bnb.Solver
module Stats = Bnb.Stats

(* A-1: max vs min vs avg representative matrices (the paper evaluates
   only the maximum variant). *)
let linkage ~quick () =
  let n = if quick then 16 else 20 in
  let datasets = if quick then 3 else 5 in
  let rows =
    List.init datasets (fun seed ->
        let m = Workloads.mtdna ~seed:(seed + 31337) n in
        let run l =
          Pipeline.with_compact_sets
            ~config:Compactphy.Run_config.(default |> with_linkage l)
            m
        in
        let rmax = run Decompose.Max
        and rmin = run Decompose.Min
        and ravg = run Decompose.Avg in
        [
          Table.d (seed + 1);
          Table.f2 rmax.Pipeline.cost;
          Table.f2 rmin.Pipeline.cost;
          Table.f2 ravg.Pipeline.cost;
        ])
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Ablation A-1 — linkage of the small matrices, %d mtDNA species \
          (tree cost; paper only studies max)"
         n)
    ~headers:[ "data set"; "max"; "min"; "avg" ]
    rows

(* A-2: lower-bound variants. *)
let lower_bound ~quick () =
  let sizes = if quick then [ 10; 12 ] else [ 10; 12; 14 ] in
  let rows =
    List.map
      (fun n ->
        let m = Workloads.random_structured ~seed:n n in
        let run lb =
          let r = Solver.solve ~options:{ Solver.default_options with lb } m in
          (r.Solver.stats.Stats.expanded, r.Solver.cost)
        in
        let e0, c0 = run Solver.LB0 and e1, c1 = run Solver.LB1 in
        assert (Float.abs (c0 -. c1) < 1e-6);
        [
          Table.d n;
          Table.d e0;
          Table.d e1;
          Table.pct
            (100. *. float_of_int (e0 - e1) /. float_of_int (Int.max 1 e0));
        ])
      sizes
  in
  Table.print
    ~title:
      "Ablation A-2 — BBT nodes expanded under LB0 (partial cost only) vs \
       LB1 (+ remaining species bound)"
    ~headers:[ "species"; "LB0 expanded"; "LB1 expanded"; "saved" ]
    rows

(* A-3: naive vs optimised compact-set finder.  Each row first checks
   that the two finders agree, so the timings compare equal work. *)
let compact_finder ~quick () =
  let sizes = if quick then [ 50; 100 ] else [ 50; 100; 200; 400 ] in
  let rows =
    List.map
      (fun n ->
        let m = Workloads.mtdna ~seed:n n in
        if Cgraph.Compact_sets.find_naive m <> Cgraph.Compact_sets.find m then
          failwith
            (Printf.sprintf
               "ablation-compact: finders disagree on %d species" n);
        let best f =
          let runs = if quick then 2 else 3 in
          List.fold_left
            (fun acc _ -> Float.min acc (snd (Workloads.time f)))
            infinity
            (List.init runs Fun.id)
        in
        let t_naive = best (fun () -> Cgraph.Compact_sets.find_naive m) in
        let t_fast = best (fun () -> Cgraph.Compact_sets.find m) in
        [
          Table.d n;
          Table.seconds t_naive;
          Table.seconds t_fast;
          Table.f1 (t_naive /. t_fast) ^ "x";
        ])
      sizes
  in
  Table.print
    ~title:
      "Ablation A-3 — compact-set discovery: the paper's published sweep \
       (recomputes Max/Min per merge) vs the O(n^2) finder"
    ~headers:[ "species"; "published sweep"; "optimised"; "speedup" ]
    rows

(* A-4: the 3-3 relationship applied never / at the third species (as
   published) / at every insertion (the paper's future work). *)
let relation33 ~quick () =
  let sizes = if quick then [ 10; 12 ] else [ 10; 12; 14 ] in
  let rows =
    List.map
      (fun n ->
        let m = Workloads.mtdna ~seed:(n + 999) n in
        let run relation33 =
          let r =
            Solver.solve ~options:{ Solver.default_options with relation33 } m
          in
          (r.Solver.stats.Stats.expanded, r.Solver.cost)
        in
        let e_off, c_off = run Solver.Off in
        let e_third, c_third = run Solver.Third_only in
        let e_all, c_all = run Solver.Every_insertion in
        [
          Table.d n;
          Printf.sprintf "%d (%.2f)" e_off c_off;
          Printf.sprintf "%d (%.2f)" e_third c_third;
          Printf.sprintf "%d (%.2f)" e_all c_all;
        ])
      sizes
  in
  Table.print
    ~title:
      "Ablation A-4 — 3-3 relationship pruning: expanded nodes (and cost) \
       per mode; every-insertion is the papers' stated future work"
    ~headers:[ "species"; "off"; "third species only"; "every insertion" ]
    rows

(* A-6: DFS (the papers' order) vs best-first search. *)
let search_order ~quick () =
  let sizes = if quick then [ 10; 12 ] else [ 10; 12; 14 ] in
  let rows =
    List.map
      (fun n ->
        let m = Workloads.mtdna ~seed:(n + 4321) n in
        let run search =
          let r =
            Solver.solve ~options:{ Solver.default_options with search } m
          in
          (r.Solver.stats.Stats.expanded, r.Solver.stats.Stats.max_open)
        in
        let ed, md = run Solver.Dfs in
        let eb, mb = run Solver.Best_first in
        [ Table.d n; Table.d ed; Table.d md; Table.d eb; Table.d mb ])
      sizes
  in
  Table.print
    ~title:
      "Ablation A-6 — search order: expansions and open-list high-water \
       under DFS (papers' choice) vs best-first"
    ~headers:
      [ "species"; "DFS expanded"; "DFS open"; "BF expanded"; "BF open" ]
    rows

(* A-7: gathering all optimal trees (the companion paper's Step 7) and
   how much they agree. *)
let all_optimal ~quick () =
  let n = if quick then 9 else 11 in
  let rows =
    List.init 5 (fun seed ->
        (* Integer-rounded distances (like the papers' random 0..100
           data): ties make multiple optimal topologies likely. *)
        let raw = Workloads.mtdna ~seed:(seed + 8765) n in
        let m =
          Distmat.Metric.floyd_warshall
            (Distmat.Dist_matrix.init n (fun i j ->
                 Float.round (Distmat.Dist_matrix.get raw i j)))
        in
        let r =
          Solver.solve
            ~options:{ Solver.default_options with collect_all = true }
            m
        in
        let trees = r.Solver.all_optimal in
        [
          Table.d (seed + 1);
          Table.f2 r.Solver.cost;
          Table.d (List.length trees);
          Table.f2 (Ultra.Consensus.agreement trees);
        ])
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Ablation A-7 — all optimal trees gathered (Step 7), %d mtDNA \
          species: count and strict-consensus agreement"
         n)
    ~headers:[ "data set"; "optimum"; "optimal trees"; "agreement" ]
    rows

(* A-8: NNI local search as a cheap fallback: how close does
   hill-climbing from UPGMM get to the optimum? *)
let nni ~quick () =
  (* Uniform random matrices: the workload where UPGMM is weakest and
     compact sets are scarce — exactly when a fallback is needed. *)
  let n = if quick then 9 else 11 in
  let rows =
    List.init 5 (fun seed ->
        let m = Workloads.random_uniform ~seed:(seed + 2222) n in
        let upgmm_cost =
          Ultra.Utree.weight (Clustering.Linkage.upgmm m)
        in
        let r = Bnb.Local_search.from_upgmm m in
        let opt = (Solver.solve m).Solver.cost in
        [
          Table.d (seed + 1);
          Table.f2 upgmm_cost;
          Printf.sprintf "%.2f (%d moves)" r.Bnb.Local_search.cost
            r.Bnb.Local_search.improvements;
          Table.f2 opt;
        ])
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Ablation A-8 — NNI hill-climbing from UPGMM, %d-species uniform \
          random matrices (tree cost; optimum for reference)"
         n)
    ~headers:[ "data set"; "UPGMM"; "UPGMM + NNI"; "optimum" ]
    rows

(* A-9: alpha-compact relaxation — more decomposition for less
   fidelity, on the uniform random workload where strict compact sets
   are scarce. *)
let relaxation ~quick () =
  let n = if quick then 12 else 16 in
  let alphas = [ 1.0; 1.1; 1.25; 1.5; 2.0 ] in
  let rows =
    List.map
      (fun alpha ->
        let costs = ref [] and times = ref [] and largest = ref 0 in
        for seed = 0 to 4 do
          let m = Workloads.random_uniform ~seed:(seed + 3333) n in
          let r =
            Pipeline.with_compact_sets
              ~config:Compactphy.Run_config.(default |> with_relaxation alpha)
              m
          in
          costs := r.Pipeline.cost :: !costs;
          times := r.Pipeline.elapsed_s :: !times;
          largest := Int.max !largest r.Pipeline.largest_block
        done;
        [
          Table.f2 alpha;
          Table.f2 (Table.mean !costs);
          Table.seconds (Table.mean !times);
          Table.d !largest;
        ])
      alphas
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Ablation A-9 — alpha-compact relaxation, %d-species uniform \
          random matrices (mean cost / mean time / largest block over 5 \
          data sets)"
         n)
    ~headers:[ "alpha"; "mean cost"; "mean time"; "largest block" ]
    rows

(* A-5: quality of the initial upper bound. *)
let initial_ub ~quick () =
  let n = if quick then 10 else 12 in
  let rows =
    List.init 4 (fun seed ->
        let m = Workloads.mtdna ~seed:(seed + 555) n in
        let ub_of initial_ub =
          (Solver.prepare ~options:{ Solver.default_options with initial_ub } m)
            .Solver.ub0
        in
        let optimal = (Solver.solve m).Solver.cost in
        [
          Table.d (seed + 1);
          Table.f2 optimal;
          Table.f2 (ub_of Solver.Upgmm_ub);
          Table.f2 (ub_of Solver.Upgma_ub);
          Table.f2 (ub_of Solver.Nj_ub);
        ])
  in
  Table.print
    ~title:
      (Printf.sprintf
         "Ablation A-5 — initial upper bound quality, %d mtDNA species \
          (lower is tighter; optimum for reference)"
         n)
    ~headers:[ "data set"; "optimum"; "UPGMM"; "UPGMA"; "NJ" ]
    rows
