open Import

let src = Logs.Src.create "compactphy.solver" ~doc:"Sequential branch-and-bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Cumulative process-wide metrics (see Obs.Metrics).  Counters are
   flushed once per solve from the run's Stats — zero cost in the inner
   loop; the histograms record the per-solve distribution. *)
module M = struct
  let solves = Obs.Metrics.counter "bnb.solves"
  let expanded = Obs.Metrics.counter "bnb.expanded"
  let generated = Obs.Metrics.counter "bnb.generated"
  let pruned = Obs.Metrics.counter "bnb.pruned"
  let pruned_33 = Obs.Metrics.counter "bnb.pruned_33"
  let ub_updates = Obs.Metrics.counter "bnb.ub_updates"
  let expanded_per_solve = Obs.Metrics.histogram "bnb.expanded_per_solve"
  let solve_ms = Obs.Metrics.histogram "bnb.solve_ms"
  let max_open = Obs.Metrics.histogram "bnb.max_open_per_solve"

  let pruned_by_reason =
    List.map
      (fun r ->
        ( r,
          Obs.Metrics.counter
            ("bnb.pruned." ^ Obs.Attribution.reason_to_string r) ))
      Obs.Attribution.reasons

  (* Last values already pushed to the counters for the current solve.
     Mid-run scrapes of /metrics would otherwise see nothing until the
     block finishes; a [live] record lets the solve flush {e deltas}
     whenever a telemetry heartbeat fires, and the final [flush] adds
     only the residue through the same path — totals come out identical
     whether zero or many live flushes happened in between. *)
  type live = {
    mutable l_expanded : int;
    mutable l_generated : int;
    mutable l_pruned : int;
    mutable l_pruned_33 : int;
    mutable l_ub_updates : int;
    l_reason : int array;
  }

  let live () =
    {
      l_expanded = 0;
      l_generated = 0;
      l_pruned = 0;
      l_pruned_33 = 0;
      l_ub_updates = 0;
      l_reason = Array.make (List.length Obs.Attribution.reasons) 0;
    }

  let flush_live lv (stats : Stats.t) =
    let bump c v last =
      if v > last then Obs.Metrics.add c (v - last);
      v
    in
    lv.l_expanded <- bump expanded stats.Stats.expanded lv.l_expanded;
    lv.l_generated <- bump generated stats.Stats.generated lv.l_generated;
    lv.l_pruned <- bump pruned stats.Stats.pruned lv.l_pruned;
    lv.l_pruned_33 <- bump pruned_33 stats.Stats.pruned_33 lv.l_pruned_33;
    lv.l_ub_updates <- bump ub_updates stats.Stats.ub_updates lv.l_ub_updates;
    List.iteri
      (fun i (r, c) ->
        let v = Obs.Attribution.total stats.Stats.att r in
        if v > lv.l_reason.(i) then Obs.Metrics.add c (v - lv.l_reason.(i));
        lv.l_reason.(i) <- v)
      pruned_by_reason

  let flush lv (stats : Stats.t) elapsed_s =
    Obs.Metrics.incr solves;
    flush_live lv stats;
    Obs.Metrics.observe expanded_per_solve (float_of_int stats.Stats.expanded);
    Obs.Metrics.observe max_open (float_of_int stats.Stats.max_open);
    Obs.Metrics.observe solve_ms (elapsed_s *. 1e3)
end

let record_metrics stats elapsed_s = M.flush (M.live ()) stats elapsed_s

type lb_kind = LB0 | LB1
type mode33 = Off | Third_only | Every_insertion
type initial_ub = Upgmm_ub | Upgma_ub | Nj_ub | No_heuristic_ub

let lb_names = [ ("lb0", LB0); ("lb1", LB1) ]

let mode33_names =
  [
    ("off", Off); ("third_only", Third_only); ("every_insertion", Every_insertion);
  ]

let initial_ub_names =
  [
    ("upgmm", Upgmm_ub);
    ("upgma", Upgma_ub);
    ("nj", Nj_ub);
    ("none", No_heuristic_ub);
  ]

type search_order = Strategy.exploration = Dfs | Best_first | Hybrid
type branch_order = Strategy.branching = Paper_order | Largest_first | Residual_lb

type kernel_kind = Kernel.kind = Reference | Incremental

type options = {
  lb : lb_kind;
  relation33 : mode33;
  initial_ub : initial_ub;
  max_expanded : int option;
  search : search_order;
  branching : branch_order;
  gap : float;
  collect_all : bool;
  kernel : kernel_kind;
}

let default_options =
  {
    lb = LB1;
    relation33 = Off;
    initial_ub = Upgmm_ub;
    max_expanded = None;
    search = Dfs;
    branching = Paper_order;
    gap = 0.;
    collect_all = false;
    kernel = Incremental;
  }

let options ?(lb = default_options.lb)
    ?(relation33 = default_options.relation33)
    ?(initial_ub = default_options.initial_ub) ?max_expanded
    ?(search = default_options.search)
    ?(branching = default_options.branching) ?(gap = default_options.gap)
    ?(collect_all = default_options.collect_all)
    ?(kernel = default_options.kernel) () =
  (match max_expanded with
  | Some cap when cap <= 0 ->
      invalid_arg
        (Printf.sprintf "Solver.options: max_expanded = %d (must be > 0)" cap)
  | Some _ | None -> ());
  if not (gap >= 0. && Float.is_finite gap) then
    invalid_arg
      (Printf.sprintf "Solver.options: gap = %g (must be >= 0 and finite)" gap);
  { lb; relation33; initial_ub; max_expanded; search; branching; gap;
    collect_all; kernel }

type outcome = {
  tree : Utree.t;
  cost : float;
  optimal : bool;
  all_optimal : Utree.t list;
  stats : Stats.t;
  status : Budget.status;
  lower_bound : float;
  certified_gap : float;
  frontier : Bb_tree.node list;
}

type resume = {
  r_frontier : (int * Utree.t) list;
  r_ub : float;
  r_incumbent : Utree.t option;
}

type problem = {
  pm : Dist_matrix.t;
  perm : Permutation.t;
  lb_extra : float array;
  ub0 : float;
  incumbent0 : Utree.t option;
  opts : options;
  kstate : Kernel.t;
}

let prepare ?(options = default_options) dm =
  let perm = Permutation.maxmin dm in
  let pm = Permutation.apply dm perm in
  let n = Dist_matrix.size pm in
  let kstate = Kernel.prepare pm in
  let lb_extra =
    match options.lb with
    | LB0 -> Array.make (n + 1) 0.
    | LB1 -> Bb_tree.suffix_of_minima (Kernel.row_minima kstate)
  in
  let heuristic_tree =
    match options.initial_ub with
    | Upgmm_ub -> Some (Linkage.upgmm pm)
    | Upgma_ub -> Some (Utree.minimal_realization pm (Linkage.upgma pm))
    | Nj_ub -> Some (Nj.ultrametric_of pm)
    | No_heuristic_ub -> None
  in
  let ub0 =
    match heuristic_tree with
    | Some t -> Utree.weight t
    | None -> infinity
  in
  { pm; perm; lb_extra; ub0; incumbent0 = heuristic_tree; opts = options; kstate }

(* Resuming re-derives the permutation (deterministic for a given
   matrix) and re-costs the checkpointed frontier, so only trees are
   ever persisted — floats are recomputed, never trusted. *)
let start problem resume =
  match resume with
  | None -> ([ Bb_tree.root problem.pm ], problem.ub0, problem.incumbent0)
  | Some r ->
      let nodes =
        List.map
          (fun (k, tree) ->
            let cost = Utree.weight tree in
            { Bb_tree.tree; k; cost; lb = cost +. problem.lb_extra.(k) })
          r.r_frontier
      in
      if r.r_ub < problem.ub0 then (nodes, r.r_ub, r.r_incumbent)
      else (nodes, problem.ub0, problem.incumbent0)

let relabel_out problem t =
  let p = Permutation.to_array problem.perm in
  Utree.relabel (fun r -> p.(r)) t

let tie_eps = 1e-9

(* Safety margin for the incremental kernel's score-based pre-pruning.
   The score differs from the exact (reweighed) cost only by float
   rounding — well under 1e-8 for the magnitudes this solver sees — so
   dropping a candidate only when its score clears the bound by this
   margin guarantees exact bounds would drop it too, in every pruning
   mode.  Survivors are re-checked with exact costs by the caller. *)
let score_safety = 1e-6

let expand ?(ub = infinity) problem (node : Bb_tree.node) stats =
  stats.Stats.expanded <- stats.Stats.expanded + 1;
  let order children =
    (* [Paper_order] (the default) returns the ascending-LB list
       physically unchanged, keeping the historical search bit-exact. *)
    Strategy.order_children problem.opts.branching ~inserted:node.k children
  in
  let apply_33 =
    match problem.opts.relation33 with
    | Off -> false
    | Third_only -> node.k = 2
    | Every_insertion -> true
  in
  if problem.opts.kernel = Incremental && not apply_33 then begin
    (* Hot path: score all 2k-1 insertions from the flat matrix and
       realise only candidates the bound cannot already dismiss.  The
       threshold converts the caller's upper bound into a cost-delta
       bound, padded so pre-pruning is strictly conservative: any
       dropped child has an exact lower bound the caller would prune in
       either pruning mode ([lb >= ub], or [lb > ub + tie_eps] under
       [collect_all]), and — at the last level — a cost on which
       recording the solution would be a no-op. *)
    let sp = node.k in
    let lb_inc = problem.lb_extra.(sp + 1) in
    let dthr =
      if Float.is_finite ub then
        ub +. tie_eps +. score_safety -. node.cost -. lb_inc
      else infinity
    in
    let survivors, dropped =
      Kernel.insertions problem.kstate node.tree sp ~dthr
    in
    stats.Stats.generated <- stats.Stats.generated + (2 * sp) - 1;
    Obs.Attribution.expand stats.Stats.att ~depth:sp ~generated:((2 * sp) - 1);
    (* Dropped complete children would have reached the caller's
       solution recording — a no-op at these costs when [ub] is the
       incumbent, a solution the tolerance traded away when it is the
       effective bound [incumbent / (1 + eps)] — not its pruning
       counter; dropped partial children would have been pruned. *)
    if sp + 1 < Dist_matrix.size problem.pm then begin
      stats.Stats.pruned <- stats.Stats.pruned + dropped;
      Obs.Attribution.prune stats.Stats.att Kernel_threshold ~depth:(sp + 1)
        dropped
    end;
    let children =
      List.map
        (fun tree ->
          let cost = Utree.weight tree in
          { Bb_tree.tree; k = sp + 1; cost; lb = cost +. lb_inc })
        survivors
    in
    order
      (List.sort
         (fun (a : Bb_tree.node) (b : Bb_tree.node) -> Float.compare a.lb b.lb)
         children)
  end
  else begin
    let children = Bb_tree.branch problem.pm ~lb_extra:problem.lb_extra node in
    stats.Stats.generated <- stats.Stats.generated + List.length children;
    Obs.Attribution.expand stats.Stats.att ~depth:node.k
      ~generated:(List.length children);
    if not apply_33 then order children
    else begin
      let kept =
        List.filter
          (fun (c : Bb_tree.node) ->
            Relation33.compatible_insertion problem.pm c.tree node.k)
          children
      in
      stats.Stats.pruned_33 <-
        stats.Stats.pruned_33 + List.length children - List.length kept;
      Obs.Attribution.prune stats.Stats.att Filter33 ~depth:(node.k + 1)
        (List.length children - List.length kept);
      (* Never let the heuristic constraint empty the candidate list: the
         companion paper reports 3-3 results as a subset of the full
         results, which requires at least one child to survive. *)
      order (if kept = [] then [ List.hd children ] else kept)
    end
  end

(* The certified relative gap [(cost - lower_bound) / lower_bound].
   Completed tolerance runs clamp to the configured eps: real-arithmetic
   soundness (every discarded node had [lb >= ub_t / (1 + eps)] with
   [ub_t >= ub_final]) guarantees the bound, while the float division
   behind [lower_bound] could otherwise overshoot eps by an ulp or two. *)
let certify ~gap ~exhausted ~cost ~lower_bound =
  let raw =
    if cost <= lower_bound then 0.
    else if lower_bound > 0. then (cost -. lower_bound) /. lower_bound
    else infinity
  in
  if exhausted && gap > 0. then Float.min gap raw else raw

let solve ?(options = default_options) ?budget ?monitor ?resume dm =
  let n = Dist_matrix.size dm in
  if n = 1 then
    {
      tree = Utree.leaf 0;
      cost = 0.;
      optimal = true;
      all_optimal = [ Utree.leaf 0 ];
      stats = Stats.create ();
      status = Budget.Exact;
      lower_bound = 0.;
      certified_gap = 0.;
      frontier = [];
    }
  else
    Obs.Span.with_span "bnb.solve"
      ~args:[ ("n", Obs.Json.Int n) ]
      @@ fun () ->
    let t_start = Obs.Clock.counter () in
    let problem = prepare ~options dm in
    let stats = Stats.create () in
    let monitor =
      match (monitor, budget) with
      | Some m, _ -> m
      | None, Some b -> Budget.arm b
      | None, None -> Budget.arm Budget.unlimited
    in
    let tk = Budget.ticker monitor in
    let rpulse = Obs.Recorder.pulse () in
    let mlive = M.live () in
    let interrupted = ref None in
    let start_nodes, ub_init, best_init = start problem resume in
    let ub = ref ub_init in
    let best = ref best_init in
    let ties = ref [] in
    let optimal = ref true in
    let record_stop s =
      optimal := false;
      interrupted := Some s;
      Obs.Recorder.emit_ambient
        (Obs.Events.Budget_stop { status = Budget.status_to_string s })
    in
    (* Optimality-gap tolerance: a node is pruned once [lb * (1 + eps)]
       meets the incumbent, i.e. [lb >= ub / (1 + eps)] — with eps = 0
       ([gap_scale = 1.], an exact float multiply) this is literally the
       historical rule, decision for decision.  With [collect_all],
       equal-cost nodes survive pruning so every optimal topology is
       reached — each exactly once, because the BBT generates each
       topology along a unique insertion sequence. *)
    let gap_scale = 1. +. options.gap in
    let prunable lb =
      if options.collect_all then lb *. gap_scale > !ub +. tie_eps
      else lb *. gap_scale >= !ub
    in
    (* Attribution of a prune that [prunable] decided: if the node's own
       cost already met the bound the incumbent alone was responsible;
       if its exact bound did, the LB1 suffix supplied the missing
       margin; otherwise only the gap tolerance closed it.  (Under LB0
       the suffix is all zeros, so every exact prune classifies
       Incumbent.) *)
    let exact_bound x =
      if options.collect_all then x > !ub +. tie_eps else x >= !ub
    in
    let prune_reason ~cost ~lb =
      if exact_bound cost then Obs.Attribution.Incumbent
      else if exact_bound lb then Obs.Attribution.Lb1_suffix
      else Obs.Attribution.Gap_tolerance
    in
    let record_solution (c : Bb_tree.node) =
      if c.Bb_tree.cost < !ub -. tie_eps then begin
        ub := c.cost;
        best := Some c.tree;
        ties := (if options.collect_all then [ c.tree ] else []);
        stats.Stats.ub_updates <- stats.Stats.ub_updates + 1;
        Obs.Recorder.emit_ambient (Obs.Events.Incumbent { cost = c.cost })
      end
      else if options.collect_all && Float.abs (c.cost -. !ub) <= tie_eps
      then begin
        if not (List.exists (Utree.same_topology c.tree) !ties) then
          ties := c.tree :: !ties
      end
      else if c.cost < !ub then begin
        (* An improvement finer than [tie_eps]: still adopt the tree. *)
        ub := c.cost;
        best := Some c.tree;
        stats.Stats.ub_updates <- stats.Stats.ub_updates + 1;
        Obs.Recorder.emit_ambient (Obs.Events.Incumbent { cost = c.cost })
      end
    in
    (* Open list, behind the frontier chosen by the search order. *)
    let front = Strategy.Frontier.create options.search in
    let push node = Strategy.Frontier.push front node in
    let pop () = Strategy.Frontier.pop front in
    let open_length () = Strategy.Frontier.length front in
    let cap_reached () =
      match options.max_expanded with
      | Some cap -> stats.Stats.expanded >= cap
      | None -> false
    in
    List.iter push (List.rev start_nodes);
    (* On interruption the node in hand goes back on the open list, so
       the drained frontier is exactly the set of unexplored subtrees:
       min over its lower bounds certifies the global optimum. *)
    let rec loop () =
      match pop () with
      | None -> ()
      | Some node when cap_reached () ->
          record_stop Budget.Node_cap;
          Obs.Attribution.prune stats.Stats.att Budget_stop
            ~depth:node.Bb_tree.k 1;
          push node
      | Some node ->
          if prunable node.Bb_tree.lb then begin
            stats.Stats.pruned <- stats.Stats.pruned + 1;
            Obs.Attribution.prune stats.Stats.att
              (prune_reason ~cost:node.Bb_tree.cost ~lb:node.Bb_tree.lb)
              ~depth:node.Bb_tree.k 1;
            loop ()
          end
          else if Bb_tree.is_complete problem.pm node then begin
            (* Only the n = 2 root can be popped complete. *)
            record_solution node;
            loop ()
          end
          else begin
            match Budget.tick tk with
            | Some s ->
                record_stop s;
                Obs.Attribution.prune stats.Stats.att Budget_stop
                  ~depth:node.Bb_tree.k 1;
                push node
            | None ->
                (* Under a gap tolerance the kernel's pre-pruning
                   threshold is the effective bound [ub / (1 + eps)]
                   (an exact no-op divide when eps = 0), so candidates
                   the tolerance would discard are never realised. *)
                let children =
                  expand ~ub:(!ub /. gap_scale) problem node stats
                in
                List.iter
                  (fun (c : Bb_tree.node) ->
                    if Bb_tree.is_complete problem.pm c then record_solution c
                    else if not (prunable c.lb) then push c
                    else begin
                      stats.Stats.pruned <- stats.Stats.pruned + 1;
                      Obs.Attribution.prune stats.Stats.att
                        (prune_reason ~cost:c.Bb_tree.cost ~lb:c.Bb_tree.lb)
                        ~depth:c.Bb_tree.k 1
                    end)
                  (List.rev children);
                let olen = open_length () in
                stats.Stats.max_open <- Int.max stats.Stats.max_open olen;
                if
                  Obs.Recorder.sample rpulse ~worker:0
                    ~expanded:stats.Stats.expanded ~pruned:stats.Stats.pruned
                    ~open_nodes:olen ~ub:!ub ~lb:node.Bb_tree.lb
                then M.flush_live mlive stats;
                loop ()
          end
    in
    (match Budget.check monitor with
    | Some s ->
        (* Exhausted before the first expansion (e.g. a block solved
           after the whole-run budget tripped): return the heuristic
           incumbent immediately, frontier untouched. *)
        record_stop s;
        Obs.Attribution.prune stats.Stats.att Budget_stop ~depth:0 1
    | None -> loop ());
    Budget.flush tk;
    let frontier =
      let rec drain acc =
        match pop () with None -> List.rev acc | Some nd -> drain (nd :: acc)
      in
      drain []
    in
    let status = match !interrupted with Some s -> s | None -> Budget.Exact in
    (* Every subtree a tolerance run discarded (explicitly, or inside
       the kernel against the effective bound) had a lower bound of at
       least [ub_t / (1 + eps)] for some incumbent [ub_t >= !ub], so
       [!ub / (1 + eps)] is a sound global floor; with eps = 0 the
       divide is exact and this is the historical [!ub] start. *)
    let lower_bound =
      List.fold_left
        (fun acc (nd : Bb_tree.node) -> Float.min acc nd.Bb_tree.lb)
        (!ub /. gap_scale) frontier
    in
    M.flush mlive stats (Obs.Clock.elapsed_s t_start);
    Log.debug (fun m -> m "solve n=%d done: %a" n Stats.pp stats);
    match !best with
    | Some t ->
        let tree = relabel_out problem t in
        let all_optimal =
          match !ties with
          | [] -> [ tree ]
          | ts -> List.map (relabel_out problem) ts
        in
        {
          tree;
          cost = !ub;
          (* A tolerance run proves [cost <= (1 + eps) * optimum], not
             optimality — [certified_gap] carries the guarantee. *)
          optimal = !optimal && options.gap = 0.;
          all_optimal;
          stats;
          status;
          lower_bound;
          certified_gap =
            certify ~gap:options.gap ~exhausted:(frontier = []) ~cost:!ub
              ~lower_bound;
          frontier;
        }
    | None ->
        (* Only reachable with [No_heuristic_ub] and an expansion cap
           small enough that no complete tree was ever built. *)
        let fallback = Linkage.upgmm dm in
        {
          tree = fallback;
          cost = Utree.weight fallback;
          optimal = false;
          all_optimal = [ fallback ];
          stats;
          status;
          lower_bound;
          certified_gap =
            certify ~gap:options.gap ~exhausted:false
              ~cost:(Utree.weight fallback) ~lower_bound;
          frontier;
        }
