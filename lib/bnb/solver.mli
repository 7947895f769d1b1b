open Import

(** Sequential branch-and-bound construction of minimum ultrametric trees
    (algorithm BBU of Wu-Chao-Tang 1999, as used by both papers).

    The solver (1) relabels the species as a maxmin permutation,
    (2) builds the two-species root topology, (3) takes the UPGMM tree's
    weight as the initial upper bound, and (4) explores the BBT
    depth-first, pruning nodes whose lower bound reaches the incumbent.
    The 3-3 relationship can additionally prune insertions (off /
    third-species-only as published / every insertion as the companion
    paper's future-work extension). *)

type lb_kind =
  | LB0  (** weight of the partial minimal realization only *)
  | LB1
      (** LB0 plus [sum min_j D(x,j) / 2] over species not yet inserted *)

type mode33 = Off | Third_only | Every_insertion

type initial_ub =
  | Upgmm_ub  (** the papers' choice: complete-linkage heuristic tree *)
  | Upgma_ub  (** classical UPGMA topology, re-realised to be feasible *)
  | Nj_ub  (** neighbor-joining topology, re-realised *)
  | No_heuristic_ub  (** start from an infinite upper bound *)

(** Spelling tables (see {!Obs.Json.enum}) — the names run manifests,
    the wire protocol, cache keys and the CLI use. *)

val lb_names : (string * lb_kind) list
(** ["lb0"], ["lb1"]. *)

val mode33_names : (string * mode33) list
(** ["off"], ["third_only"], ["every_insertion"]. *)

val initial_ub_names : (string * initial_ub) list
(** ["upgmm"], ["upgma"], ["nj"], ["none"]. *)

type search_order = Strategy.exploration =
  | Dfs
      (** depth-first with children in ascending-LB order — the papers'
          strategy, constant memory per level *)
  | Best_first
      (** always expand the open node of least lower bound — fewer
          expansions, potentially exponential memory *)
  | Hybrid
      (** DFS dive to a complete tree, then continue from the globally
          best open node (see {!Strategy.exploration}) *)

type branch_order = Strategy.branching =
  | Paper_order  (** ascending-LB children, as published — the default *)
  | Largest_first  (** root-nearest (largest-subtree) insertions first *)
  | Residual_lb  (** descending LB — probe the largest residual first *)
(** Child ordering applied by {!expand}; see {!Strategy.branching}.
    Any order explores the same space — only the visit sequence (and so
    the pruning trajectory) changes.  The {{!page-strategies} strategy
    guide} covers choosing between explorations, branchings and gap
    tolerances. *)

type kernel_kind = Kernel.kind = Reference | Incremental
(** Which expansion path {!expand} uses: [Reference] realises all
    [2k - 1] children before bounding (the seed behaviour, kept as the
    differential-testing baseline); [Incremental] scores candidates from
    the flat matrix first and realises only un-pruned ones
    ({!Kernel.insertions}).  Both produce an observably identical
    search: same trees, same costs, same stats. *)

type options = {
  lb : lb_kind;
  relation33 : mode33;
  initial_ub : initial_ub;
  max_expanded : int option;
      (** stop early after expanding this many BBT nodes (the outcome is
          then possibly non-optimal); [None] = run to completion *)
  search : search_order;
  branching : branch_order;
  gap : float;
      (** optimality-gap tolerance eps [>= 0]: prune once
          [lb * (1 + eps)] meets the incumbent, certifying
          [cost <= (1 + eps) * optimum].  [0.] (the default) is the
          exact search, decision for decision. *)
  collect_all : bool;
      (** gather {e every} optimal tree, as the companion paper's Step 7
          ("gather all solutions from each node") does.  Equal-cost
          nodes are then kept instead of pruned, so the search expands
          more nodes. *)
  kernel : kernel_kind;
}

val default_options : options
(** [LB1], [Off], [Upgmm_ub], no cap, [Dfs], [Paper_order], [gap = 0.],
    [collect_all = false], [Incremental]. *)

val options :
  ?lb:lb_kind ->
  ?relation33:mode33 ->
  ?initial_ub:initial_ub ->
  ?max_expanded:int ->
  ?search:search_order ->
  ?branching:branch_order ->
  ?gap:float ->
  ?collect_all:bool ->
  ?kernel:kernel_kind ->
  unit ->
  options
(** Smart constructor over {!default_options} that validates its inputs.
    @raise Invalid_argument if [max_expanded <= 0], or [gap] is negative
    or not finite. *)

type outcome = {
  tree : Utree.t;  (** best tree found, in the original species labels *)
  cost : float;  (** its weight *)
  optimal : bool;
      (** whether the search ran to completion (always [false] when the
          expansion cap was hit first) *)
  all_optimal : Utree.t list;
      (** with [collect_all]: every distinct optimal topology the search
          completed (original labels); otherwise just [[tree]] *)
  stats : Stats.t;
  status : Budget.status;
      (** [Exact] when the search ran to completion; otherwise which
          budget constraint stopped it ([Node_cap] also covers the
          legacy [max_expanded] option) *)
  lower_bound : float;
      (** certified global lower bound on the optimum: the minimum of
          the open frontier's bounds and [cost / (1 + gap)].  Equals
          [cost] when [status = Exact] and [gap = 0.]. *)
  certified_gap : float;
      (** the guarantee [(cost - lower_bound) / lower_bound]: the true
          optimum is within this relative factor below [cost].  [0.]
          for a completed exact search; at most [gap] for a completed
          tolerance run; possibly larger when a budget stopped the
          search early. *)
  frontier : Bb_tree.node list;
      (** the open list at the moment the search stopped (permuted
          labels, in pop order) — empty for a completed search.  Feed it
          back through a {!resume} to continue the run. *)
}

type resume = {
  r_frontier : (int * Utree.t) list;
      (** open nodes as [(k, partial tree)] pairs in {e permuted}
          labels, in the order they should be explored *)
  r_ub : float;  (** best cost known when the checkpoint was taken *)
  r_incumbent : Utree.t option;  (** tree realising [r_ub] (permuted) *)
}
(** A search state to continue from (see [Bnb.Checkpoint] for the
    file format).  Costs and bounds are recomputed from the trees, so a
    resumed run is exact whatever precision the checkpoint survived. *)

val src : Logs.src
(** Log source ["compactphy.solver"]. *)

val solve :
  ?options:options ->
  ?budget:Budget.t ->
  ?monitor:Budget.monitor ->
  ?resume:resume ->
  Dist_matrix.t ->
  outcome
(** Construct the minimum ultrametric tree of a metric distance matrix.
    With [relation33 <> Off] the search is restricted and the result can
    in principle be slightly costlier than the true optimum (empirically
    it is not — see the test suite).  Handles [n = 1] and [n = 2]
    directly.

    [budget] bounds the search (see {!Budget}); on exhaustion the
    outcome carries the best incumbent, the certified [lower_bound] and
    the open [frontier], with [status] naming the constraint that fired.
    An unbudgeted (or {!Budget.unlimited}) run is bit-identical to the
    pre-budget solver: same tree, cost and stats.  [monitor] supplies an
    already-armed monitor instead (e.g. a per-block {!Budget.sub} of a
    whole-run budget) and takes precedence over [budget].  [resume]
    seeds the open list and incumbent from a checkpoint instead of
    starting at the root; the permutation is re-derived from [dm], so
    the matrix must be the one the checkpoint was taken from.

    Telemetry: the whole search runs under an [Obs.Span] named
    ["bnb.solve"].  The inner loop's one sampler is an
    {!Obs.Recorder.sample} pulse: with a recorder installed it emits a
    rate-limited worker heartbeat (expanded/pruned/open/UB/LB), which
    also pushes the counters so far into the [bnb.*] metrics, and which
    is what [--progress] prints.  The final stats go to the metrics
    through {!record_metrics}.

    @raise Invalid_argument on an empty matrix. *)

(** {2 Shared plumbing}

    The parallel solver drives the same branching and bounding; these
    give it access to the prepared search state. *)

type problem = {
  pm : Dist_matrix.t;  (** matrix relabelled by the maxmin permutation *)
  perm : Permutation.t;
  lb_extra : float array;  (** per-level LB increment (zeros for [LB0]) *)
  ub0 : float;  (** initial upper bound *)
  incumbent0 : Utree.t option;
      (** feasible tree realising [ub0] (in permuted labels), if any *)
  opts : options;
  kstate : Kernel.t;  (** prepared hot-path kernel state *)
}

val prepare : ?options:options -> Dist_matrix.t -> problem

val start :
  problem -> resume option -> Bb_tree.node list * float * Utree.t option
(** The search's starting open list, upper bound and incumbent: the
    root with the heuristic's bound, or a resumed frontier re-costed
    from its trees (only trees are trusted) with the better of the
    checkpoint's and the heuristic's incumbents.  Nodes are in
    exploration order. *)

val expand :
  ?ub:float -> problem -> Bb_tree.node -> Stats.t -> Bb_tree.node list
(** Children of a node after 3-3 filtering (recorded in the stats), in
    [opts.branching] order ([Paper_order]: ascending lower bound).
    Final upper-bound pruning is left to the caller, whose incumbent
    may be shared across workers.  Callers applying a gap tolerance
    pass the {e effective} bound [incumbent / (1 + eps)] as [ub].

    With [opts.kernel = Incremental] (and 3-3 filtering off for this
    node), candidates whose score-based lower bound provably exceeds
    [ub] (default [infinity] = keep everything) are dropped {e before}
    being realised, counted into [stats.pruned]; the threshold carries a
    safety margin so the surviving set is a superset of what the
    caller's exact bound keeps — pass a stale or conservative [ub]
    (e.g. a racy snapshot of a shared incumbent) freely. *)

val record_metrics : Stats.t -> float -> unit
(** [record_metrics stats elapsed_s] adds one finished solve to the
    process-wide [bnb.*] metrics of {!Obs.Metrics.default}: the solve
    count, the search counters, the [bnb.pruned.<reason>] attribution
    totals and the per-solve histograms.  {!solve} calls it once per
    solve; the parallel solver calls it once with its merged stats. *)

val relabel_out : problem -> Utree.t -> Utree.t
(** Map a tree over permuted labels back to the original species. *)

val certify :
  gap:float -> exhausted:bool -> cost:float -> lower_bound:float -> float
(** The certified relative gap [(cost - lower_bound) / lower_bound]
    (never negative; [infinity] when nothing is proved).  [exhausted]
    says the search ran its frontier dry, in which case a tolerance
    run's result is clamped to the configured [gap] — sound in real
    arithmetic, where float division could overshoot by an ulp. *)
