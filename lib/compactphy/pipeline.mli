open Import

(** The paper's end-to-end technique (Section 3) and its baseline.

    [exact] runs (parallel) branch-and-bound on the whole matrix — the
    "without compact sets" condition of the experiments.
    [with_compact_sets] decomposes the matrix along its compact sets,
    solves every small matrix exactly, grafts the block trees back
    together, and re-realises the merged topology against the original
    matrix — the "with compact sets" condition.  Compactness guarantees
    the graft is consistent: everything inside a compact set is closer
    than anything outside it, so the block structure can only help.

    {2 Two orthogonal axes of parallelism}

    The decomposition exposes task parallelism {e between} blocks
    (sibling blocks are independent exact solves) on top of the domain
    parallelism {e inside} one branch-and-bound search
    ({!Parbnb.Par_bnb}).  [with_compact_sets] drives both:
    [~block_workers] dispatches blocks largest-first over a
    {!Parbnb.Domain_pool} (so the longest solve overlaps everything
    else), while [~workers] is the per-block solver's domain count.
    Results are merged in deterministic block order, so costs, summed
    statistics and the run manifest are identical for every
    [block_workers] value; see {!plan_workers} for splitting a domain
    budget between the two axes. *)

type run = {
  tree : Utree.t;  (** feasible ultrametric tree over the input matrix *)
  cost : float;  (** its weight *)
  elapsed_s : float;  (** wall-clock seconds for the whole construction *)
  stats : Stats.t;
      (** branch-and-bound statistics, summed over blocks in block-id
          order (deterministic under inter-block scheduling) *)
  n_blocks : int;  (** 1 for [exact] *)
  largest_block : int;  (** species count of the largest solved matrix *)
  optimal : bool;
      (** [exact]: global optimality; [with_compact_sets]: every block
          was solved to optimality (the merged tree itself is
          near-optimal, not guaranteed optimal) *)
  report : Obs.Report.t;
      (** run manifest: phase timings ([decompose] / [solve-blocks] /
          [graft] / [re-realise], or [solve] for {!exact}), one worker
          entry per solved block in block-id order ([block] id,
          [block_size], [queue_wait_s], [solve_s], search counters,
          [status]), and the summary fields — including ["status"],
          ["lower_bound"], ["strategy"] (exploration / branching / gap)
          and ["certified_gap"]; serialise with [Obs.Report.to_json] *)
  status : Bnb.Budget.status;
      (** [Exact] when every search ran to completion; otherwise the
          budget constraint that stopped the run *)
  lower_bound : float;
      (** {!exact}: certified global lower bound on the optimal cost
          (equals [cost] when [status = Exact]).
          {!with_compact_sets}: sum of the per-block certified bounds —
          a lower bound on the cost of finishing every block exactly,
          {e not} on the final re-realised tree's weight (the
          decomposition itself is a heuristic). *)
  certified_gap : float;
      (** {!exact}: the solver's certificate
          [(cost - lower_bound) / lower_bound] — [0.] for a completed
          exact search, at most the configured [gap] for a completed
          tolerance run (see {!Bnb.Solver.certify}).
          {!with_compact_sets}: [cost] relative to the sum-of-block
          bound above, never clamped to the tolerance (same caveat as
          [lower_bound]). *)
  checkpoint : Bnb.Checkpoint.t option;
      (** [Some] exactly when [status <> Exact]: everything needed to
          {!Bnb.Checkpoint.save} and later resume this run *)
}

val src : Logs.src
(** Log source ["compactphy.pipeline"]. *)

val exact : ?config:Run_config.t -> ?resume:Bnb.Checkpoint.t -> Dist_matrix.t -> run
(** Minimum ultrametric tree of the full matrix — the configuration's
    [solver] options and [workers] (1 = sequential, more = the
    domain-parallel solver) apply; the decomposition fields are
    ignored.  The run manifest embeds the full configuration under
    ["config"].

    The configuration's budget fields ([deadline_s] / [max_nodes] /
    [cancel]) bound the solve; an exhausted run returns its incumbent
    with a [checkpoint] to continue from.  [resume] continues such a
    checkpoint (same matrix, same configuration): the run reaches the
    same optimum an uninterrupted one finds.

    @raise Invalid_argument if the configuration fails
    {!Run_config.validate}, or if [resume] does not match the matrix. *)

val with_compact_sets :
  ?config:Run_config.t -> ?resume:Bnb.Checkpoint.t -> Dist_matrix.t -> run
(** The paper's fast construction, driven by a {!Run_config.t}
    (default {!Run_config.default}).  Linkage default [Max] (the variant
    the paper evaluates); [relaxation >= 1.] uses alpha-compact sets,
    decomposing more aggressively on noisy data.

    [workers] parallelises each block's branch-and-bound;
    [block_workers] solves that many independent blocks concurrently,
    largest-first.  The two compose: up to [block_workers * workers]
    domains run at once.  Whatever the split, the returned cost, tree
    (up to the solver's existing tie-breaking), summed [stats] and
    manifest are identical to the sequential run.

    [block_workers] beyond the host's recommended domain count is
    clamped (oversubscription only adds GC synchronisation), so a large
    value reads as "as parallel as this machine allows"; the manifest
    records both the requested [block_workers] and the
    [effective_block_workers] used.

    Budgets: the configuration's [deadline_s] and [cancel] apply to the
    whole run (all blocks share one monitor); a whole-run [max_nodes] is
    split across blocks proportionally to their estimated search cost,
    each block under its own child monitor so one block exhausting its
    share never starves the others.  Interrupted blocks contribute
    their best incumbent to the graft, so the anytime result is always
    a complete feasible tree; the [checkpoint] records every block
    (finished ones included) and [resume] picks up only the unfinished
    ones — under the same matrix and configuration, the resumed run
    reaches exactly the tree an unbudgeted run builds.

    Telemetry: the whole construction runs under an [Obs.Span] named
    ["pipeline.with_compact_sets"], with nested phase spans matching the
    manifest phases ([decompose], [solve-blocks], [graft],
    [re-realise]).

    @raise Invalid_argument on an empty matrix, if the configuration
    fails {!Run_config.validate}, or if [resume] does not match the
    matrix. *)

val plan_workers : budget:int -> Decompose.t -> int * int
(** [plan_workers ~budget deco] splits a total domain budget into
    [(block_workers, workers)] for {!with_compact_sets}.  Heuristic: a
    single big block that dominates the decomposition's estimated search
    cost gets the whole budget as intra-block domains (inter-block
    dispatch could not overlap anything comparable); many comparable
    small blocks get the budget as inter-block domains first, and only
    the remainder inside each solve.

    @raise Invalid_argument if [budget < 1]. *)

type comparison = {
  with_cs : run;
  without_cs : run;
  time_saved_pct : float;
      (** [(t_without - t_with) / t_without * 100] — the paper reports
          77.19-99.7 % on random data *)
  cost_increase_pct : float;
      (** [(c_with - c_without) / c_without * 100] — the paper reports
          under 5 % (random) and under 1.5 % (mtDNA) *)
  report : Obs.Report.t;
      (** both runs' manifests embedded under [with_cs] / [without_cs],
          plus the two headline percentages *)
}

val compare_methods : ?config:Run_config.t -> Dist_matrix.t -> comparison
(** Run both conditions on the same matrix — one row of the paper's
    Figures 8-13.  [block_workers] applies to the compact-set condition
    only (the exact baseline is a single block).

    {2 Where block solves run}

    Both entry points schedule every solve through the {!Executor}
    backend the configuration names: [Local] (the default — this
    process, bit-identical to the historical pipeline), [Sim] (each
    block on a [workers]-slave simulated cluster, {!Executor.sim}), or
    [Tcp] (a real worker pool at [workers_addr]; see {!Net_exec}).
    Budgets, checkpoints, manifests and telemetry compose unchanged
    across backends.

    Note: the pre-[Run_config] [*_legacy] entry points were removed —
    build a {!Run_config.t} instead, e.g.
    [Pipeline.exact ~config:(Run_config.with_solver options Run_config.default) dm]. *)
