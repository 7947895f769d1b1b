open Import

(** Parallel branch-and-bound for minimum ultrametric trees
    (Table 1 of the companion paper), on OCaml 5 domains.

    The master seeds a global pool with [2 * n_workers] BBT nodes
    (paper's Steps 1-5), then every worker runs branch-and-bound on a
    local pool ordered by [options.search] — the papers' depth-first
    stack by default, a best-first heap or hybrid dive otherwise, with
    best-first work stealing from the global pool — sharing two things:
    the global
    upper bound (an atomic, updated whenever a better complete tree is
    found — the mechanism behind the reported super-linear speedups) and
    the global pool (refilled by busy workers whenever it runs dry, the
    papers' two-level load-balancing scheme).

    The result cost always equals the sequential solver's (see the test
    suite); the returned tree is one optimal tree, not necessarily the
    same one the sequential search reports first. *)

type outcome = {
  tree : Utree.t;
  cost : float;
  optimal : bool;
      (** false only when a worker exhausted its per-worker node share
          ([options.max_expanded], enforced as a {!Budget.sub} child of
          the run monitor) *)
  stats : Stats.t;  (** merged over workers *)
  n_workers : int;
  worker_stats : Stats.t array;
      (** per-worker search counters, in worker-id order (a single entry
          for the [n <= 2] sequential fallback) — the load-balance
          picture behind the merged [stats] *)
  report : Obs.Report.t;
      (** run manifest: seed/search phase timings and one worker entry
          per domain *)
  status : Budget.status;
      (** [Exact] for a completed search; the tripped constraint
          otherwise ([Node_cap] also covers an exhausted per-worker
          node share) *)
  lower_bound : float;
      (** certified global lower bound (equals [cost] when exact and
          [gap = 0.]) *)
  certified_gap : float;
      (** certified relative gap [(cost - lower_bound) / lower_bound];
          [0.] for a completed exact search, at most [options.gap] for a
          completed tolerance run (see {!Solver.certify}) *)
  frontier : Bb_tree.node list;
      (** open nodes at the stop (permuted labels): workers' local
          queues plus whatever was left in the global pool *)
}

val solve :
  ?options:Solver.options ->
  ?budget:Budget.t ->
  ?monitor:Budget.monitor ->
  ?resume:Solver.resume ->
  ?n_workers:int ->
  Dist_matrix.t ->
  outcome
(** [solve ~n_workers dm] — [n_workers] defaults to
    [Domain.recommended_domain_count () - 1], at least 1.

    [budget] (or an externally armed [monitor], which wins) bounds the
    whole parallel search: every worker polls the shared monitor; the
    first to observe exhaustion closes the global pool, the others
    drain within one expansion each, and the union of their local
    queues and the pool becomes [frontier].  [resume] seeds the search
    from a checkpointed frontier instead of the root (the master still
    widens it to feed every worker).

    Telemetry: the solve runs under an [Obs.Span] named
    ["parbnb.solve"].  Each worker's inner loop has one sampler, an
    {!Obs.Recorder.sample} pulse that emits heartbeats tagged by worker
    id when a recorder is installed ([--progress] prints them).  The
    merged stats reach the [bnb.*] metrics once per solve through
    {!Solver.record_metrics}, so parallel solves are counted there
    just like sequential ones.

    @raise Invalid_argument on an empty matrix or [n_workers < 1]. *)
