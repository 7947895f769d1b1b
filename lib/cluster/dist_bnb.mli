open Import

(** The papers' master/slave branch-and-bound, executed on the
    discrete-event simulator.

    This reproduces the 16-node cluster and grid experiments without 16
    physical machines: every BBT expansion takes [1 / speed] virtual
    seconds on its slave, and every pool fetch, work donation and
    upper-bound broadcast pays the platform's message time.  Because a
    slave prunes with the {e last upper bound it has received}, the
    simulation exhibits the real system's behaviour: adding slaves can
    cut the explored space (super-linear speedup) and communication
    latency can waste it (the grid's handicap at equal node counts). *)

type result = {
  cost : float;  (** weight of the best tree found — always the optimum *)
  tree : Utree.t;  (** in original species labels *)
  makespan : float;  (** virtual seconds from start to completion *)
  expansions : int;  (** total BBT expansions over all slaves *)
  messages : int;  (** protocol messages exchanged *)
  n_slaves : int;
  utilization : float array;
      (** per-slave busy fraction of the makespan — the load-balance
          picture behind the papers' global/local pool design *)
  report : Obs.Report.t;
      (** run manifest: seed/simulate wall-clock phases and one entry
          per slave (expansions, prunings, virtual busy time,
          utilization) *)
  stats : Stats.t;
      (** aggregated search counters over all slaves, in the same shape
          a local solve produces — what the executor's sim backend
          merges into pipeline manifests *)
}

val src : Logs.src
(** Log source ["compactphy.distbnb"]. *)

val run :
  ?options:Solver.options ->
  ?max_expansions:int ->
  Platform.t ->
  Dist_matrix.t ->
  result
(** Simulate one construction under [options] (default
    {!Solver.default_options}; build others with the validating
    {!Solver.options}).  This is all the simulator reads of a run's
    configuration, so the pipeline's [Executor.sim] backend calls it
    directly with each block job's options.  [max_expansions] (default
    30 million) guards against runaway searches.
    @raise Failure if the guard is hit. *)

val speedup :
  ?options:Solver.options ->
  Platform.t ->
  Platform.t ->
  Dist_matrix.t ->
  float
(** [speedup base par dm] = makespan ratio base/par (e.g. 1-slave cluster
    vs 16-slave cluster — the papers' Figure 3/6 metric). *)
