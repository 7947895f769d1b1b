open Import

(** One interface for running block solves, wherever they execute.

    The compact-set pipeline decomposes a matrix into independent block
    solves and needs them executed — on this machine's domains, on the
    discrete-event cluster simulator, or on a real TCP worker pool.
    An {!t} abstracts the "where": the pipeline submits {!job}s (pure
    data: matrix, solver options, node share, resume state) and awaits
    {!outcome}s (pure data: stats, tree, certified bounds, frontier in
    the block's own labels), so budgets, checkpoints and manifests
    compose identically over every backend.

    Implementations:
    - {!local} — the calling domain ([capacity = 1]) or a
      [Parbnb.Domain_pool]; the default, bit-identical to the historical
      in-process pipeline.
    - {!sim} — the master/slave cluster simulator
      ({!Clustersim.Dist_bnb}), through the same {!run_job} envelope as
      {!local}.
    - [Net_exec.coordinator] — a real TCP worker pool (see {!Net_exec}).

    Every implementation emits [Block_start]/[Block_finish] events into
    the ambient {!Obs.Recorder}, so [phylo top], [/metrics] and the
    flight recorder see the same story regardless of backend. *)

type kind = Local | Sim | Tcp
(** Which backend a {!Run_config} selects. *)

val kind_names : (string * kind) list
(** Spelling table (see {!Obs.Json.enum}): ["local"], ["sim"],
    ["tcp"]. *)

val parse_addr : string -> (string * int, string) result
(** Parse a TCP pool address: ["HOST:PORT"], [":PORT"] or a bare port
    (host defaults to 127.0.0.1).  Port 0 is allowed and means "bind an
    ephemeral port" on the coordinator side. *)

type job = {
  j_id : int;  (** deterministic block id — everything downstream keys on it *)
  j_size : int;  (** species count of the block (for events/metrics) *)
  j_matrix : Dist_matrix.t;  (** the block-local matrix to solve *)
  j_options : Solver.options;
  j_workers : int;  (** intra-solve domains (where the backend supports them) *)
  j_node_share : int option;
      (** this block's share of a whole-run node cap; enforced as a
          {!Budget.sub} child monitor wherever the job runs *)
  j_poll_every : int;
      (** the run budget's polling period, shipped with the job so a
          remote worker's monitor trips a [j_node_share] at exactly the
          expansion count a local {!Budget.sub} child would *)
  j_resume : [ `Solved of Utree.t | `Restart of Solver.resume ] option;
      (** checkpoint state: a finished block skips the solve, an
          interrupted one continues from its frontier *)
  j_cache : bool;
      (** consult the installed sub-solve cache before solving and offer
          the certified result back afterwards (see {!Subsolve_cache});
          resumed jobs never touch the cache regardless *)
  j_trace : string option;
      (** trace context — the run's [run_id] (or a serve request's
          [request_id]).  Stamped on the job's spans, shipped over the
          wire, and echoed back by remote workers so their spans can be
          merged into the coordinator's trace.  [None] when telemetry is
          off: jobs then serialise and behave exactly as before. *)
}

type solved = {
  s_stats : Stats.t;
  s_tree : Utree.t;  (** best tree, in the block matrix's own labels *)
  s_status : Budget.status;
  s_lb : float;  (** certified lower bound on the block optimum *)
  s_gap : float;  (** certified relative gap *)
  s_optimal : bool;
  s_frontier : Utree.t list;
      (** open partial trees in the block matrix's own labels (the
          checkpoint representation) — empty for a completed search *)
  s_from_cache : bool;
      (** provenance: this result was replayed from the sub-solve cache
          (stats included) rather than searched for *)
}

type outcome = {
  o_job : int;  (** the job's [j_id] *)
  o_solved : solved;
  o_queue_wait_s : float;  (** executor creation -> job started *)
  o_solve_s : float;
}

type future = { await : unit -> outcome }
(** [await] blocks until the job finished (possibly re-raising the
    job's exception); safe to call once per future. *)

type t = {
  name : string;  (** backend name, for logs and manifests *)
  capacity : unit -> int;
      (** jobs the backend can run concurrently {e right now} — fixed
          for the in-process backends, the number of live workers (at
          least 1) for the TCP pool *)
  submit : job -> future;
  cancel : unit -> unit;
      (** best-effort cooperative stop of everything not yet running;
          in-flight solves stop via their budget monitors *)
  shutdown : unit -> unit;
      (** release the backend's resources (join domains, close
          sockets); call after every future was awaited.  Idempotent. *)
}

val src : Logs.src
(** Log source ["compactphy.executor"]. *)

(** {2 Sub-solve cache hook}

    The content-addressed cache ({!Subsolve_cache}) lives above this
    module, so the solve core reaches it through an installed hook.
    {!solve_job} (and so every backend) consults it only for a job
    that opted in ([j_cache]), carries no resume state and spans at
    least two species, and offers back only certified ([Budget.Exact])
    results that were not themselves cache replays — budget-interrupted
    outcomes are never admitted.  Hook failures are logged and treated
    as misses. *)

type cache_hook = {
  c_lookup : job -> solved option;
      (** a certified result for the job's (matrix, options) content
          address, relabelled to the job matrix's own labels *)
  c_store : job -> solved -> unit;
      (** offer a result; only called for certified, non-replayed
          results of cache-opted jobs *)
}

val set_cache_hook : cache_hook option -> unit
(** Install (or clear) the process-wide cache hook; last wins. *)

(** {2 Shared execution core} *)

val solve_job : monitor:Budget.monitor -> job -> solved
(** Solve one job in the calling domain under [monitor] — the one
    search both the in-process backends and a remote worker run.  No
    events, no timing: callers wrap it.  Consults the installed
    sub-solve cache first and offers the certified result back
    afterwards. *)

val job_monitor : monitor:Budget.monitor -> job -> Budget.monitor
(** The monitor a job solves under: [monitor] itself, or a
    {!Budget.sub} child enforcing [j_node_share]. *)

val run_job : monitor:Budget.monitor -> t0:Obs.Clock.counter -> job -> outcome
(** {!solve_job} plus the executor envelope: node-share sub-monitor,
    [Block_start]/[Block_finish] events, queue-wait (measured from
    [t0]) and solve timing. *)

(** {2 Backends} *)

val local : capacity:int -> monitor:Budget.monitor -> unit -> t
(** In-process executor.  [capacity = 1] runs each job in the calling
    domain at submission time (the sequential schedule, no spawns);
    larger capacities run jobs over a [Parbnb.Domain_pool] in
    submission order. *)

val sim : monitor:Budget.monitor -> t
(** The cluster-simulator backend: each job runs, eagerly and in
    submission order, as a {!Clustersim.Dist_bnb.run} on a
    [Platform.cluster j_workers] simulation under the job's options,
    wrapped by {!run_job} exactly like a {!local} job (cache gating,
    block events, timing).  The simulator has no budget hooks or
    frontier: a block always solves to its optimum, its expansions are
    charged to the monitor on completion, and a checkpointed frontier
    is re-solved from scratch. *)
