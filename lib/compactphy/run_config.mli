open Import

(** One record for everything a pipeline run can be configured with.

    The pipeline entry points historically took a growing pile of
    optional arguments ([?options ?linkage ?relaxation ?workers
    ?block_workers]); this module packages them as a single validated
    value so configurations can be named, passed around, logged into
    run manifests and round-tripped through the CLI.

    {[
      let cfg = Run_config.(default |> with_workers 4 |> with_linkage Avg) in
      Pipeline.with_compact_sets ~config:cfg dm
    ]} *)

type t = {
  solver : Solver.options;  (** branch-and-bound knobs (see {!solver_options}) *)
  linkage : Decompose.linkage;  (** compact-set linkage, default [Max] *)
  relaxation : float option;
      (** alpha-compact relaxation, [>= 1.]; [None] = exact compactness *)
  workers : int;  (** domains inside one branch-and-bound solve *)
  block_workers : int;  (** independent blocks solved concurrently *)
  deadline_s : float option;
      (** whole-run wall-clock budget in seconds; [None] = unlimited *)
  max_nodes : int option;
      (** whole-run cap on expanded BBT nodes, split across compact-set
          blocks by expected work; [None] = unlimited *)
  cancel : bool Atomic.t option;
      (** external cancel flag (e.g. set from a SIGINT handler): the run
          stops cooperatively once it becomes [true] *)
  executor : Executor.kind;
      (** where block solves run: [Local] (this process, the default),
          [Sim] (the cluster simulator), or [Tcp] (a real worker pool —
          see {!Net_exec}) *)
  workers_addr : string option;
      (** [Tcp] coordinator listen address, [HOST:PORT]; port 0 binds an
          ephemeral port.  Required when [executor = Tcp]. *)
  cache_dir : string option;
      (** on-disk store for the content-addressed sub-solve cache
          ({!Subsolve_cache}); [None] (the default) disables caching
          entirely, so runs behave exactly as before this field
          existed *)
  cache_max_bytes : int option;
      (** byte budget for the on-disk cache store: after each admit the
          store evicts least-recently-used blobs (by mtime; disk hits
          refresh it) until the directory fits.  [None] (the default)
          leaves the disk store unbounded, as before. *)
  run_id : string option;
      (** trace context for this run: stamped on every executor job
          ([j_trace]), shipped to TCP workers over the wire, and echoed
          in the manifest.  Minted by the CLI when tracing/telemetry is
          on and by [phylo serve] per request; [None] (the default)
          changes nothing — jobs carry no trace and manifests are
          byte-identical to earlier releases. *)
}

val default : t
(** Today's defaults: {!Solver.default_options} (incremental kernel),
    [Max] linkage, no relaxation, sequential ([workers = 1],
    [block_workers = 1]), and no budget of any kind — runs behave
    exactly as before this field existed. *)

val solver_options :
  ?lb:Solver.lb_kind ->
  ?relation33:Solver.mode33 ->
  ?initial_ub:Solver.initial_ub ->
  ?max_expanded:int ->
  ?search:Solver.search_order ->
  ?branching:Solver.branch_order ->
  ?gap:float ->
  ?collect_all:bool ->
  ?kernel:Solver.kernel_kind ->
  unit ->
  Solver.options
(** Re-export of {!Solver.options}, the validating smart constructor,
    so pipeline users never need to depend on [Bnb] directly. *)

(** {2 Functional setters} *)

val with_solver : Solver.options -> t -> t

val with_exploration : Solver.search_order -> t -> t
(** Replace just the exploration strategy inside [solver]. *)

val with_branching : Solver.branch_order -> t -> t
(** Replace just the branching (child-ordering) strategy. *)

val with_gap : float -> t -> t
(** Replace just the optimality-gap tolerance (validated by
    {!validate}: must be [>= 0] and finite). *)

val with_linkage : Decompose.linkage -> t -> t
val with_relaxation : float -> t -> t
val with_workers : int -> t -> t
val with_block_workers : int -> t -> t
val with_deadline : float -> t -> t
val with_max_nodes : int -> t -> t
val with_cancel : bool Atomic.t -> t -> t
val with_executor : Executor.kind -> t -> t
val with_workers_addr : string -> t -> t

val with_cache_dir : string -> t -> t
(** Enable the content-addressed sub-solve cache, persisted under the
    given directory (created on first use). *)

val with_cache_max_bytes : int -> t -> t
(** Bound the on-disk cache store (bytes, [>= 1]); see
    [cache_max_bytes]. *)

val with_run_id : string -> t -> t
(** Set the run's trace context; see [run_id]. *)

val budget : t -> Bnb.Budget.t
(** The run budget this configuration describes
    ({!Bnb.Budget.unlimited} when no budget field is set). *)

val validate : ?who:string -> t -> t
(** Returns its argument unchanged if coherent.  [who] prefixes the
    error message (defaults to ["Run_config.validate"]).
    @raise Invalid_argument if [workers < 1], [block_workers < 1],
    [relaxation < 1.] (or NaN), [solver.gap] negative or not finite,
    [solver.max_expanded <= 0], [deadline_s] not positive and finite,
    [max_nodes <= 0], [executor = Tcp] without a [workers_addr],
    [workers_addr] is not a parseable [HOST:PORT], [cache_dir] or
    [run_id] is the empty string, or [cache_max_bytes < 1]. *)

(** {2 Presets} *)

type preset =
  | Paper
      (** the published configuration: sequential, reference expansion
          kernel — reproduces the seed's search trajectory exactly *)
  | Fast
      (** incremental kernel plus inter-block parallelism sized to the
          host *)
  | Exhaustive
      (** gather every optimal topology ([collect_all]), best-first *)

val of_preset : preset -> t

val preset_names : (string * preset) list
(** Spelling table (see {!Obs.Json.enum}): ["paper"], ["fast"],
    ["exhaustive"].  The other enumerations a configuration holds keep
    their tables beside their types: {!Solver.lb_names},
    {!Solver.mode33_names}, {!Solver.initial_ub_names},
    {!Bnb.Strategy.exploration_names}, {!Bnb.Strategy.branching_names},
    {!Bnb.Kernel.kind_names}, {!Decompose.linkage_names} and
    {!Executor.kind_names}. *)

val to_json : t -> Obs.Json.t
(** For run manifests: every field except [cancel] (a runtime handle,
    not data).  [cache_max_bytes] and [run_id] are
    emitted only when set, keeping manifests from runs that never use
    them byte-identical to earlier releases. *)
