open Import

(** A real TCP worker pool behind the {!Executor} interface — no
    dependencies beyond [Unix] and [Thread].

    One process runs the {!coordinator}; any number of [phylo worker
    --connect HOST:PORT] processes dial in, announce themselves with a
    [Wire.Hello], and then solve {!Executor.job}s one at a time.  The
    protocol is length-prefixed JSON ({!Wire}) with bit-exact hex-float
    payloads, so a localhost pool reproduces the sequential solver's
    cost and topology exactly.

    Fault model:
    - a worker that dies mid-job (EOF, reset, timeout) has its job
      requeued and retried on another worker;
    - a job that exhausts its retries — or a pool that never had a
      worker within [fallback_after_s] — degrades gracefully to a local
      in-process solve under the real run monitor;
    - while solving, workers stream [Wire.Heartbeat]s which the
      coordinator republishes as [Obs.Events.Heartbeat] into the
      ambient recorder, so [/healthz] staleness and [phylo top] see
      remote workers exactly like local ones;
    - when the run budget trips, in-flight jobs receive [Wire.Cancel]
      and queued jobs fall back to (immediately-stopping) local solves.

    Budget semantics over the wire: a job's [j_node_share] is enforced
    worker-side with the run budget's own polling period
    ([j_poll_every]), so a share-capped block trips at the same
    expansion count as a local {!Budget.sub} child.  Whole-run
    constraints (deadline, global cap, cancel) stay with the
    coordinator and reach in-flight workers as [Wire.Cancel] frames —
    cooperative and subject to network latency, so a deadline-tripped
    remote block may expand slightly past the instant a local one
    would have stopped.  Both processes ignore SIGPIPE on startup:
    writes to a dead peer must surface as [EPIPE] for the retry and
    fallback paths to handle. *)

val src : Logs.src
(** Log source ["compactphy.netexec"]. *)

val coordinator :
  ?job_timeout_s:float ->
  ?fallback_after_s:float ->
  ?max_retries:int ->
  addr:string ->
  monitor:Budget.monitor ->
  unit ->
  Executor.t * int
(** Bind [addr] (["HOST:PORT"]; port 0 for an ephemeral port), start the
    accept/housekeeping/fallback threads, and return the executor plus
    the port actually bound.  [job_timeout_s] (default: none) kills a
    worker that holds a job longer than that and requeues the job;
    [fallback_after_s] (default 10) is how long a queued job waits for
    {e any} worker before degrading to a local solve; [max_retries]
    (default 2) worker deaths per job before the same degradation.
    [shutdown] sends [Wire.Shutdown] to every worker, closes the
    listener and joins all threads.  The executor's [capacity] reports
    the number of live workers at call time (at least 1).
    @raise Invalid_argument on an unparseable [addr].
    @raise Unix.Unix_error if the bind fails. *)

val on_bound : (string -> int -> unit) -> unit
(** Register a hook called with (host, port) whenever a coordinator
    binds — the channel through which the CLI and tests learn an
    ephemeral port chosen inside the pipeline. *)

type worker_exit = [ `Shutdown | `Eof | `Died ]
(** Why {!run_worker} returned: coordinator said [Wire.Shutdown], the
    connection closed, or fault injection fired. *)

val run_worker :
  ?die_after_jobs:int ->
  ?delay_result_s:float ->
  ?heartbeat_every_s:float ->
  connect:string ->
  unit ->
  worker_exit
(** Dial [connect] and serve jobs until the coordinator goes away.
    Each job solves in its own thread under a per-job budget
    ([j_node_share] as node cap, [Wire.Cancel] as cancel flag) while
    the calling thread keeps reading frames and streaming heartbeats
    (every [heartbeat_every_s], default 1s).

    Fault injection, for tests and CI: [die_after_jobs n] makes the
    worker close its socket abruptly upon receiving its [n]-th job
    (what a SIGKILL looks like from the coordinator's side);
    [delay_result_s] delays each finished job's result frame, so a
    coordinator [job_timeout_s] can be exercised deterministically.
    @raise Invalid_argument on an unparseable [connect].
    @raise Unix.Unix_error if the connection cannot be established. *)
