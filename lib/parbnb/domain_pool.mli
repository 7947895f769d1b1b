(** A reusable fixed-size pool of domains for independent tasks.

    Where {!Shared_pool} is the work-sharing queue {e inside} one
    branch-and-bound search (nodes flow between workers mid-solve),
    this pool runs a batch of {e unrelated} tasks — one compact-set
    block solve each, in the pipeline — over a bounded number of
    domains.  Tasks start in submission order, so the caller controls
    the schedule by ordering its submissions (the pipeline submits
    blocks largest-first to minimise makespan); each result comes back
    through its own {!future}, which keeps downstream merges
    deterministic whatever order tasks actually finished in. *)

exception Cancelled
(** Raised by {!submit} on a cancelled (or shut-down) pool, and by
    {!await} for a task that was cancelled before it started. *)

type t
(** A persistent pool: [n_workers] domains spawned once, fed through
    {!submit} until {!shutdown}.  The pipeline keeps one alive across
    all compact-set blocks of a run so per-block solves never pay a
    spawn, and so cancellation has a single place to land. *)

type 'a future
(** Handle to one submitted task's eventual result. *)

val create : n_workers:int -> t
(** Spawn the worker domains (they park until work arrives).
    @raise Invalid_argument if [n_workers < 1]. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  Tasks start in submission order.  A task that
    raises records the exception in its future — the worker domain
    survives and moves on to the next task.
    @raise Cancelled if the pool was cancelled or shut down. *)

val await : 'a future -> 'a
(** Block until the task finished; returns its value or re-raises its
    exception in the calling domain.
    @raise Cancelled if the task was skipped by {!cancel}. *)

val cancel : t -> unit
(** Stop accepting work: subsequent {!submit}s raise {!Cancelled},
    queued-but-unstarted tasks resolve to [Cancelled], running tasks
    finish normally (cooperative tasks should watch a {!Bnb.Budget}
    monitor to stop early).  Idempotent. *)

val shutdown : t -> unit
(** Finish whatever is queued (unless {!cancel}led first), then join
    all worker domains.  Idempotent; no [submit] may race with it. *)
