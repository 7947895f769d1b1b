exception Cancelled

(* Pool scheduling metrics: how long submitted tasks sat queued before a
   domain picked them up (milliseconds — sub-millisecond waits all land
   in the first log-scale bucket, which is the uninteresting case), and
   how many ran.  Flushed straight to the default registry; the dump's
   p50/p95/p99 of task_wait_ms is the block scheduler's queue pressure.
   The handles are created when the module initialises: workers on
   several domains touch them at once, and a [lazy] forced concurrently
   raises [CamlinternalLazy.Undefined]. *)
module M = struct
  let tasks = Obs.Metrics.counter "domain_pool.tasks"
  let task_wait_ms = Obs.Metrics.histogram "domain_pool.task_wait_ms"

  (* Live scheduler state for /metrics and [phylo top].  Gauges are
     process-wide: with several pools alive the last writer wins, which
     in practice is the one pool the pipeline runs. *)
  let size = Obs.Metrics.gauge "domain_pool.size"
  let queue_depth = Obs.Metrics.gauge "domain_pool.queue_depth"
  let busy = Obs.Metrics.gauge "domain_pool.busy"

  let started ~waited_s =
    Obs.Metrics.incr tasks;
    Obs.Metrics.observe task_wait_ms (waited_s *. 1e3)

  let set_queue_depth n = Obs.Metrics.set queue_depth (float_of_int n)
  let set_busy n = Obs.Metrics.set busy (float_of_int n)
end

(* --- persistent pool --- *)

type 'a cell = Pending | Done of 'a | Failed of exn | Skipped

type 'a future = {
  f_lock : Mutex.t;
  f_filled : Condition.t;
  mutable cell : 'a cell;
}

type job = { run : unit -> unit; skip : unit -> unit }

type t = {
  lock : Mutex.t;
  work : Condition.t;
  queue : job Queue.t;
  running : int Atomic.t;  (* jobs currently executing, for the gauge *)
  mutable cancelled : bool;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let fill fut cell =
  Mutex.lock fut.f_lock;
  (match fut.cell with Pending -> fut.cell <- cell | _ -> ());
  Condition.broadcast fut.f_filled;
  Mutex.unlock fut.f_lock

let worker pool () =
  let rec next () =
    Mutex.lock pool.lock;
    let rec get () =
      if pool.cancelled then begin
        (* Unstarted jobs are abandoned, their futures resolved so no
           awaiter blocks forever. *)
        let skipped = List.of_seq (Queue.to_seq pool.queue) in
        Queue.clear pool.queue;
        M.set_queue_depth 0;
        Mutex.unlock pool.lock;
        List.iter (fun j -> j.skip ()) skipped;
        None
      end
      else
        match Queue.take_opt pool.queue with
        | Some job ->
            M.set_queue_depth (Queue.length pool.queue);
            Mutex.unlock pool.lock;
            Some job
        | None ->
            if pool.stopping then begin
              Mutex.unlock pool.lock;
              None
            end
            else begin
              Condition.wait pool.work pool.lock;
              get ()
            end
    in
    match get () with
    | None -> ()
    | Some job ->
        M.set_busy (1 + Atomic.fetch_and_add pool.running 1);
        job.run ();
        M.set_busy (Atomic.fetch_and_add pool.running (-1) - 1);
        next ()
  in
  next ()

let create ~n_workers =
  if n_workers < 1 then invalid_arg "Domain_pool.create: n_workers < 1";
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      running = Atomic.make 0;
      cancelled = false;
      stopping = false;
      domains = [];
    }
  in
  Obs.Metrics.set M.size (float_of_int n_workers);
  M.set_queue_depth 0;
  M.set_busy 0;
  pool.domains <- List.init n_workers (fun _ -> Domain.spawn (worker pool));
  pool

let submit pool f =
  let fut = { f_lock = Mutex.create (); f_filled = Condition.create (); cell = Pending } in
  let queued = Obs.Clock.counter () in
  let job =
    {
      (* Task exceptions land in the future, never in the worker: one
         raising task cannot take a pool domain down with it. *)
      run =
        (fun () ->
          fill fut
            (match
               M.started ~waited_s:(Obs.Clock.elapsed_s queued);
               f ()
             with
            | v -> Done v
            | exception e -> Failed e));
      skip = (fun () -> fill fut Skipped);
    }
  in
  Mutex.lock pool.lock;
  if pool.cancelled || pool.stopping then begin
    Mutex.unlock pool.lock;
    raise Cancelled
  end;
  Queue.add job pool.queue;
  M.set_queue_depth (Queue.length pool.queue);
  Condition.signal pool.work;
  Mutex.unlock pool.lock;
  fut

let await fut =
  Mutex.lock fut.f_lock;
  while (match fut.cell with Pending -> true | _ -> false) do
    Condition.wait fut.f_filled fut.f_lock
  done;
  let cell = fut.cell in
  Mutex.unlock fut.f_lock;
  match cell with
  | Done v -> v
  | Failed e -> raise e
  | Skipped -> raise Cancelled
  | Pending -> assert false

let cancel pool =
  Mutex.lock pool.lock;
  pool.cancelled <- true;
  let skipped = List.of_seq (Queue.to_seq pool.queue) in
  Queue.clear pool.queue;
  M.set_queue_depth 0;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter (fun j -> j.skip ()) skipped

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.work;
  let domains = pool.domains in
  pool.domains <- [];
  Mutex.unlock pool.lock;
  List.iter Domain.join domains
