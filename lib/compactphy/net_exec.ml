open Import

let src = Logs.Src.create "compactphy.netexec" ~doc:"TCP worker-pool executor"

module Log = (val Logs.src_log src : Logs.LOG)

let resolve host =
  try Unix.inet_addr_of_string host
  with _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with _ -> invalid_arg (Printf.sprintf "Net_exec: cannot resolve %S" host))

let addr_of s who =
  match Executor.parse_addr s with
  | Ok (host, port) -> (host, port)
  | Error e -> invalid_arg (Printf.sprintf "%s: %s" who e)

(* Dead peers are routine here — they are the fault model.  A write to
   a peer that just vanished must surface as EPIPE (handled wherever
   frames are written), not deliver SIGPIPE and kill the process. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

(* Tests and the CLI want to know which ephemeral port the coordinator
   actually bound (workers_addr "127.0.0.1:0"); the pipeline creates the
   coordinator internally, so the only general channel is a hook. *)
let bound_hook : (string -> int -> unit) option ref = ref None
let on_bound f = bound_hook := Some f

(* --- Coordinator ------------------------------------------------- *)

type cell_state =
  | Pending
  | Done of Executor.outcome
  | Failed of exn

type pending = {
  p_job : Executor.job;
  p_submitted_at : float;  (** coordinator-clock seconds, for aging *)
  p_submitted_ns : int64;  (** absolute [Obs.Clock.now_ns], for spans *)
  mutable p_retries : int;
  mutable p_dispatched_at : float;
  mutable p_dispatched_ns : int64;
  cell_m : Mutex.t;
  cell_c : Condition.t;
  mutable cell : cell_state;
}

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  mutable c_inflight : pending option;
  mutable c_alive : bool;
  mutable c_cancel_sent : bool;
  (* Estimated worker-to-coordinator clock offset: the minimum over all
     (coordinator receipt time - worker send stamp) samples from this
     connection's heartbeats and results.  Each sample overestimates the
     true offset by one network delay, so the minimum-delay sample wins;
     on localhost the error is microseconds, across a real network it is
     bounded by the best one-way trip observed.  Read and written only
     on this connection's reader thread. *)
  mutable c_offset_ns : int64 option;
  (* The coordinator's trace labels this worker's track once. *)
  mutable c_named : bool;
  (* Socket writes happen on a per-connection writer thread fed by this
     outbox, so a worker with a full TCP send buffer can never stall
     the coordinator state machine: [co.lock] is held across queue
     pushes only, never across a [write]. *)
  c_outbox : Wire.frame Queue.t;
  c_out_m : Mutex.t;
  c_out_c : Condition.t;
  mutable c_out_closed : bool;
  mutable c_writer : Thread.t option;
}

type coord = {
  listen_fd : Unix.file_descr;
  port : int;
  monitor : Budget.monitor;
  job_timeout_s : float option;
  fallback_after_s : float;
  max_retries : int;
  t0 : Obs.Clock.counter;
  lock : Mutex.t;
  wake : Condition.t;  (** fallback runner + housekeeping wake-ups *)
  queue : pending Queue.t;  (** jobs waiting for an idle worker *)
  fallback : pending Queue.t;  (** jobs degraded to a local solve *)
  mutable conns : conn list;
  mutable next_id : int;
  mutable stopping : bool;
  mutable cancelled : bool;
  mutable threads : Thread.t list;
}

let fill p st =
  Mutex.lock p.cell_m;
  (match p.cell with
  | Pending ->
      p.cell <- st;
      Condition.broadcast p.cell_c
  | Done _ | Failed _ -> ());
  Mutex.unlock p.cell_m

let await_pending p =
  Mutex.lock p.cell_m;
  let rec wait () =
    match p.cell with
    | Pending ->
        Condition.wait p.cell_c p.cell_m;
        wait ()
    | (Done _ | Failed _) as st -> st
  in
  let st = wait () in
  Mutex.unlock p.cell_m;
  match st with
  | Done o -> o
  | Failed e -> raise e
  | Pending -> assert false

(* Queue [frame] for the connection's writer thread.  Safe to call with
   [co.lock] held: the lock order is [co.lock] then [c_out_m], never
   the reverse. *)
let send c frame =
  Mutex.lock c.c_out_m;
  if not c.c_out_closed then begin
    Queue.push frame c.c_outbox;
    Condition.signal c.c_out_c
  end;
  Mutex.unlock c.c_out_m

let close_outbox c =
  Mutex.lock c.c_out_m;
  c.c_out_closed <- true;
  Condition.broadcast c.c_out_c;
  Mutex.unlock c.c_out_m

(* All of the functions below suffixed [_locked] require [co.lock]. *)

let alive_conns_locked co = List.filter (fun c -> c.c_alive) co.conns

let push_fallback_locked co p =
  Queue.push p co.fallback;
  Condition.broadcast co.wake

(* Mark a connection dead and put its in-flight job back in line.  The
   actual [close] belongs to the reader thread (which may be blocked in
   [read]); [shutdown] wakes it with EOF.  Idempotent via [c_alive]. *)
let kill_conn_locked co c =
  if c.c_alive then begin
    c.c_alive <- false;
    co.conns <- List.filter (fun x -> x != c) co.conns;
    close_outbox c;
    (try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ());
    match c.c_inflight with
    | None -> ()
    | Some p ->
        c.c_inflight <- None;
        p.p_retries <- p.p_retries + 1;
        if p.p_retries > co.max_retries then begin
          Log.warn (fun m ->
              m "job %d failed on %d workers; degrading to local solve"
                p.p_job.Executor.j_id p.p_retries);
          push_fallback_locked co p
        end
        else begin
          Log.info (fun m ->
              m "worker %d lost; retrying job %d elsewhere" c.c_id
                p.p_job.Executor.j_id);
          Queue.push p co.queue
        end
  end

(* Match idle workers with queued jobs.  Once the run budget tripped (or
   [cancel] was called) remote dispatch stops: workers solve under their
   own budgets and would run the block to completion, whereas the local
   fallback solves under the tripped [monitor] and returns immediately
   with the correct status and frontier. *)
let rec pump_locked co =
  if not (Queue.is_empty co.queue) then
    if co.cancelled || Budget.tripped co.monitor <> None then begin
      Queue.transfer co.queue co.fallback;
      Condition.broadcast co.wake
    end
    else
      match
        List.find_opt
          (fun c ->
            c.c_alive && match c.c_inflight with None -> true | Some _ -> false)
          co.conns
      with
      | None -> ()
      | Some c ->
          let p = Queue.pop co.queue in
          c.c_inflight <- Some p;
          p.p_dispatched_at <- Obs.Clock.elapsed_s co.t0;
          p.p_dispatched_ns <- Obs.Clock.now_ns ();
          Obs.Recorder.emit_ambient
            (Obs.Events.Block_start
               { id = p.p_job.Executor.j_id; size = p.p_job.Executor.j_size });
          (* A failed write surfaces on the writer thread, which kills
             the connection and requeues the job. *)
          send c (Wire.Job p.p_job);
          pump_locked co

(* Drain one connection's outbox onto its socket.  A failed write means
   the peer is gone: kill the connection (requeueing its in-flight job)
   and exit.  After the drain the socket is shut down, which also wakes
   this connection's reader with EOF; the reader joins this thread
   before closing the descriptor, so the fd is never closed while a
   write is in flight. *)
let writer co c () =
  let rec loop () =
    Mutex.lock c.c_out_m;
    let rec next () =
      match Queue.take_opt c.c_outbox with
      | Some f -> Some f
      | None ->
          if c.c_out_closed then None
          else begin
            Condition.wait c.c_out_c c.c_out_m;
            next ()
          end
    in
    let f = next () in
    Mutex.unlock c.c_out_m;
    match f with
    | None -> ()
    | Some f -> (
        match Wire.write_frame c.c_fd f with
        | () -> loop ()
        | exception _ ->
            Mutex.lock co.lock;
            kill_conn_locked co c;
            pump_locked co;
            Condition.broadcast co.wake;
            Mutex.unlock co.lock)
  in
  loop ();
  try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL with _ -> ()

(* One offset sample from a frame that carried the worker's clock.
   Reader-thread only (see [c_offset_ns]); pre-v4 frames stamp [0L]
   and are ignored. *)
let note_clock c ~worker_now_ns =
  if worker_now_ns <> 0L then begin
    let off = Int64.sub (Obs.Clock.now_ns ()) worker_now_ns in
    match c.c_offset_ns with
    | Some prev when Int64.compare prev off <= 0 -> ()
    | Some _ | None -> c.c_offset_ns <- Some off
  end

(* The Chrome-trace process track for a worker: the coordinator itself
   is [Span.self_pid] (1), workers follow. *)
let worker_pid c = 2 + c.c_id

(* Publish a worker's process sample as [proc.worker<N>.*] gauges, so
   [/metrics] and [phylo top] see every process in the pool. *)
let note_proc c = function
  | None -> ()
  | Some sample ->
      Obs.Procstat.set_gauges
        ~prefix:(Printf.sprintf "proc.worker%d" c.c_id)
        sample

(* Re-record a worker's spans into the coordinator's trace buffer, on
   the worker's own process track, with timestamps translated through
   the connection's estimated clock offset. *)
let merge_worker_trace c (t : Wire.remote_trace) =
  match Obs.Span.installed () with
  | None -> ()
  | Some buf ->
      let offset = Option.value ~default:0L c.c_offset_ns in
      if not c.c_named then begin
        c.c_named <- true;
        Obs.Span.set_process_name buf ~pid:(worker_pid c)
          (Printf.sprintf "worker %d" c.c_id)
      end;
      List.iter
        (fun (sp : Wire.span) ->
          let start_ns = Int64.add sp.Wire.sp_start_ns offset in
          Obs.Span.record buf ~cat:"worker" ~args:sp.Wire.sp_args
            ~pid:(worker_pid c) ~tid:0 ~start_ns
            ~stop_ns:(Int64.add start_ns sp.Wire.sp_dur_ns)
            sp.Wire.sp_name)
        t.Wire.rt_spans

let job_span_args ?(extra = []) (job : Executor.job) =
  ("job", Obs.Json.Int job.Executor.j_id)
  :: (match job.Executor.j_trace with
     | Some tr -> [ ("trace", Obs.Json.String tr) ]
     | None -> [])
  @ extra

let handle_result co c job_id solved trace =
  let result_ns = Obs.Clock.now_ns () in
  (match trace with
  | Some (t : Wire.remote_trace) ->
      note_clock c ~worker_now_ns:t.Wire.rt_now_ns;
      note_proc c t.Wire.rt_proc
  | None -> ());
  Mutex.lock co.lock;
  let p_opt =
    match c.c_inflight with
    | Some p when p.p_job.Executor.j_id = job_id ->
        c.c_inflight <- None;
        Some p
    | Some _ | None -> None
  in
  pump_locked co;
  Mutex.unlock co.lock;
  match p_opt with
  | None ->
      (* stale result for a job that was already reassigned: drop it *)
      Log.debug (fun m -> m "dropping stale result for job %d" job_id)
  | Some p ->
      (* Remote expansions never touched the coordinator's monitor while
         they happened; charge them on arrival so a whole-run node cap
         accounts for remote work exactly like local work. *)
      Budget.charge co.monitor solved.Executor.s_stats.Stats.expanded;
      let now = Obs.Clock.elapsed_s co.t0 in
      let solve_s = now -. p.p_dispatched_at in
      (* The coordinator's side of the job: queue wait (submit to
         dispatch) and the whole remote round trip (dispatch to this
         result).  [phylo obs timeline] derives network time as the rpc
         span minus the worker's merged solve span. *)
      (match Obs.Span.installed () with
      | None -> ()
      | Some buf ->
          Obs.Span.record buf ~cat:"executor" ~args:(job_span_args p.p_job)
            ~start_ns:p.p_submitted_ns ~stop_ns:p.p_dispatched_ns "job.queue";
          Obs.Span.record buf ~cat:"executor"
            ~args:
              (job_span_args
                 ~extra:[ ("worker", Obs.Json.Int c.c_id) ]
                 p.p_job)
            ~start_ns:p.p_dispatched_ns ~stop_ns:result_ns "job.rpc");
      (match trace with Some t -> merge_worker_trace c t | None -> ());
      Obs.Recorder.emit_ambient
        (Obs.Events.Block_finish
           {
             id = job_id;
             size = p.p_job.Executor.j_size;
             solve_s;
             status = Budget.status_to_string solved.Executor.s_status;
           });
      fill p
        (Done
           {
             Executor.o_job = job_id;
             o_solved = solved;
             o_queue_wait_s = p.p_dispatched_at;
             o_solve_s = solve_s;
           })

let handle_failure co c job_id message =
  Mutex.lock co.lock;
  let p_opt =
    match c.c_inflight with
    | Some p when p.p_job.Executor.j_id = job_id ->
        c.c_inflight <- None;
        Some p
    | Some _ | None -> None
  in
  pump_locked co;
  Mutex.unlock co.lock;
  match p_opt with
  | None -> ()
  | Some p ->
      (* A solver exception is deterministic — retrying on another worker
         would fail identically, so surface it through the future just
         like a local solve would raise. *)
      Log.err (fun m -> m "job %d failed remotely: %s" job_id message);
      fill p (Failed (Stdlib.Failure message))

let reader co c () =
  let rec loop () =
    match Wire.read_frame c.c_fd with
    | Ok (Wire.Heartbeat { job_id = _; expanded; now_ns; proc }) ->
        note_clock c ~worker_now_ns:now_ns;
        note_proc c proc;
        (* A remote heartbeat carries only the expansion count: NaN
           bounds read as unknown (top prints "-"), where 0 would pass
           for an incumbent. *)
        Obs.Recorder.emit_ambient
          (Obs.Events.Heartbeat
             {
               worker = c.c_id;
               expanded;
               pruned = 0;
               open_nodes = 0;
               ub = Float.nan;
               lb = Float.nan;
             });
        loop ()
    | Ok (Wire.Result { job_id; solved; trace }) ->
        handle_result co c job_id solved trace;
        loop ()
    | Ok (Wire.Failure { job_id; message }) ->
        handle_failure co c job_id message;
        loop ()
    | Ok _ -> loop () (* protocol noise; ignore *)
    | Error _ -> ()
    | exception _ -> ()
  in
  loop ();
  Mutex.lock co.lock;
  kill_conn_locked co c;
  pump_locked co;
  Condition.broadcast co.wake;
  Mutex.unlock co.lock;
  (match c.c_writer with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ());
  (try Unix.close c.c_fd with _ -> ())

let acceptor co () =
  let rec loop () =
    match Unix.accept co.listen_fd with
    | fd, _ -> (
        match Wire.read_frame fd with
        | Ok (Wire.Hello { version }) when version = Wire.version -> (
            Mutex.lock co.lock;
            if co.stopping then begin
              Mutex.unlock co.lock;
              (try Unix.close fd with _ -> ())
            end
            else begin
              let id = co.next_id in
              co.next_id <- id + 1;
              let c =
                {
                  c_id = id;
                  c_fd = fd;
                  c_inflight = None;
                  c_alive = true;
                  c_cancel_sent = false;
                  c_offset_ns = None;
                  c_named = false;
                  c_outbox = Queue.create ();
                  c_out_m = Mutex.create ();
                  c_out_c = Condition.create ();
                  c_out_closed = false;
                  c_writer = None;
                }
              in
              co.conns <- c :: co.conns;
              c.c_writer <- Some (Thread.create (writer co c) ());
              let th = Thread.create (reader co c) () in
              co.threads <- th :: co.threads;
              Log.info (fun m -> m "worker %d connected" id);
              (* The outbox is FIFO, so the Welcome is on the wire
                 before any job [pump_locked] dispatches. *)
              send c (Wire.Welcome { version = Wire.version; worker_id = id });
              pump_locked co;
              Mutex.unlock co.lock;
              loop ()
            end)
        | Ok _ | Error _ ->
            (try Unix.close fd with _ -> ());
            loop ()
        | exception _ ->
            (try Unix.close fd with _ -> ());
            loop ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception _ -> if not co.stopping then loop ()
  in
  loop ()

(* Periodic duties: cancel in-flight work once the run budget trips,
   enforce per-job timeouts, and age worker-less jobs into the local
   fallback so a pool with no (remaining) workers still finishes. *)
let housekeeping co () =
  let rec loop () =
    Thread.delay 0.05;
    Mutex.lock co.lock;
    let stop = co.stopping in
    if not stop then begin
      let now = Obs.Clock.elapsed_s co.t0 in
      if co.cancelled || Budget.tripped co.monitor <> None then
        List.iter
          (fun c ->
            if c.c_alive && not c.c_cancel_sent then begin
              c.c_cancel_sent <- true;
              match c.c_inflight with
              | Some p ->
                  send c (Wire.Cancel { job_id = p.p_job.Executor.j_id })
              | None -> ()
            end)
          co.conns;
      (match co.job_timeout_s with
      | None -> ()
      | Some tmo ->
          List.iter
            (fun c ->
              match c.c_inflight with
              | Some p when now -. p.p_dispatched_at > tmo ->
                  Log.warn (fun m ->
                      m "job %d timed out after %.1fs on worker %d"
                        p.p_job.Executor.j_id tmo c.c_id);
                  kill_conn_locked co c
              | Some _ | None -> ())
            (alive_conns_locked co));
      if alive_conns_locked co = [] && not (Queue.is_empty co.queue) then begin
        let aged =
          Queue.fold
            (fun acc p -> acc || now -. p.p_submitted_at > co.fallback_after_s)
            false co.queue
        in
        if aged then begin
          Log.warn (fun m ->
              m "no workers for %.1fs; degrading %d queued job(s) to local \
                 solves"
                co.fallback_after_s (Queue.length co.queue));
          Queue.transfer co.queue co.fallback;
          Condition.broadcast co.wake
        end
      end;
      pump_locked co
    end;
    Mutex.unlock co.lock;
    if not stop then loop ()
  in
  loop ()

(* Degraded mode: solve in this process, on the calling thread of this
   runner, under the real run monitor — bit-identical to the local
   executor's sequential schedule. *)
let fallback_runner co () =
  let rec loop () =
    Mutex.lock co.lock;
    let rec next () =
      match Queue.take_opt co.fallback with
      | Some p -> Some p
      | None ->
          if co.stopping then None
          else begin
            Condition.wait co.wake co.lock;
            next ()
          end
    in
    let p = next () in
    Mutex.unlock co.lock;
    match p with
    | None -> ()
    | Some p ->
        (match
           Executor.run_job ~monitor:co.monitor ~t0:co.t0 p.p_job
         with
        | o -> fill p (Done o)
        | exception e -> fill p (Failed e));
        loop ()
  in
  loop ()

let submit co job =
  let p =
    {
      p_job = job;
      p_submitted_at = Obs.Clock.elapsed_s co.t0;
      p_submitted_ns = Obs.Clock.now_ns ();
      p_retries = 0;
      p_dispatched_at = 0.;
      p_dispatched_ns = 0L;
      cell_m = Mutex.create ();
      cell_c = Condition.create ();
      cell = Pending;
    }
  in
  Mutex.lock co.lock;
  Queue.push p co.queue;
  pump_locked co;
  Mutex.unlock co.lock;
  { Executor.await = (fun () -> await_pending p) }

let cancel co () =
  Mutex.lock co.lock;
  co.cancelled <- true;
  pump_locked co;
  Condition.broadcast co.wake;
  Mutex.unlock co.lock

let shutdown co () =
  Mutex.lock co.lock;
  if not co.stopping then begin
    co.stopping <- true;
    (* Each writer drains its outbox (so the Shutdown frame goes out
       whole) and then shuts the socket down, waking its reader. *)
    List.iter
      (fun c ->
        if c.c_alive then begin
          send c Wire.Shutdown;
          close_outbox c
        end)
      co.conns;
    (try Unix.shutdown co.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close co.listen_fd with _ -> ());
    Condition.broadcast co.wake
  end;
  let ths = co.threads in
  Mutex.unlock co.lock;
  List.iter (fun th -> try Thread.join th with _ -> ()) ths

let coordinator ?job_timeout_s ?(fallback_after_s = 10.) ?(max_retries = 2)
    ~addr ~monitor () =
  ignore_sigpipe ();
  let host, port = addr_of addr "Net_exec.coordinator" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (resolve host, port));
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let co =
    {
      listen_fd = fd;
      port;
      monitor;
      job_timeout_s;
      fallback_after_s;
      max_retries;
      t0 = Obs.Clock.counter ();
      lock = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
      fallback = Queue.create ();
      conns = [];
      next_id = 0;
      stopping = false;
      cancelled = false;
      threads = [];
    }
  in
  co.threads <-
    [
      Thread.create (acceptor co) ();
      Thread.create (housekeeping co) ();
      Thread.create (fallback_runner co) ();
    ];
  Log.app (fun m -> m "worker pool listening on %s:%d" host port);
  (match !bound_hook with Some f -> f host port | None -> ());
  ( {
      Executor.name = "tcp";
      capacity =
        (* Live workers, queried at call time: workers come and go, so
           the pool's concurrency is a property of the moment. *)
        (fun () ->
          Mutex.lock co.lock;
          let n = List.length (alive_conns_locked co) in
          Mutex.unlock co.lock;
          Int.max 1 n);
      submit = submit co;
      cancel = cancel co;
      shutdown = shutdown co;
    },
    port )

(* --- Worker ------------------------------------------------------ *)

type worker_exit = [ `Shutdown | `Eof | `Died ]

(* Solve one job while keeping the socket responsive: the solve runs in
   its own thread under a per-job budget; this thread multiplexes frame
   reads (Cancel / Shutdown) with periodic heartbeats. *)
let serve_job fd ~heartbeat_every_s ~delay_result_s (job : Executor.job) =
  let cancel = Atomic.make false in
  (* Mirror [Executor.job_monitor]: the same node share polled at the
     same period as the local executor's [Budget.sub] child, so a
     share-capped block trips at the same expansion count wherever it
     runs.  Deadlines and whole-run caps still live with the
     coordinator, which propagates them as [Wire.Cancel]. *)
  let monitor =
    Budget.arm
      (Budget.create ?max_nodes:job.Executor.j_node_share ~cancel
         ~poll_every:job.Executor.j_poll_every ())
  in
  let result = Atomic.make None in
  let solve_start_ns = Obs.Clock.now_ns () in
  let th =
    Thread.create
      (fun () ->
        let r =
          try Ok (Executor.solve_job ~monitor job) with e -> Error e
        in
        Atomic.set result (Some r))
      ()
  in
  let t = Obs.Clock.counter () in
  let next_hb = ref 0. in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
        Thread.join th;
        r
    | None ->
        let readable, _, _ =
          try Unix.select [ fd ] [] [] 0.05 with _ -> ([], [], [])
        in
        if readable <> [] then begin
          match Wire.read_frame fd with
          | Ok (Wire.Cancel _) | Ok Wire.Shutdown -> Atomic.set cancel true
          | Ok _ -> ()
          | Error _ -> Atomic.set cancel true (* coordinator gone *)
          | exception _ -> Atomic.set cancel true
        end;
        let el = Obs.Clock.elapsed_s t in
        if el >= !next_hb then begin
          next_hb := el +. heartbeat_every_s;
          try
            Wire.write_frame fd
              (Wire.Heartbeat
                 {
                   job_id = Some job.Executor.j_id;
                   expanded = Budget.nodes monitor;
                   now_ns = Obs.Clock.now_ns ();
                   proc = Some (Obs.Procstat.sample ());
                 })
          with _ -> ()
        end;
        wait ()
  in
  let r = wait () in
  let solve_stop_ns = Obs.Clock.now_ns () in
  if delay_result_s > 0. then Thread.delay delay_result_s;
  (* The worker's half of the merged timeline: when the job carries a
     trace context, ship the solve span (worker-clock timestamps; the
     coordinator translates them) plus a process sample back with the
     result.  Untraced jobs produce the exact v3 result frame. *)
  let trace_payload solved =
    match job.Executor.j_trace with
    | None -> None
    | Some tr ->
        let sp_args =
          [
            ("job", Obs.Json.Int job.Executor.j_id);
            ("trace", Obs.Json.String tr);
            ("size", Obs.Json.Int job.Executor.j_size);
          ]
          @
          match solved with
          | Some (sv : Executor.solved) ->
              [ ("cached", Obs.Json.Bool sv.Executor.s_from_cache) ]
          | None -> []
        in
        Some
          {
            Wire.rt_spans =
              [
                {
                  Wire.sp_name = "job.solve";
                  sp_start_ns = solve_start_ns;
                  sp_dur_ns = Int64.sub solve_stop_ns solve_start_ns;
                  sp_args;
                };
              ];
            rt_now_ns = Obs.Clock.now_ns ();
            rt_proc = Some (Obs.Procstat.sample ());
          }
  in
  try
    match r with
    | Ok solved ->
        Wire.write_frame fd
          (Wire.Result
             {
               job_id = job.Executor.j_id;
               solved;
               trace = trace_payload (Some solved);
             })
    | Error e ->
        Wire.write_frame fd
          (Wire.Failure
             { job_id = job.Executor.j_id; message = Printexc.to_string e })
  with _ -> ()

let run_worker ?die_after_jobs ?(delay_result_s = 0.)
    ?(heartbeat_every_s = 1.) ~connect () =
  ignore_sigpipe ();
  let host, port = addr_of connect "Net_exec.run_worker" in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (resolve host, port))
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let finish (r : worker_exit) =
    (try Unix.close fd with _ -> ());
    r
  in
  match
    Wire.write_frame fd (Wire.Hello { version = Wire.version });
    Wire.read_frame fd
  with
  | Ok (Wire.Welcome { worker_id; _ }) ->
      Log.info (fun m -> m "connected to %s:%d as worker %d" host port worker_id);
      let jobs = ref 0 in
      let rec loop () =
        match Wire.read_frame fd with
        | Ok (Wire.Job job) -> (
            incr jobs;
            match die_after_jobs with
            | Some n when !jobs >= n ->
                (* Fault injection: drop dead mid-job, without a result
                   or a goodbye — exactly what a SIGKILL looks like from
                   the coordinator's side. *)
                Log.warn (fun m ->
                    m "worker %d dying on purpose (job %d)" worker_id
                      job.Executor.j_id);
                finish `Died
            | Some _ | None ->
                serve_job fd ~heartbeat_every_s ~delay_result_s job;
                loop ())
        | Ok Wire.Shutdown -> finish `Shutdown
        | Ok _ -> loop ()
        | Error _ -> finish `Eof
        | exception _ -> finish `Eof
      in
      loop ()
  | Ok _ | Error _ -> finish `Eof
  | exception e ->
      ignore (finish `Eof);
      raise e
