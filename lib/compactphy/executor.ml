open Import

let src = Logs.Src.create "compactphy.executor" ~doc:"Block-solve executors"

module Log = (val Logs.src_log src : Logs.LOG)

type kind = Local | Sim | Tcp

let kind_names = [ ("local", Local); ("sim", Sim); ("tcp", Tcp) ]

(* "HOST:PORT" (or a bare port) for the TCP pool.  Unlike
   [Obs.Serve.target_of_string] this accepts port 0 — bind-time
   ephemeral ports are how tests and CI avoid picking a fixed port —
   and never a Unix socket path (remote workers need TCP). *)
let parse_addr s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some p when p >= 0 && p < 65536 -> Ok (host, p)
      | Some _ | None -> Error (Printf.sprintf "bad port in %S" s))
  | None -> (
      match int_of_string_opt s with
      | Some p when p >= 0 && p < 65536 -> Ok ("127.0.0.1", p)
      | Some _ | None ->
          Error (Printf.sprintf "cannot parse %S (want HOST:PORT)" s))

type job = {
  j_id : int;
  j_size : int;
  j_matrix : Dist_matrix.t;
  j_options : Solver.options;
  j_workers : int;
  j_node_share : int option;
  j_poll_every : int;
  j_resume : [ `Solved of Utree.t | `Restart of Solver.resume ] option;
  j_cache : bool;
  j_trace : string option;
}

type solved = {
  s_stats : Stats.t;
  s_tree : Utree.t;
  s_status : Budget.status;
  s_lb : float;
  s_gap : float;
  s_optimal : bool;
  s_frontier : Utree.t list;
  s_from_cache : bool;
}

type outcome = {
  o_job : int;
  o_solved : solved;
  o_queue_wait_s : float;
  o_solve_s : float;
}

type future = { await : unit -> outcome }

type t = {
  name : string;
  capacity : unit -> int;
  submit : job -> future;
  cancel : unit -> unit;
  shutdown : unit -> unit;
}

let trivially_solved tree =
  {
    s_stats = Stats.create ();
    s_tree = tree;
    s_status = Budget.Exact;
    s_lb = Utree.weight tree;
    s_gap = 0.;
    s_optimal = true;
    s_frontier = [];
    s_from_cache = false;
  }

(* --- content-addressed sub-solve cache hook ---

   The cache itself (Subsolve_cache) sits above this module — it needs
   the wire codecs, which are written against this module's job type —
   so the solve core reaches it through an installed hook.  The gating
   lives here, in one place:
   only jobs that opted in ([j_cache]), with no resume state, over a
   non-trivial matrix, consult the hook; only certified ([Exact])
   results that did not themselves come from the cache are offered
   back.  A hook failure is logged and treated as a miss/no-op — the
   cache is an accelerator, never a point of failure. *)

type cache_hook = {
  c_lookup : job -> solved option;
  c_store : job -> solved -> unit;
}

let cache_hook : cache_hook option Atomic.t = Atomic.make None
let set_cache_hook h = Atomic.set cache_hook h

let cacheable job =
  job.j_cache && job.j_resume = None && Dist_matrix.size job.j_matrix >= 2

let cache_lookup job =
  if not (cacheable job) then None
  else
    match Atomic.get cache_hook with
    | None -> None
    | Some h -> (
        try h.c_lookup job
        with e ->
          Log.warn (fun m ->
              m "cache lookup failed for block %d: %s" job.j_id
                (Printexc.to_string e));
          None)

let cache_store job sv =
  if cacheable job && sv.s_status = Budget.Exact && not sv.s_from_cache then
    match Atomic.get cache_hook with
    | None -> ()
    | Some h -> (
        try h.c_store job sv
        with e ->
          Log.warn (fun m ->
              m "cache store failed for block %d: %s" job.j_id
                (Printexc.to_string e)))

(* Map a solver frontier (permuted labels) back to the matrix's own
   species labels, so a [solved] value is pure data: everything needed
   to checkpoint or resume the block without the solver's internal
   permutation, and therefore safe to ship across a process boundary. *)
let frontier_out matrix = function
  | [] -> []
  | frontier ->
      let p = Permutation.to_array (Permutation.maxmin matrix) in
      List.map
        (fun (nd : Bb_tree.node) -> Utree.relabel (fun r -> p.(r)) nd.tree)
        frontier

(* The search itself: the sequential solver, or the domain-parallel one
   when the job's intra-solve budget allows — or, for the sim backend,
   the master/slave cluster simulator on a [j_workers]-slave cluster. *)
let search ~sim ~monitor ?resume job =
  let small = job.j_matrix in
  let options = job.j_options in
  if sim then begin
    if resume <> None then
      Log.info (fun m ->
          m "sim backend cannot resume a frontier; re-solving block %d"
            job.j_id);
    (* The simulator always runs a block to its optimum (it has no
       budget hooks and no frontier); the monitor is charged with the
       simulated expansions on completion, the same coarse accounting
       the TCP executor uses for remote work. *)
    let platform = Platform.cluster (Int.max 1 job.j_workers) in
    let r = Dist_bnb.run ~options platform small in
    Budget.charge monitor r.Dist_bnb.expansions;
    {
      s_stats = r.Dist_bnb.stats;
      s_tree = r.Dist_bnb.tree;
      s_status = Budget.Exact;
      s_lb = r.Dist_bnb.cost;
      s_gap = 0.;
      s_optimal = true;
      s_frontier = [];
      s_from_cache = false;
    }
  end
  else if job.j_workers <= 1 then begin
    let r = Solver.solve ~options ~monitor ?resume small in
    {
      s_stats = r.Solver.stats;
      s_tree = r.Solver.tree;
      s_status = r.Solver.status;
      s_lb = r.Solver.lower_bound;
      s_gap = r.Solver.certified_gap;
      s_optimal = r.Solver.optimal;
      s_frontier = frontier_out small r.Solver.frontier;
      s_from_cache = false;
    }
  end
  else begin
    let r =
      Par_bnb.solve ~options ~monitor ?resume
        ~n_workers:job.j_workers small
    in
    {
      s_stats = r.Par_bnb.stats;
      s_tree = r.Par_bnb.tree;
      s_status = r.Par_bnb.status;
      s_lb = r.Par_bnb.lower_bound;
      s_gap = r.Par_bnb.certified_gap;
      s_optimal = r.Par_bnb.optimal;
      s_frontier = frontier_out small r.Par_bnb.frontier;
      s_from_cache = false;
    }
  end

(* The one solve every executor shares.  A resumed-and-finished block
   skips the search entirely; an interrupted one continues from its
   frontier.  Cache-opted jobs consult the installed sub-solve cache
   first and offer their certified result back afterwards. *)
let solve ~sim ~monitor job =
  match cache_lookup job with
  | Some sv -> sv
  | None -> (
      match job.j_resume with
      | Some (`Solved tree) -> trivially_solved tree
      | (None | Some (`Restart _)) as rs ->
          if Dist_matrix.size job.j_matrix = 1 then
            trivially_solved (Utree.leaf 0)
          else begin
            let resume =
              match rs with Some (`Restart r) -> Some r | _ -> None
            in
            let sv = search ~sim ~monitor ?resume job in
            cache_store job sv;
            sv
          end)

let solve_job ~monitor job = solve ~sim:false ~monitor job

let job_monitor ~monitor job =
  (* A job with its own node share solves under a child monitor, so
     exhausting one block's share never stops its siblings; deadline and
     cancellation still propagate from the parent. *)
  match job.j_node_share with
  | None -> monitor
  | Some cap -> Budget.sub ~max_nodes:cap ~poll_every:job.j_poll_every monitor

(* The args every job span carries, so [phylo obs timeline] can group
   spans by job and correlate them with the run/request trace id. *)
let span_args ?(extra = []) job =
  ("job", Obs.Json.Int job.j_id)
  :: (match job.j_trace with
     | Some tr -> [ ("trace", Obs.Json.String tr) ]
     | None -> [])
  @ extra

(* Run one job in the calling domain/thread: block events, queue-wait
   from the executor's epoch counter, and the solve timing — the shape
   every in-process execution path (local, and the net executor's
   degraded fallback) shares.  With tracing on, each job leaves a
   [job.queue] and a [job.solve] span tagged with its job id (and trace
   id when the run minted one); with tracing off the extra work is one
   atomic load. *)
let run ~sim ~monitor ~t0 job =
  let queue_wait_s = Obs.Clock.elapsed_s t0 in
  let bmon = job_monitor ~monitor job in
  Obs.Recorder.emit_ambient
    (Obs.Events.Block_start { id = job.j_id; size = job.j_size });
  let solve_start_ns = Obs.Clock.now_ns () in
  let sv, solve_s =
    Obs.Clock.time (fun () -> solve ~sim ~monitor:bmon job)
  in
  (match Obs.Span.installed () with
  | None -> ()
  | Some buf ->
      let queue_ns = Int64.of_float (queue_wait_s *. 1e9) in
      Obs.Span.record buf ~cat:"executor" ~args:(span_args job)
        ~start_ns:(Int64.sub solve_start_ns queue_ns)
        ~stop_ns:solve_start_ns "job.queue";
      Obs.Span.record buf ~cat:"executor"
        ~args:
          (span_args
             ~extra:
               [
                 ("size", Obs.Json.Int job.j_size);
                 ("cached", Obs.Json.Bool sv.s_from_cache);
               ]
             job)
        ~start_ns:solve_start_ns ~stop_ns:(Obs.Clock.now_ns ()) "job.solve");
  Obs.Recorder.emit_ambient
    (Obs.Events.Block_finish
       {
         id = job.j_id;
         size = job.j_size;
         solve_s;
         status = Budget.status_to_string sv.s_status;
       });
  { o_job = job.j_id; o_solved = sv; o_queue_wait_s = queue_wait_s; o_solve_s = solve_s }

let run_job ~monitor ~t0 job = run ~sim:false ~monitor ~t0 job

(* --- In-process backends: the calling domain, or a Domain_pool --- *)

let in_process ~name ~sim ~capacity ~monitor () =
  let capacity = Int.max 1 capacity in
  let t0 = Obs.Clock.counter () in
  let run_job job = run ~sim ~monitor ~t0 job in
  if capacity = 1 then
    (* Jobs run eagerly at submission, in submission order — exactly the
       sequential schedule, with no domain spawned. *)
    {
      name;
      capacity = (fun () -> capacity);
      submit =
        (fun job ->
          let o = run_job job in
          { await = (fun () -> o) });
      cancel = ignore;
      shutdown = ignore;
    }
  else begin
    let pool = Domain_pool.create ~n_workers:capacity in
    {
      name;
      capacity = (fun () -> capacity);
      submit =
        (fun job ->
          let fut = Domain_pool.submit pool (fun () -> run_job job) in
          { await = (fun () -> Domain_pool.await fut) });
      cancel = (fun () -> Domain_pool.cancel pool);
      shutdown = (fun () -> Domain_pool.shutdown pool);
    }
  end

let local ~capacity ~monitor () =
  in_process ~name:"local" ~sim:false ~capacity ~monitor ()

(* The discrete-event simulator is single-threaded, so the sim backend
   runs its jobs eagerly, in submission order. *)
let sim ~monitor = in_process ~name:"sim" ~sim:true ~capacity:1 ~monitor ()
