open Import

let src = Logs.Src.create "compactphy.parbnb" ~doc:"Parallel branch-and-bound"

module Log = (val Logs.src_log src : Logs.LOG)

type outcome = {
  tree : Utree.t;
  cost : float;
  optimal : bool;
  stats : Stats.t;
  n_workers : int;
  worker_stats : Stats.t array;
  report : Obs.Report.t;
  status : Budget.status;
  lower_bound : float;
  certified_gap : float;
  frontier : Bb_tree.node list;
}

type shared = {
  ub : float Atomic.t;
  best : (float * Utree.t) option ref;
  best_lock : Mutex.t;
  pool : Shared_pool.t;
  node_capped : bool Atomic.t;
      (* some worker exhausted its per-worker node share ([Budget.sub]
         child monitor), so the search is incomplete even though the
         whole-run monitor never tripped *)
}

let publish shared cost tree =
  (* Lower the atomic upper bound to [cost] and record the tree.  The CAS
     loop keeps the bound monotone under concurrent updates. *)
  let rec lower () =
    let current = Atomic.get shared.ub in
    if cost < current then
      if not (Atomic.compare_and_set shared.ub current cost) then lower ()
      else begin
        Mutex.lock shared.best_lock;
        (match !(shared.best) with
        | Some (c, _) when c <= cost -> ()
        | Some _ | None -> shared.best := Some (cost, tree));
        Mutex.unlock shared.best_lock;
        Obs.Recorder.emit_ambient (Obs.Events.Incumbent { cost })
      end
  in
  lower ()

(* Attribution mirrors the sequential solver: a prune whose node cost
   already met the (racy, monotone) incumbent snapshot [u] is the
   incumbent's; if its exact bound did, the LB1 suffix supplied the
   margin; otherwise only the gap tolerance closed it. *)
let lb_reason ~cost ~lb ~u =
  if cost >= u then Obs.Attribution.Incumbent
  else if lb >= u then Obs.Attribution.Lb1_suffix
  else Obs.Attribution.Gap_tolerance

let worker problem shared ~monitor ~node_share ~id () =
  let stats = Stats.create () in
  (* A per-worker node share is a [Budget.sub] child of the run monitor:
     it observes the parent's deadline, cancel flag and global cap while
     enforcing its own [max_nodes].  The polling period shrinks to the
     share so tiny caps still trip promptly. *)
  let wmon =
    match node_share with
    | None -> monitor
    | Some cap -> Budget.sub ~max_nodes:cap ~poll_every:(Int.min 32 cap) monitor
  in
  let tk = Budget.ticker wmon in
  let rpulse = Obs.Recorder.pulse () in
  (* The local pool honours the configured exploration strategy; for the
     historical [Dfs] it is exactly the old cons-list stack. *)
  let local = Strategy.Frontier.create problem.Solver.opts.Solver.search in
  let gap = problem.Solver.opts.Solver.gap in
  let gap_scale = 1. +. gap in
  let stopped = ref false in
  let capped = ref false in
  let process (node : Bb_tree.node) =
    let u = Atomic.get shared.ub in
    if node.lb *. gap_scale >= u then begin
      stats.Stats.pruned <- stats.Stats.pruned + 1;
      Obs.Attribution.prune stats.Stats.att
        (lb_reason ~cost:node.Bb_tree.cost ~lb:node.Bb_tree.lb ~u)
        ~depth:node.Bb_tree.k 1
    end
    else if Bb_tree.is_complete problem.Solver.pm node then
      publish shared node.cost node.tree
    else
      match Budget.tick tk with
      | Some _ ->
          (* Budget exhausted: keep the node in hand as part of this
             worker's frontier share.  When only the child tripped (the
             whole-run monitor is clean), it was this worker's own node
             share — the siblings keep going, so the surplus is donated
             rather than the pool closed. *)
          if node_share <> None && Budget.tripped monitor = None then
            capped := true
          else stopped := true;
          Obs.Attribution.prune stats.Stats.att Budget_stop
            ~depth:node.Bb_tree.k 1;
          Strategy.Frontier.push local node
      | None -> begin
          (* A racy snapshot of the shared incumbent is safe here: the
             kernel's pre-pruning is conservative for any ub >= the true
             incumbent, and the per-child checks below re-filter exactly.
             The gap divide turns the snapshot into the effective
             tolerance bound (an exact no-op when gap = 0). *)
          let children =
            Solver.expand
              ~ub:(Atomic.get shared.ub /. gap_scale)
              problem node stats
          in
          List.iter
            (fun (c : Bb_tree.node) ->
              if Bb_tree.is_complete problem.Solver.pm c then begin
                if c.cost < Atomic.get shared.ub then
                  publish shared c.cost c.tree
              end
              else
                let u = Atomic.get shared.ub in
                if c.lb *. gap_scale < u then Strategy.Frontier.push local c
                else begin
                  stats.Stats.pruned <- stats.Stats.pruned + 1;
                  Obs.Attribution.prune stats.Stats.att
                    (lb_reason ~cost:c.Bb_tree.cost ~lb:c.Bb_tree.lb ~u)
                    ~depth:c.Bb_tree.k 1
                end)
            (List.rev children);
          let olen = Strategy.Frontier.length local in
          stats.Stats.max_open <- Int.max stats.Stats.max_open olen;
          ignore
            (Obs.Recorder.sample rpulse ~worker:id
               ~expanded:stats.Stats.expanded ~pruned:stats.Stats.pruned
               ~open_nodes:olen ~ub:(Atomic.get shared.ub)
               ~lb:node.Bb_tree.lb)
        end
  in
  let rec run () =
    if !stopped then
      (* Release every parked worker; queued pool nodes stay for the
         frontier drain, the local queue is returned to the caller. *)
      Shared_pool.close shared.pool
    else if !capped then begin
      (* Own node share exhausted: return surplus work so other workers
         can finish it; flag the run as capped since this worker
         abandoned its own. *)
      Atomic.set shared.node_capped true;
      List.iter (Shared_pool.donate shared.pool)
        (Strategy.Frontier.drain local);
      Shared_pool.retire shared.pool
    end
    else
      match Strategy.Frontier.pop local with
      | Some node ->
          (* Two-level load balancing: when the global pool is dry and we
             still have queued work, donate our worst-lower-bound node. *)
          (if Shared_pool.is_empty shared.pool then
             match Strategy.Frontier.take_worst local with
             | Some worst -> Shared_pool.donate shared.pool worst
             | None -> ());
          process node;
          run ()
      | None -> (
          match Shared_pool.take shared.pool with
          | Some node ->
              process node;
              run ()
          | None -> ())
  in
  run ();
  Budget.flush tk;
  (stats, Strategy.Frontier.drain local)

let solve ?(options = Solver.default_options) ?budget ?monitor ?resume
    ?n_workers dm =
  let n_workers =
    match n_workers with
    | Some p ->
        if p < 1 then invalid_arg "Par_bnb.solve: n_workers < 1";
        p
    | None -> Int.max 1 (Domain.recommended_domain_count () - 1)
  in
  let monitor =
    match (monitor, budget) with
    | Some m, _ -> m
    | None, Some b -> Budget.arm b
    | None, None -> Budget.arm Budget.unlimited
  in
  let n = Dist_matrix.size dm in
  if n <= 2 then begin
    let r = Solver.solve ~options ~monitor ?resume dm in
    let report = Obs.Report.create "par_bnb" in
    Obs.Report.set report "n" (Obs.Json.Int n);
    Obs.Report.set report "status" (Budget.status_to_json r.Solver.status);
    Obs.Report.set report "lower_bound" (Obs.Json.Float r.Solver.lower_bound);
    Obs.Report.set report "certified_gap"
      (Obs.Json.Float r.Solver.certified_gap);
    {
      tree = r.Solver.tree;
      cost = r.Solver.cost;
      optimal = r.Solver.optimal;
      stats = r.Solver.stats;
      n_workers;
      worker_stats = [| r.Solver.stats |];
      report;
      status = r.Solver.status;
      lower_bound = r.Solver.lower_bound;
      certified_gap = r.Solver.certified_gap;
      frontier = r.Solver.frontier;
    }
  end
  else
    Obs.Span.with_span "parbnb.solve"
      ~args:[ ("n", Obs.Json.Int n); ("workers", Obs.Json.Int n_workers) ]
      @@ fun () ->
    let t_start = Obs.Clock.counter () in
    let report = Obs.Report.create "par_bnb" in
    Obs.Report.set report "n" (Obs.Json.Int n);
    Obs.Report.set report "n_workers" (Obs.Json.Int n_workers);
    let problem = Solver.prepare ~options dm in
    let stats = Stats.create () in
    let start_nodes, ub_init, incumbent = Solver.start problem resume in
    let best_init = Option.map (fun t -> (ub_init, t)) incumbent in
    let shared =
      {
        ub = Atomic.make ub_init;
        best = ref best_init;
        best_lock = Mutex.create ();
        pool =
          Shared_pool.create
            ~ordered:(options.Solver.search <> Solver.Dfs)
            ~n_workers ();
        node_capped = Atomic.make false;
      }
    in
    (* Master phase: breadth-first expansion until the frontier can feed
       every worker twice over (paper's Step 5). *)
    let target = 2 * n_workers in
    let gap_scale = 1. +. options.Solver.gap in
    let mtk = Budget.ticker monitor in
    let rec widen frontier =
      let expandable, complete =
        List.partition
          (fun (nd : Bb_tree.node) ->
            not (Bb_tree.is_complete problem.Solver.pm nd))
          frontier
      in
      List.iter
        (fun (nd : Bb_tree.node) ->
          if nd.Bb_tree.cost < Atomic.get shared.ub then
            publish shared nd.cost nd.tree)
        complete;
      match expandable with
      | [] -> []
      | _ when List.length expandable >= target -> expandable
      | nd :: rest ->
          let u = Atomic.get shared.ub in
          if nd.Bb_tree.lb *. gap_scale >= u then begin
            stats.Stats.pruned <- stats.Stats.pruned + 1;
            Obs.Attribution.prune stats.Stats.att
              (lb_reason ~cost:nd.Bb_tree.cost ~lb:nd.Bb_tree.lb ~u)
              ~depth:nd.Bb_tree.k 1;
            widen rest
          end
          else begin
            match Budget.tick mtk with
            | Some _ ->
                (* Budget already exhausted: stop seeding; the workers
                   will observe the trip and preserve the frontier. *)
                expandable
            | None ->
                (* No [~ub]: the seeding phase must hand every worker real
                   work, pruned-or-not, so worker-count scaling behaves the
                   same as the reference path. *)
                widen (rest @ Solver.expand problem nd stats)
          end
    in
    let seedwork, seed_s =
      Obs.Clock.time (fun () ->
          match Budget.check monitor with
          | Some _ -> start_nodes
          | None -> widen start_nodes)
    in
    Budget.flush mtk;
    Obs.Report.add_phase report "seed" seed_s
      ~meta:[ ("frontier", Obs.Json.Int (List.length seedwork)) ];
    Log.debug (fun m ->
        m "seeding %d workers with %d nodes (initial UB %g)" n_workers
          (List.length seedwork) problem.Solver.ub0);
    Shared_pool.seed shared.pool seedwork;
    let t_search = Obs.Clock.counter () in
    let domains =
      List.init n_workers (fun id ->
          Domain.spawn
            (worker problem shared ~monitor
               ~node_share:options.Solver.max_expanded ~id))
    in
    let results = List.map Domain.join domains in
    let worker_stats = Array.of_list (List.map fst results) in
    Obs.Report.add_phase report "search" (Obs.Clock.elapsed_s t_search);
    Array.iteri
      (fun id ws ->
        Stats.add stats ws;
        Obs.Report.add_worker report
          (("worker", Obs.Json.Int id) :: [ ("stats", Stats.to_json ws) ]))
      worker_stats;
    let frontier =
      List.concat_map snd results @ Shared_pool.drain shared.pool
    in
    let status =
      match Budget.tripped monitor with
      | Some s -> s
      | None ->
          if Atomic.get shared.node_capped then Budget.Node_cap
          else Budget.Exact
    in
    let cost, tree =
      match !(shared.best) with
      | Some (c, t) -> (c, Solver.relabel_out problem t)
      | None ->
          (* No heuristic and the cap aborted everything before any
             complete tree was built: fall back like the sequential
             solver does. *)
          let fallback = Clustering.Linkage.upgmm dm in
          (Utree.weight fallback, fallback)
    in
    let lower_bound =
      (* Every pruned node's bound was >= incumbent / (1 + gap), so the
         incumbent scaled down by the tolerance bounds the whole space;
         open frontier nodes can certify less. *)
      List.fold_left
        (fun acc (nd : Bb_tree.node) -> Float.min acc nd.Bb_tree.lb)
        (cost /. gap_scale) frontier
    in
    let certified_gap =
      Solver.certify ~gap:options.Solver.gap
        ~exhausted:(frontier = [])
        ~cost ~lower_bound
    in
    Obs.Report.set report "stats" (Stats.to_json stats);
    Obs.Report.set report "attribution"
      (Obs.Attribution.cells_to_json stats.Stats.att);
    Obs.Report.set report "status" (Budget.status_to_json status);
    Obs.Report.set report "lower_bound" (Obs.Json.Float lower_bound);
    Obs.Report.set report "certified_gap" (Obs.Json.Float certified_gap);
    (* The merged per-worker stats feed the [bnb.*] metrics once per
       parallel solve (the n <= 2 fast path above went through
       Solver.solve, which records its own). *)
    Solver.record_metrics stats (Obs.Clock.elapsed_s t_start);
    {
      tree;
      cost;
      optimal =
        (not (Atomic.get shared.node_capped))
        && status = Budget.Exact
        && options.Solver.gap = 0.;
      stats;
      n_workers;
      worker_stats;
      report;
      status;
      lower_bound;
      certified_gap;
      frontier;
    }
