open Import

let src = Logs.Src.create "compactphy.pipeline" ~doc:"Compact-set pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* Process-wide pipeline metrics (Obs.Metrics.default). *)
module M = struct
  let runs = Obs.Metrics.counter "pipeline.runs"
  let block_size = Obs.Metrics.histogram "pipeline.block_size"
  let blocks_per_run = Obs.Metrics.histogram "pipeline.blocks_per_run"
  let queue_wait = Obs.Metrics.histogram "pipeline.block_queue_wait_s"
  let certified_gap = Obs.Metrics.gauge "pipeline.certified_gap"
end

type run = {
  tree : Utree.t;
  cost : float;
  elapsed_s : float;
  stats : Stats.t;
  n_blocks : int;
  largest_block : int;
  optimal : bool;
  report : Obs.Report.t;
  status : Budget.status;
  lower_bound : float;
  certified_gap : float;
  checkpoint : Checkpoint.t option;
}

let strategy_json (options : Solver.options) =
  Obs.Json.Obj
    [
      ("exploration", Obs.Json.enum Strategy.exploration_names options.search);
      ("branching", Obs.Json.enum Strategy.branching_names options.branching);
      ("gap", Obs.Json.Float options.Solver.gap);
    ]

let finish_report report ~options ~elapsed_s ~cost ~n_blocks ~largest_block
    ~status ~lower_bound ~certified_gap stats =
  Obs.Metrics.incr M.runs;
  Obs.Metrics.observe M.blocks_per_run (float_of_int n_blocks);
  Obs.Metrics.set M.certified_gap certified_gap;
  Obs.Report.set report "elapsed_s" (Obs.Json.Float elapsed_s);
  Obs.Report.set report "cost" (Obs.Json.Float cost);
  Obs.Report.set report "n_blocks" (Obs.Json.Int n_blocks);
  Obs.Report.set report "largest_block" (Obs.Json.Int largest_block);
  Obs.Report.set report "stats" (Stats.to_json stats);
  Obs.Report.set report "attribution"
    (Obs.Attribution.cells_to_json stats.Stats.att);
  Obs.Report.set report "status" (Budget.status_to_json status);
  Obs.Report.set report "lower_bound" (Obs.Json.Float lower_bound);
  Obs.Report.set report "strategy" (strategy_json options);
  Obs.Report.set report "certified_gap" (Obs.Json.Float certified_gap)

(* Validate a user-supplied checkpoint against the matrix it claims to
   continue. *)
let checked_resume ~who ~matrix = function
  | None -> None
  | Some ck -> (
      match Checkpoint.verify ck matrix with
      | Ok () -> Some ck
      | Error e -> invalid_arg (Printf.sprintf "%s: %s" who e))

(* Oversubscribing domains past the hardware only adds minor-GC
   synchronisation (every domain must join each collection), so the
   pool never uses more domains than the host recommends — a request
   for more is a portable "as parallel as this machine allows". *)
let effective_block_workers block_workers =
  Int.min block_workers (Int.max 1 (Domain.recommended_domain_count ()))

(* The backend the configuration selects for solves — both entry
   points route every job through it.  [Local] is the default and
   bit-identical to the historical in-process pipeline; [Sim] is the
   discrete-event cluster; [Tcp] a real worker pool. *)
let executor_for ~(config : Run_config.t) ~monitor ~n_jobs =
  match config.Run_config.executor with
  | Executor.Local ->
      let capacity =
        Int.min
          (effective_block_workers config.Run_config.block_workers)
          (Int.max 1 n_jobs)
      in
      Executor.local ~capacity ~monitor ()
  | Executor.Sim -> Executor.sim ~monitor
  | Executor.Tcp ->
      let addr =
        (* validate guarantees the address is present and parseable *)
        Option.value ~default:"127.0.0.1:0" config.Run_config.workers_addr
      in
      fst (Net_exec.coordinator ~addr ~monitor ())

(* Install (and share) the content-addressed sub-solve cache the
   configuration selects.  Jobs opt in per-run via [j_cache], so
   installing for one run never changes the behaviour of a concurrent
   or later run without [cache_dir]. *)
let cache_setup (config : Run_config.t) =
  match config.Run_config.cache_dir with
  | None -> false
  | Some dir ->
      Subsolve_cache.install
        (Subsolve_cache.get_or_create ~dir
           ?max_bytes:config.Run_config.cache_max_bytes ());
      true

(* The per-run cache provenance a manifest records: how many of this
   run's block solves were replayed from the cache. *)
let cache_json ~enabled ~hits ~total =
  Obs.Json.Obj
    [
      ("enabled", Obs.Json.Bool enabled);
      ("block_hits", Obs.Json.Int hits);
      ("block_misses", Obs.Json.Int (total - hits));
      ( "hit_rate",
        Obs.Json.Float
          (if total = 0 then 0. else float_of_int hits /. float_of_int total)
      );
    ]

let exact ?(config = Run_config.default) ?resume dm =
  let config = Run_config.validate ~who:"Pipeline.exact" config in
  let options = config.Run_config.solver in
  let workers = config.Run_config.workers in
  let resume_ck = checked_resume ~who:"Pipeline.exact" ~matrix:dm resume in
  Obs.Span.with_span "pipeline.exact"
    ~args:[ ("n", Obs.Json.Int (Dist_matrix.size dm)) ]
  @@ fun () ->
  let report = Obs.Report.create "pipeline.exact" in
  Obs.Report.set report "n" (Obs.Json.Int (Dist_matrix.size dm));
  Obs.Report.set report "config" (Run_config.to_json config);
  let use_cache = cache_setup config in
  let monitor = Budget.arm (Run_config.budget config) in
  let block_resume =
    Option.bind resume_ck (fun ck ->
        Option.map
          (Checkpoint.resume_of_block ~matrix:dm)
          (Checkpoint.find_block ck 0))
  in
  let stats = Stats.create () in
  let n = Dist_matrix.size dm in
  Obs.Recorder.emit_ambient (Obs.Events.Run_start { n; n_blocks = 1 });
  (* An exact solve is one job through the executor the configuration
     selects, so block events, node-share handling and timing come from
     the shared execution core exactly as a pipeline block's would —
     and [--executor sim|tcp] applies to this entry point too. *)
  let job =
    {
      Executor.j_id = 0;
      j_size = n;
      j_matrix = dm;
      j_options = options;
      j_workers = workers;
      j_node_share = None;
      j_poll_every = Budget.poll_every (Budget.spec monitor);
      j_resume = block_resume;
      j_cache = use_cache;
      j_trace = config.Run_config.run_id;
    }
  in
  let exec = executor_for ~config ~monitor ~n_jobs:1 in
  let o, elapsed_s =
    Obs.Clock.time (fun () ->
        Obs.Report.timed_phase report "solve" (fun () ->
            Fun.protect
              ~finally:(fun () -> exec.Executor.shutdown ())
              (fun () -> (exec.Executor.submit job).Executor.await ())))
  in
  let sv = o.Executor.o_solved in
  Stats.add stats sv.Executor.s_stats;
  if n > 1 then begin
    Obs.Metrics.observe M.block_size (float_of_int n);
    Obs.Report.add_worker report
      [
        ("block", Obs.Json.Int 0);
        ("block_size", Obs.Json.Int n);
        ("solve_s", Obs.Json.Float o.Executor.o_solve_s);
        ("stats", Stats.to_json sv.Executor.s_stats);
        ("status", Budget.status_to_json sv.Executor.s_status);
        ("cached", Obs.Json.Bool sv.Executor.s_from_cache);
      ]
  end;
  Obs.Report.set report "cache"
    (cache_json ~enabled:use_cache
       ~hits:(if sv.Executor.s_from_cache then 1 else 0)
       ~total:1);
  let tree = sv.Executor.s_tree in
  let cost = Utree.weight tree in
  let largest_block = n in
  let checkpoint =
    if sv.Executor.s_status = Budget.Exact then None
    else
      Some
        (Checkpoint.make ~matrix:dm ~status:sv.Executor.s_status ~cost
           ~lower_bound:sv.Executor.s_lb
           ~blocks:
             [
               {
                 Checkpoint.b_id = 0;
                 b_solved = false;
                 b_tree = Some tree;
                 b_frontier = sv.Executor.s_frontier;
               };
             ])
  in
  finish_report report ~options ~elapsed_s ~cost ~n_blocks:1 ~largest_block
    ~status:sv.Executor.s_status ~lower_bound:sv.Executor.s_lb
    ~certified_gap:sv.Executor.s_gap stats;
  {
    tree;
    cost;
    elapsed_s;
    stats;
    n_blocks = 1;
    largest_block;
    optimal = sv.Executor.s_optimal;
    report;
    status = sv.Executor.s_status;
    lower_bound = sv.Executor.s_lb;
    certified_gap = sv.Executor.s_gap;
    checkpoint;
  }

(* --- inter-block scheduling --- *)

(* One block of the decomposition with its deterministic id: 0 is the
   virtual root, then the [set_blocks] in [Decompose] order (a pre-order
   walk of the laminar forest).  Everything downstream — stats merge,
   manifest worker entries, the graft — keys on this id, never on the
   order tasks finished in. *)
type slot = {
  id : int;
  node : Laminar.tree option;  (* [None] for the virtual root *)
  block : Decompose.block;
  size : int;  (* number of children = species of the small matrix *)
}

type block_result = {
  slot : slot;
  queue_wait_s : float;  (* executor start -> this job began *)
  solve_s : float;
  b_stats : Stats.t;
  b_tree : Utree.t;
  b_optimal : bool;
  b_status : Budget.status;
  b_lb : float;
  b_frontier : Utree.t list;  (* block-local labels, as checkpoints *)
  b_cached : bool;  (* replayed from the sub-solve cache *)
}

let slots_of (deco : Decompose.t) =
  let mk id node (block : Decompose.block) =
    { id; node; block; size = List.length block.Decompose.children }
  in
  mk 0 None deco.Decompose.root_block
  :: List.mapi
       (fun i (node, block) -> mk (i + 1) (Some node) block)
       deco.Decompose.set_blocks

(* Largest-block-first: the longest solve starts first, so it overlaps
   with everything else and bounds the makespan.  Ties break on the
   deterministic id. *)
let schedule slots =
  let a = Array.of_list (List.filter (fun s -> s.size >= 2) slots) in
  Array.sort
    (fun a b ->
      match compare b.size a.size with 0 -> compare a.id b.id | c -> c)
    a;
  a

(* Split a whole-run node cap into per-block shares, proportional to
   the same 3^k work proxy {!plan_workers} uses; every solvable block
   keeps at least one node so it can record a heuristic incumbent.  The
   parent monitor still enforces the global cap exactly — the shares
   only decide which blocks are starved first. *)
let plan_node_shares ~max_nodes todo =
  let weight slot = 3. ** float_of_int slot.size in
  let total = Array.fold_left (fun acc s -> acc +. weight s) 0. todo in
  Array.map
    (fun s ->
      Int.max 1 (int_of_float (float_of_int max_nodes *. weight s /. total)))
    todo

let solve_slots ~config ~monitor ~resume_for slots =
  let options = config.Run_config.solver in
  let workers = config.Run_config.workers in
  let use_cache = config.Run_config.cache_dir <> None in
  let todo = schedule slots in
  let shares =
    match Budget.max_nodes (Budget.spec monitor) with
    | None -> Array.map (fun _ -> None) todo
    | Some cap -> Array.map (fun s -> Some s) (plan_node_shares ~max_nodes:cap todo)
  in
  let poll_every = Budget.poll_every (Budget.spec monitor) in
  let exec = executor_for ~config ~monitor ~n_jobs:(Array.length todo) in
  Log.debug (fun m ->
      m "solving %d blocks on the %s executor (capacity %d)"
        (Array.length todo) exec.Executor.name
        (exec.Executor.capacity ()));
  (* Submit largest-first (the schedule order), await in the same order;
     a job failure surfaces on await after the executor is shut down
     cleanly. *)
  let outcomes =
    Fun.protect
      ~finally:(fun () -> exec.Executor.shutdown ())
      (fun () ->
        let futures =
          Array.mapi
            (fun i slot ->
              ( slot,
                exec.Executor.submit
                  {
                    Executor.j_id = slot.id;
                    j_size = slot.size;
                    j_matrix = slot.block.Decompose.small;
                    j_options = options;
                    j_workers = workers;
                    j_node_share = shares.(i);
                    j_poll_every = poll_every;
                    j_resume = resume_for slot;
                    j_cache = use_cache;
                    j_trace = config.Run_config.run_id;
                  } ))
            todo
        in
        Array.map (fun (slot, fut) -> (slot, fut.Executor.await ())) futures)
  in
  let results =
    Array.map
      (fun (slot, (o : Executor.outcome)) ->
        let sv = o.Executor.o_solved in
        {
          slot;
          queue_wait_s = o.Executor.o_queue_wait_s;
          solve_s = o.Executor.o_solve_s;
          b_stats = sv.Executor.s_stats;
          b_tree = sv.Executor.s_tree;
          b_optimal = sv.Executor.s_optimal;
          b_status = sv.Executor.s_status;
          b_lb = sv.Executor.s_lb;
          b_frontier = sv.Executor.s_frontier;
          b_cached = sv.Executor.s_from_cache;
        })
      outcomes
  in
  Array.sort (fun a b -> compare a.slot.id b.slot.id) results;
  results

(* Deterministic merge: iterate results in block-id order, whatever
   order the pool finished them in, so the summed stats and the
   manifest's workers array are identical for every [block_workers]. *)
let merge_results ~report ~stats ~optimal results =
  Array.iter
    (fun r ->
      Stats.add stats r.b_stats;
      if not r.b_optimal then optimal := false;
      Obs.Metrics.observe M.block_size (float_of_int r.slot.size);
      Obs.Metrics.observe M.queue_wait r.queue_wait_s;
      Obs.Report.add_worker report
        [
          ("block", Obs.Json.Int r.slot.id);
          ("block_size", Obs.Json.Int r.slot.size);
          ("queue_wait_s", Obs.Json.Float r.queue_wait_s);
          ("solve_s", Obs.Json.Float r.solve_s);
          ("stats", Stats.to_json r.b_stats);
          ("status", Budget.status_to_json r.b_status);
          ("cached", Obs.Json.Bool r.b_cached);
        ])
    results

(* Graft the solved small trees back together, bottom-up.  A solved
   small tree has leaves 0 .. k-1 standing for the block's children;
   replace each by the child's assembled subtree. *)
let graft slots results =
  let solved = Array.make (List.length slots) None in
  Array.iter (fun r -> solved.(r.slot.id) <- Some r.b_tree) results;
  let rec assemble_child (child : Laminar.tree) =
    match child with
    | Laminar.Elem i -> Utree.leaf i
    | Laminar.Set _ ->
        assemble_slot
          (List.find
             (fun s ->
               match s.node with Some n -> n == child | None -> false)
             slots)
  and assemble_slot slot =
    match slot.block.Decompose.children with
    | [ only ] -> assemble_child only
    | children -> (
        match solved.(slot.id) with
        | None -> invalid_arg "Pipeline.graft: unsolved block"
        | Some small_tree ->
            let arr = Array.of_list children in
            Utree.map_leaves (fun a -> assemble_child arr.(a)) small_tree)
  in
  assemble_slot (List.hd slots)

let plan_workers ~budget deco =
  if budget < 1 then
    invalid_arg
      (Printf.sprintf "Pipeline.plan_workers: budget = %d (must be >= 1)"
         budget);
  let sizes =
    List.filter_map
      (fun s -> if s.size >= 2 then Some s.size else None)
      (slots_of deco)
  in
  let n_solvable = List.length sizes in
  if n_solvable <= 1 || budget = 1 then (1, budget)
  else begin
    (* Cost proxy: a block over k children has (2k-3)!! topologies, so
       one block a couple of species larger dwarfs all the rest; 3^k
       tracks that growth well enough to pick an axis. *)
    let weight k = 3. ** float_of_int k in
    let largest = List.fold_left Int.max 0 sizes in
    let total = List.fold_left (fun acc k -> acc +. weight k) 0. sizes in
    if weight largest >= 0.5 *. total then
      (* One big lone block dominates the makespan: spend the whole
         budget inside its branch-and-bound. *)
      (1, budget)
    else begin
      (* Many comparable small blocks: spread the budget across blocks
         first, and only then inside each solve. *)
      let bw = Int.min n_solvable budget in
      (bw, Int.max 1 (budget / bw))
    end
  end

let with_compact_sets ?(config = Run_config.default) ?resume dm =
  let config = Run_config.validate ~who:"Pipeline.with_compact_sets" config in
  let options = config.Run_config.solver in
  let linkage = config.Run_config.linkage in
  let relaxation = config.Run_config.relaxation in
  let workers = config.Run_config.workers in
  let block_workers = config.Run_config.block_workers in
  let n = Dist_matrix.size dm in
  if n = 0 then invalid_arg "Pipeline.with_compact_sets: empty matrix";
  let resume_ck =
    checked_resume ~who:"Pipeline.with_compact_sets" ~matrix:dm resume
  in
  Obs.Span.with_span "pipeline.with_compact_sets"
    ~args:[ ("n", Obs.Json.Int n) ]
  @@ fun () ->
  let report = Obs.Report.create "pipeline.with_compact_sets" in
  Obs.Report.set report "n" (Obs.Json.Int n);
  Obs.Report.set report "config" (Run_config.to_json config);
  if n = 1 then begin
    finish_report report ~options ~elapsed_s:0. ~cost:0. ~n_blocks:1
      ~largest_block:1 ~status:Budget.Exact ~lower_bound:0. ~certified_gap:0.
      (Stats.create ());
    {
      tree = Utree.leaf 0;
      cost = 0.;
      elapsed_s = 0.;
      stats = Stats.create ();
      n_blocks = 1;
      largest_block = 1;
      optimal = true;
      report;
      status = Budget.Exact;
      lower_bound = 0.;
      certified_gap = 0.;
      checkpoint = None;
    }
  end
  else begin
    Obs.Report.set report "block_workers" (Obs.Json.Int block_workers);
    Obs.Report.set report "effective_block_workers"
      (Obs.Json.Int (effective_block_workers block_workers));
    Obs.Report.set report "solver_workers" (Obs.Json.Int workers);
    let use_cache = cache_setup config in
    let stats = Stats.create () in
    let optimal = ref true in
    let monitor = Budget.arm (Run_config.budget config) in
    let (tree, deco, results), elapsed_s =
      Obs.Clock.time (fun () ->
          let deco =
            Obs.Report.timed_phase report "decompose" (fun () ->
                Decompose.decompose ~linkage ?relaxation dm)
          in
          Log.debug (fun m ->
              m "decomposed %d species into %d blocks (largest %d)" n
                (Decompose.n_blocks deco)
                (Decompose.largest_block deco));
          Obs.Recorder.emit_ambient
            (Obs.Events.Run_start { n; n_blocks = Decompose.n_blocks deco });
          (* Sibling blocks are independent exact solves — the laminar
             family's natural task parallelism.  Solve them all over the
             inter-block pool, then merge and graft deterministically. *)
          let slots = slots_of deco in
          (* The decomposition is a deterministic function of the matrix
             and linkage, so block ids line up with a checkpoint taken
             under the same configuration; the matrix itself was already
             digest-checked. *)
          let resume_for slot =
            Option.bind resume_ck (fun ck ->
                Option.map
                  (Checkpoint.resume_of_block
                     ~matrix:slot.block.Decompose.small)
                  (Checkpoint.find_block ck slot.id))
          in
          let results =
            Obs.Report.timed_phase report "solve-blocks" (fun () ->
                solve_slots ~config ~monitor ~resume_for slots)
          in
          merge_results ~report ~stats ~optimal results;
          Obs.Report.set report "cache"
            (cache_json ~enabled:use_cache
               ~hits:
                 (Array.fold_left
                    (fun acc r -> if r.b_cached then acc + 1 else acc)
                    0 results)
               ~total:(Array.length results));
          Log.debug (fun m ->
              m "blocks solved: %d BBT nodes expanded in total"
                stats.Stats.expanded);
          let merged =
            Obs.Report.timed_phase report "graft" (fun () ->
                graft slots results)
          in
          (* The graft fixes a topology; re-realising against the full
             matrix yields the cheapest feasible ultrametric tree with
             that topology (and repairs any height inversion the Min/Avg
             linkages can introduce).  Interrupted blocks contribute
             their best incumbent, so the anytime result is always a
             complete, feasible tree. *)
          ( Obs.Report.timed_phase report "re-realise" (fun () ->
                Utree.minimal_realization dm merged),
            deco,
            results ))
    in
    let cost = Utree.weight tree in
    let n_blocks = Decompose.n_blocks deco in
    let largest_block = Decompose.largest_block deco in
    let status =
      (* Every block exact means the run is exact, even if the deadline
         expires a microsecond after the last solve returned; otherwise
         a whole-run trip (deadline, cancel, global cap) wins over a
         block-local node-share exhaustion. *)
      match Array.find_opt (fun r -> r.b_status <> Budget.Exact) results with
      | None -> Budget.Exact
      | Some r -> (
          match Budget.tripped monitor with Some s -> s | None -> r.b_status)
    in
    (* Sum of per-block certified bounds: a lower bound on the total
       cost of solving every block exactly — the quantity the block
       phase minimises — not on the final re-realised tree's weight. *)
    let lower_bound =
      Array.fold_left (fun acc r -> acc +. r.b_lb) 0. results
    in
    let checkpoint =
      if status = Budget.Exact then None
      else
        Some
          (Checkpoint.make ~matrix:dm ~status ~cost ~lower_bound
             ~blocks:
               (Array.to_list
                  (Array.map
                     (fun r ->
                       (* [b_frontier] is already in block-local labels
                          (the executor relabels before returning), so
                          the block record is assembled directly. *)
                       {
                         Checkpoint.b_id = r.slot.id;
                         b_solved = r.b_status = Budget.Exact;
                         b_tree = Some r.b_tree;
                         b_frontier = r.b_frontier;
                       })
                     results)))
    in
    (* Relative to the sum-of-block bound above, never clamped to the
       configured tolerance: the re-realised tree's weight is not the
       quantity the block searches bounded, so only the raw ratio is an
       honest certificate here. *)
    let certified_gap =
      Solver.certify ~gap:0. ~exhausted:false ~cost ~lower_bound
    in
    finish_report report ~options ~elapsed_s ~cost ~n_blocks ~largest_block
      ~status ~lower_bound ~certified_gap stats;
    {
      tree;
      cost;
      elapsed_s;
      stats;
      n_blocks;
      largest_block;
      optimal = !optimal;
      report;
      status;
      lower_bound;
      certified_gap;
      checkpoint;
    }
  end

type comparison = {
  with_cs : run;
  without_cs : run;
  time_saved_pct : float;
  cost_increase_pct : float;
  report : Obs.Report.t;
}

let compare_methods ?(config = Run_config.default) dm =
  let config = Run_config.validate ~who:"Pipeline.compare_methods" config in
  let with_cs = with_compact_sets ~config dm in
  let without_cs = exact ~config dm in
  let time_saved_pct =
    if without_cs.elapsed_s <= 0. then 0.
    else
      (without_cs.elapsed_s -. with_cs.elapsed_s)
      /. without_cs.elapsed_s *. 100.
  in
  let cost_increase_pct =
    if without_cs.cost <= 0. then 0.
    else (with_cs.cost -. without_cs.cost) /. without_cs.cost *. 100.
  in
  let report = Obs.Report.create "pipeline.compare_methods" in
  Obs.Report.set report "n" (Obs.Json.Int (Dist_matrix.size dm));
  Obs.Report.set report "time_saved_pct" (Obs.Json.Float time_saved_pct);
  Obs.Report.set report "cost_increase_pct"
    (Obs.Json.Float cost_increase_pct);
  Obs.Report.set report "with_cs" (Obs.Report.to_json with_cs.report);
  Obs.Report.set report "without_cs" (Obs.Report.to_json without_cs.report);
  { with_cs; without_cs; time_saved_pct; cost_increase_pct; report }
