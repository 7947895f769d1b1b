open Import

let src =
  Logs.Src.create "compactphy.distbnb"
    ~doc:"Master/slave branch-and-bound on the simulated cluster"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  cost : float;
  tree : Utree.t;
  makespan : float;
  expansions : int;
  messages : int;
  n_slaves : int;
  utilization : float array;
  report : Obs.Report.t;
  stats : Stats.t;
}

type slave = {
  id : int;
  speed : float;
  mutable lp : Bb_tree.node list;
  mutable ub_view : float;
  mutable busy : bool;
  mutable pending : bool;  (** requested work from the master *)
  mutable stopped : bool;
  mutable busy_time : float;  (** accumulated virtual compute time *)
  mutable n_expanded : int;  (** BBT expansions done by this slave *)
  mutable n_pruned : int;  (** nodes this slave pruned against its UB view *)
}

type master = {
  mutable gp : Bb_tree.node list;
  mutable ub : float;
  mutable best : Utree.t option;
  mutable wanting : int list;  (** slaves parked at an empty global pool *)
}

exception Expansion_budget_exceeded

let run ?(options = Solver.default_options) ?(max_expansions = 30_000_000)
    platform dm =
  let n = Dist_matrix.size dm in
  let p = Platform.n_slaves platform in
  if n <= 2 then begin
    let r = Solver.solve ~options dm in
    {
      cost = r.Solver.cost;
      tree = r.Solver.tree;
      makespan = 0.;
      expansions = r.Solver.stats.Stats.expanded;
      messages = 0;
      n_slaves = p;
      utilization = Array.make p 0.;
      report = Obs.Report.create "dist_bnb";
      stats = r.Solver.stats;
    }
  end
  else
    Obs.Span.with_span "distbnb.run"
      ~args:[ ("n", Obs.Json.Int n); ("slaves", Obs.Json.Int p) ]
    @@ fun () ->
    let report = Obs.Report.create "dist_bnb" in
    Obs.Report.set report "n" (Obs.Json.Int n);
    Obs.Report.set report "n_slaves" (Obs.Json.Int p);
    let problem = Solver.prepare ~options dm in
    let sim = Sim.create () in
    let stats = Stats.create () in
    let expansions = ref 0 in
    let messages = ref 0 in
    let node_msg_time =
      Platform.message_time platform ~bytes:(Platform.node_bytes ~n_species:n)
    in
    let small_msg_time = Platform.message_time platform ~bytes:16 in
    let master =
      {
        gp = [];
        ub = problem.Solver.ub0;
        best = problem.Solver.incumbent0;
        wanting = [];
      }
    in
    let slaves =
      Array.init p (fun id ->
          {
            id;
            speed = platform.Platform.slave_speeds.(id);
            lp = [];
            ub_view = problem.Solver.ub0;
            busy = false;
            pending = false;
            stopped = false;
            busy_time = 0.;
            n_expanded = 0;
            n_pruned = 0;
          })
    in
    let send delay handler =
      incr messages;
      Sim.schedule sim ~delay handler
    in
    (* Nodes currently travelling inside a message: the termination test
       must see them, or a donation arriving after every slave parked
       would be orphaned and the search would silently miss solutions. *)
    let in_flight = ref 0 in
    let send_node delay handler =
      incr in_flight;
      send delay (fun () ->
          decr in_flight;
          handler ())
    in
    let publish cost tree =
      if cost < master.ub then begin
        master.ub <- cost;
        master.best <- Some tree;
        (* Broadcast the improved bound to every slave. *)
        Array.iter
          (fun s ->
            send small_msg_time (fun () ->
                s.ub_view <- Float.min s.ub_view cost))
          slaves
      end
    in
    let rec tick (s : slave) =
      (* One virtual work quantum on slave [s]. *)
      if not s.stopped then begin
        match s.lp with
        | [] ->
            s.busy <- false;
            if not s.pending then begin
              s.pending <- true;
              send small_msg_time (fun () -> master_request s)
            end
        | node :: rest ->
            s.lp <- rest;
            if node.Bb_tree.lb >= s.ub_view then begin
              stats.Stats.pruned <- stats.Stats.pruned + 1;
              s.n_pruned <- s.n_pruned + 1;
              (* Pruning is an order of magnitude cheaper than
                 expanding. *)
              s.busy <- true;
              s.busy_time <- s.busy_time +. (0.1 /. s.speed);
              Sim.schedule sim ~delay:(0.1 /. s.speed) (fun () -> tick s)
            end
            else begin
              incr expansions;
              s.n_expanded <- s.n_expanded + 1;
              if !expansions > max_expansions then
                raise Expansion_budget_exceeded;
              (* The slave's possibly-stale UB view is a conservative
                 bound for the kernel's pre-pruning; per-child checks
                 below re-filter exactly. *)
              let children =
                Solver.expand ~ub:s.ub_view problem node stats
              in
              List.iter
                (fun (c : Bb_tree.node) ->
                  if Bb_tree.is_complete problem.Solver.pm c then begin
                    if c.cost < s.ub_view then begin
                      s.ub_view <- c.cost;
                      send small_msg_time (fun () -> publish c.cost c.tree)
                    end
                  end
                  else if c.lb < s.ub_view then s.lp <- c :: s.lp
                  else begin
                    stats.Stats.pruned <- stats.Stats.pruned + 1;
                    s.n_pruned <- s.n_pruned + 1
                  end)
                (List.rev children);
              (* Two-level load balancing: feed the global pool whenever
                 it is dry and someone is waiting for work. *)
              (match (master.gp, master.wanting, List.rev s.lp) with
              | [], _ :: _, worst :: _ when List.length s.lp > 1 ->
                  s.lp <- List.rev (List.tl (List.rev s.lp));
                  send_node node_msg_time (fun () -> master_donate worst)
              | _ -> ());
              s.busy <- true;
              s.busy_time <- s.busy_time +. (1. /. s.speed);
              Sim.schedule sim ~delay:(1. /. s.speed) (fun () -> tick s)
            end
      end
    and master_request (s : slave) =
      match master.gp with
      | node :: rest ->
          master.gp <- rest;
          send_node node_msg_time (fun () -> deliver s node)
      | [] ->
          master.wanting <- s.id :: master.wanting;
          try_steal_for_waiters ()
    and master_donate node =
      master.gp <- master.gp @ [ node ];
      serve_waiters ()
    and serve_waiters () =
      match (master.wanting, master.gp) with
      | w :: ws, node :: rest ->
          master.wanting <- ws;
          master.gp <- rest;
          send_node node_msg_time (fun () -> deliver slaves.(w) node);
          serve_waiters ()
      | _ -> ()
    and try_steal_for_waiters () =
      (* The master polls the most loaded slave (paper: "it will poll
         branching data from the heavily loaded computing nodes").
         Reading the slave's pool directly is a simulation shortcut; the
         round trip still pays two message times. *)
      let victim =
        Array.fold_left
          (fun acc s ->
            match acc with
            | Some v when List.length v.lp >= List.length s.lp -> acc
            | _ -> if List.length s.lp > 1 then Some s else acc)
          None slaves
      in
      match victim with
      | Some v -> (
          match List.rev v.lp with
          | worst :: _ ->
              v.lp <- List.rev (List.tl (List.rev v.lp));
              send_node (small_msg_time +. node_msg_time) (fun () ->
                  master_donate worst)
          | [] -> ())
      | None ->
          (* No stealable work.  If nobody can produce any more, the
             search is over: release every parked slave. *)
          let someone_active =
            !in_flight > 0 || Array.exists (fun s -> s.busy || s.lp <> []) slaves
          in
          if not someone_active then begin
            Array.iter (fun s -> s.stopped <- true) slaves;
            master.wanting <- []
          end
    and deliver (s : slave) node =
      s.pending <- false;
      if not s.stopped then begin
        s.lp <- node :: s.lp;
        if not s.busy then tick s
      end
    in
    (* Master seeding phase (paper Steps 1-5): expand breadth-first until
       the frontier reaches 2p nodes, then scatter it cyclically. *)
    let target = 2 * p in
    let rec widen frontier =
      let expandable, complete =
        List.partition
          (fun (nd : Bb_tree.node) ->
            not (Bb_tree.is_complete problem.Solver.pm nd))
          frontier
      in
      List.iter
        (fun (nd : Bb_tree.node) ->
          if nd.Bb_tree.cost < master.ub then begin
            master.ub <- nd.Bb_tree.cost;
            master.best <- Some nd.Bb_tree.tree
          end)
        complete;
      match expandable with
      | [] -> []
      | _ when List.length expandable >= target -> expandable
      | nd :: rest ->
          incr expansions;
          (* No [~ub] here: the seeding frontier must reach the slaves
             even when the incumbent could already prune it, so the
             simulated workload (and its makespan) matches the paper's
             scatter phase. *)
          widen (rest @ Solver.expand problem nd stats)
    in
    let seeds, seed_wall_s =
      Obs.Clock.time (fun () -> widen [ Bb_tree.root problem.Solver.pm ])
    in
    Obs.Report.add_phase report "seed" seed_wall_s
      ~meta:[ ("frontier", Obs.Json.Int (List.length seeds)) ];
    Log.debug (fun m ->
        m "seeded %d slaves with %d nodes (initial UB %g)" p
          (List.length seeds) problem.Solver.ub0);
    let seed_time =
      float_of_int !expansions /. platform.Platform.master_speed
    in
    (* Scatter is pipelined: the master's link serialises the
       transmissions but their latencies overlap, so the i-th node
       arrives after i transmission times plus one latency. *)
    let transmission =
      float_of_int (Platform.node_bytes ~n_species:n)
      /. platform.Platform.bandwidth
    in
    List.iteri
      (fun i node ->
        let s = slaves.(i mod p) in
        send_node
          (platform.Platform.startup +. seed_time +. platform.Platform.latency
          +. (transmission *. float_of_int (i + 1)))
          (fun () -> deliver s node))
      seeds;
    (match seeds with
    | [] ->
        (* Everything was solved during seeding (tiny n). *)
        ()
    | _ -> ());
    let (), sim_wall_s =
      Obs.Clock.time (fun () ->
          match Sim.run sim with
          | () -> ()
          | exception Expansion_budget_exceeded ->
              failwith "Dist_bnb.run: expansion budget exceeded")
    in
    Obs.Report.add_phase report "simulate" sim_wall_s;
    let cost, tree =
      match master.best with
      | Some t -> ((match master.ub with u -> u), Solver.relabel_out problem t)
      | None -> assert false
      (* UPGMM always provides an incumbent. *)
    in
    let makespan = Sim.now sim in
    let utilization =
      Array.map
        (fun s -> if makespan > 0. then s.busy_time /. makespan else 0.)
        slaves
    in
    Log.debug (fun m ->
        m "simulated run done: makespan %.6f vs, %d expansions, %d messages"
          makespan !expansions !messages);
    Array.iter
      (fun s ->
        Obs.Report.add_worker report
          [
            ("slave", Obs.Json.Int s.id);
            ("speed", Obs.Json.Float s.speed);
            ("expanded", Obs.Json.Int s.n_expanded);
            ("pruned", Obs.Json.Int s.n_pruned);
            ("busy_time_vs", Obs.Json.Float s.busy_time);
            ("utilization", Obs.Json.Float utilization.(s.id));
          ])
      slaves;
    Obs.Report.set report "makespan_vs" (Obs.Json.Float makespan);
    Obs.Report.set report "expansions" (Obs.Json.Int !expansions);
    Obs.Report.set report "messages" (Obs.Json.Int !messages);
    Obs.Report.set report "stats" (Stats.to_json stats);
    {
      cost;
      tree;
      makespan;
      expansions = !expansions;
      messages = !messages;
      n_slaves = p;
      utilization;
      report;
      stats;
    }

let speedup ?options base par dm =
  let b = run ?options base dm and q = run ?options par dm in
  if q.makespan <= 0. then 1. else b.makespan /. q.makespan
