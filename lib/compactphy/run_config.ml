open Import

type t = {
  solver : Solver.options;
  linkage : Decompose.linkage;
  relaxation : float option;
  workers : int;
  block_workers : int;
  deadline_s : float option;
  max_nodes : int option;
  cancel : bool Atomic.t option;
  executor : Executor.kind;
  workers_addr : string option;
  cache_dir : string option;
  cache_max_bytes : int option;
  run_id : string option;
}

let default =
  {
    solver = Solver.default_options;
    linkage = Decompose.Max;
    relaxation = None;
    workers = 1;
    block_workers = 1;
    deadline_s = None;
    max_nodes = None;
    cancel = None;
    executor = Executor.Local;
    workers_addr = None;
    cache_dir = None;
    cache_max_bytes = None;
    run_id = None;
  }

let solver_options = Solver.options

(* Setters, so call sites read as a pipeline of intent:
   [Run_config.(default |> with_workers 4 |> with_linkage Avg)]. *)
let with_solver solver c = { c with solver }

let with_exploration search c =
  { c with solver = { c.solver with Solver.search } }

let with_branching branching c =
  { c with solver = { c.solver with Solver.branching } }

let with_gap gap c = { c with solver = { c.solver with Solver.gap } }
let with_linkage linkage c = { c with linkage }
let with_relaxation r c = { c with relaxation = Some r }
let with_workers workers c = { c with workers }
let with_block_workers block_workers c = { c with block_workers }
let with_deadline d c = { c with deadline_s = Some d }
let with_max_nodes cap c = { c with max_nodes = Some cap }
let with_cancel flag c = { c with cancel = Some flag }
let with_executor executor c = { c with executor }
let with_workers_addr addr c = { c with workers_addr = Some addr }
let with_cache_dir dir c = { c with cache_dir = Some dir }
let with_cache_max_bytes b c = { c with cache_max_bytes = Some b }
let with_run_id id c = { c with run_id = Some id }

let budget c =
  Bnb.Budget.create ?deadline_s:c.deadline_s ?max_nodes:c.max_nodes
    ?cancel:c.cancel ()

let validate ?(who = "Run_config.validate") c =
  if c.workers < 1 then
    invalid_arg (Printf.sprintf "%s: workers = %d (must be >= 1)" who c.workers);
  if c.block_workers < 1 then
    invalid_arg
      (Printf.sprintf "%s: block_workers = %d (must be >= 1)" who
         c.block_workers);
  (match c.relaxation with
  | Some r when not (r >= 1.) ->
      invalid_arg
        (Printf.sprintf "%s: relaxation = %g (must be >= 1)" who r)
  | Some _ | None -> ());
  if not (c.solver.Solver.gap >= 0. && Float.is_finite c.solver.Solver.gap)
  then
    invalid_arg
      (Printf.sprintf "%s: gap = %g (must be >= 0 and finite)" who
         c.solver.Solver.gap);
  (match c.solver.Solver.max_expanded with
  | Some cap when cap <= 0 ->
      invalid_arg
        (Printf.sprintf "%s: max_expanded = %d (must be > 0)" who cap)
  | Some _ | None -> ());
  (match c.deadline_s with
  | Some d when not (d > 0. && Float.is_finite d) ->
      invalid_arg
        (Printf.sprintf "%s: deadline_s = %g (must be > 0 and finite)" who d)
  | Some _ | None -> ());
  (match c.max_nodes with
  | Some cap when cap <= 0 ->
      invalid_arg
        (Printf.sprintf "%s: max_nodes = %d (must be > 0)" who cap)
  | Some _ | None -> ());
  (* The TCP executor needs a coordinator listen address (HOST:PORT;
     port 0 binds an ephemeral port). *)
  (match (c.executor, c.workers_addr) with
  | Executor.Tcp, None ->
      invalid_arg
        (Printf.sprintf "%s: executor = tcp requires workers_addr" who)
  | _, Some addr -> (
      match Executor.parse_addr addr with
      | Ok _ -> ()
      | Error e -> invalid_arg (Printf.sprintf "%s: workers_addr: %s" who e))
  | (Executor.Local | Executor.Sim), None -> ());
  (match c.cache_dir with
  | Some "" -> invalid_arg (Printf.sprintf "%s: cache_dir must not be empty" who)
  | Some _ | None -> ());
  (match c.cache_max_bytes with
  | Some b when b < 1 ->
      invalid_arg
        (Printf.sprintf "%s: cache_max_bytes = %d (must be >= 1)" who b)
  | Some _ | None -> ());
  (match c.run_id with
  | Some "" -> invalid_arg (Printf.sprintf "%s: run_id must not be empty" who)
  | Some _ | None -> ());
  c

type preset = Paper | Fast | Exhaustive

let preset_names = [ ("paper", Paper); ("fast", Fast); ("exhaustive", Exhaustive) ]

let of_preset = function
  | Paper ->
      (* The published configuration, byte for byte: sequential search
         over fully realised children, so runs reproduce the seed's
         trajectory exactly. *)
      {
        default with
        solver = { Solver.default_options with kernel = Solver.Reference };
      }
  | Fast ->
      (* Incremental kernels plus both parallel axes; the pipeline clamps
         block workers to the host and splits the rest sensibly. *)
      {
        default with
        block_workers = Int.max 1 (Domain.recommended_domain_count ());
      }
  | Exhaustive ->
      (* Every optimal topology, best-first so the bound tightens early
         despite the wider (un-pruned ties) frontier. *)
      {
        default with
        solver =
          {
            Solver.default_options with
            collect_all = true;
            search = Solver.Best_first;
          };
      }

let to_json c =
  let module J = Obs.Json in
  let s = c.solver in
  let int n = J.Int n and float x = J.Float x and str a = J.String a in
  let opt f = Option.fold ~none:J.Null ~some:f in
  J.Obj
    ([
      ( "solver",
        J.Obj
          [
            ("lb", J.enum Solver.lb_names s.Solver.lb);
            ("relation33", J.enum Solver.mode33_names s.Solver.relation33);
            ("initial_ub", J.enum Solver.initial_ub_names s.Solver.initial_ub);
            ("max_expanded", opt int s.Solver.max_expanded);
            ("search", J.enum Strategy.exploration_names s.Solver.search);
            ("branching", J.enum Strategy.branching_names s.Solver.branching);
            ("gap", float s.Solver.gap);
            ("collect_all", J.Bool s.Solver.collect_all);
            ("kernel", J.enum Kernel.kind_names s.Solver.kernel);
          ] );
      ("linkage", J.enum Decompose.linkage_names c.linkage);
      ("relaxation", opt float c.relaxation);
      ("workers", int c.workers);
      ("block_workers", int c.block_workers);
      ("deadline_s", opt float c.deadline_s);
      ("max_nodes", opt int c.max_nodes);
      ("executor", J.enum Executor.kind_names c.executor);
      ("workers_addr", opt str c.workers_addr);
      ("cache_dir", opt str c.cache_dir);
    ]
    (* Optional fields append only when set, so manifests from runs that
       never touch them stay byte-identical to earlier releases. *)
    @ (match c.cache_max_bytes with
      | Some b -> [ ("cache_max_bytes", int b) ]
      | None -> [])
    @ match c.run_id with Some id -> [ ("run_id", str id) ] | None -> [])
