open Import
module J = Obs.Json

let src = Logs.Src.create "compactphy.server" ~doc:"phylo serve daemon"

module Log = (val Logs.src_log src : Logs.LOG)

(* Process-wide daemon metrics (Obs.Metrics.default), next to the
   cache.* family — both end up in /metrics. *)
module M = struct
  let queue_depth = Obs.Metrics.gauge "serve.queue_depth"
  let requests = Obs.Metrics.counter "serve.requests"
  let errors = Obs.Metrics.counter "serve.errors"
end

type t = {
  listener : Obs.Serve.t;
  pool : Domain_pool.t;
  config : Run_config.t;
  in_flight : int Atomic.t;  (* solve requests accepted, not yet answered *)
  completed : int Atomic.t;
  stopping : bool Atomic.t;
}

let addr_string t = Obs.Serve.addr_string t.listener
let port t = Obs.Serve.port t.listener
let queue_depth t = Atomic.get t.in_flight

(* --- request handling --- *)

let sync_gauge t = Obs.Metrics.set M.queue_depth (float_of_int (Atomic.get t.in_flight))

let error_json status msg =
  Obs.Metrics.incr M.errors;
  ( status,
    "application/json",
    J.to_string (J.Obj [ ("error", J.String msg) ]) ^ "\n" )

let cache_provenance report =
  match Obs.Report.field report "cache" with Some j -> j | None -> J.Null

let run_json ~names ~request_id (run : Pipeline.run) =
  J.Obj
    [
      ("newick", J.String (Newick.to_string ~names run.Pipeline.tree));
      ("cost", J.Float run.Pipeline.cost);
      ("cost_hex", J.String (Printf.sprintf "%h" run.Pipeline.cost));
      ("status", Budget.status_to_json run.Pipeline.status);
      ("optimal", J.Bool run.Pipeline.optimal);
      ("n_blocks", J.Int run.Pipeline.n_blocks);
      ("elapsed_s", J.Float run.Pipeline.elapsed_s);
      ("cache", cache_provenance run.Pipeline.report);
      ("request_id", J.String request_id);
    ]

let status_json t =
  let cache =
    match Subsolve_cache.installed () with
    | Some c -> Subsolve_cache.counters_json (Subsolve_cache.counters c)
    | None -> J.Null
  in
  J.Obj
    [
      ("queue_depth", J.Int (Atomic.get t.in_flight));
      ("completed", J.Int (Atomic.get t.completed));
      ("cache", cache);
    ]

(* POST /solve: a PHYLIP matrix in the body, ?method=compact|exact in
   the query.  The solve is queued onto the persistent domain pool; the
   per-connection thread blocks on the future, so slow solves never
   stall /metrics scrapes (those run on their own connections). *)
let solve t ~request_id ~query ~body =
  match Matrix_io.of_phylip body with
  | exception Failure msg -> error_json 400 ("bad matrix: " ^ msg)
  | { Matrix_io.names; matrix } -> (
      let meth = Option.value ~default:"compact" (List.assoc_opt "method" query) in
      (* The request id becomes the solve's trace context, so any spans
         the pipeline (or a remote worker) records for this request are
         attributable to it in the merged timeline. *)
      let config = Run_config.with_run_id request_id t.config in
      let runner =
        match meth with
        | "compact" -> Some (fun () -> Pipeline.with_compact_sets ~config matrix)
        | "exact" -> Some (fun () -> Pipeline.exact ~config matrix)
        | _ -> None
      in
      match runner with
      | None -> error_json 400 (Printf.sprintf "unknown method %S (want compact|exact)" meth)
      | Some runner -> (
          Obs.Metrics.incr M.requests;
          Atomic.incr t.in_flight;
          sync_gauge t;
          let finally () =
            Atomic.decr t.in_flight;
            Atomic.incr t.completed;
            sync_gauge t
          in
          match
            Fun.protect ~finally (fun () ->
                Domain_pool.await (Domain_pool.submit t.pool runner))
          with
          | run ->
              ( 200,
                "application/json",
                J.to_string (run_json ~names ~request_id run) ^ "\n" )
          | exception Domain_pool.Cancelled -> error_json 503 "server is shutting down"
          | exception Invalid_argument msg -> error_json 422 msg
          | exception exn ->
              Log.err (fun m -> m "solve failed: %s" (Printexc.to_string exn));
              error_json 500 (Printexc.to_string exn)))

let handler t ~request_id ~meth ~path ~query ~body =
  match (meth, path) with
  | "POST", "/solve" ->
      if Atomic.get t.stopping then Some (error_json 503 "server is shutting down")
      else
        (* One [request] span per solve, so a traced daemon's requests
           appear in the merged timeline next to the jobs they spawned
           (a no-op without an installed span buffer). *)
        Some
          (Obs.Span.with_span ~cat:"serve"
             ~args:[ ("request_id", J.String request_id) ]
             "request"
             (fun () -> solve t ~request_id ~query ~body))
  | _, "/solve" -> Some (405, "text/plain", "POST a PHYLIP matrix to /solve\n")
  | "GET", "/status" ->
      Some (200, "application/json", J.to_string (status_json t) ^ "\n")
  | _ -> None  (* /metrics, /healthz, /events, 404s: the builtins *)

(* --- lifecycle --- *)

let start ?(config = Run_config.default) ?recorder ?(host = "127.0.0.1") ?port
    ?socket ?pool_workers () =
  let config = Run_config.validate ~who:"Server.start" config in
  (* Installing up front (rather than on the first request) makes the
     cache counters visible in /metrics from the first scrape. *)
  (match config.Run_config.cache_dir with
  | Some dir ->
      Subsolve_cache.install
        (Subsolve_cache.get_or_create ~dir
           ?max_bytes:config.Run_config.cache_max_bytes ())
  | None -> ());
  let pool_workers =
    match pool_workers with
    | Some n ->
        if n < 1 then invalid_arg "Server.start: pool_workers must be >= 1";
        n
    | None -> max 1 config.Run_config.block_workers
  in
  let pool = Domain_pool.create ~n_workers:pool_workers in
  (* The listener's accept thread starts inside [Serve.start], so the
     handler closes over a cell filled right after — a request landing
     in that window is told to retry rather than racing construction. *)
  let cell = Atomic.make None in
  let listener =
    Obs.Serve.start ?recorder
      ~handler:(fun ~request_id ~meth ~path ~query ~body ->
        match Atomic.get cell with
        | None -> Some (503, "text/plain", "server is starting\n")
        | Some t -> handler t ~request_id ~meth ~path ~query ~body)
      ~host ?port ?socket ()
  in
  let t =
    {
      listener;
      pool;
      config;
      in_flight = Atomic.make 0;
      completed = Atomic.make 0;
      stopping = Atomic.make false;
    }
  in
  Atomic.set cell (Some t);
  sync_gauge t;
  Log.info (fun m ->
      m "phylo serve listening on %s (%d pool worker%s)" (addr_string t)
        pool_workers
        (if pool_workers = 1 then "" else "s"));
  t

let stop t =
  Atomic.set t.stopping true;
  (* Stopping the listener joins every in-flight connection thread, so
     all accepted requests have been answered — and therefore no
     further submit can race the pool shutdown. *)
  Obs.Serve.stop t.listener;
  Domain_pool.shutdown t.pool;
  sync_gauge t
