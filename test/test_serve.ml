(* The phylo serve daemon under concurrency:

   - N client threads fire overlapping POST /solve requests, several
     sharing the same matrix: every response is the optimal tree for
     its matrix, the shared sub-solves hit the cache (hit rate > 0),
     and the queue-depth gauge is back to 0 once the burst drains;
   - the builtin telemetry endpoints answer while solves run (the
     handler falls through to /metrics and /healthz);
   - malformed requests get structured errors, not hangs;
   - stop drains: a request accepted before shutdown still receives
     its answer, and new requests are refused. *)

module Dist_matrix = Distmat.Dist_matrix
module Matrix_io = Distmat.Matrix_io
module Gen = Distmat.Gen
module Pipeline = Compactphy.Pipeline
module Run_config = Compactphy.Run_config
module Server = Compactphy.Server
module Serve = Obs.Serve
module J = Obs.Json

let rng seed = Random.State.make [| 0x5e7e; seed |]

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "sserve-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let with_server ?(config = Run_config.default) ?pool_workers f =
  let server = Server.start ~config ?pool_workers () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Compactphy.Subsolve_cache.uninstall ())
    (fun () ->
      let target =
        match Server.port server with
        | Some p -> Serve.Tcp ("127.0.0.1", p)
        | None -> Alcotest.fail "expected a TCP port"
      in
      f server target)

let unwrap = function
  | Ok v -> v
  | Error e -> Alcotest.failf "request failed: %s" e

let parse_json body =
  match J.of_string body with
  | Ok j -> j
  | Error e -> Alcotest.failf "bad JSON in response %S: %s" body e

let obj_field j k =
  match j with
  | J.Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let solve_req target ?(query = "") m =
  Serve.request ~meth:"POST" ~body:(Matrix_io.to_phylip m) target
    ("/solve" ^ query)

(* --- the concurrency test --- *)

let test_concurrent_burst () =
  let config = Run_config.default |> Run_config.with_cache_dir (fresh_dir ()) in
  with_server ~config ~pool_workers:2 @@ fun server target ->
  (* Three distinct matrices, six requests: every matrix solved twice,
     so block sub-solves repeat across overlapping requests.  Matrices
     go through one PHYLIP round trip first, so the reference solve
     sees exactly the (decimal-rendered) matrix the server receives. *)
  let round_trip m =
    (Matrix_io.of_phylip (Matrix_io.to_phylip m)).Matrix_io.matrix
  in
  let matrices =
    Array.init 3 (fun i ->
        round_trip (Gen.clustered ~rng:(rng i) ~n_clusters:3 (9 + i)))
  in
  let expected =
    Array.map (fun m -> (Pipeline.with_compact_sets m).Pipeline.cost) matrices
  in
  let n_requests = 6 in
  let results = Array.make n_requests (Error "not run") in
  let threads =
    Array.init n_requests (fun i ->
        Thread.create
          (fun () -> results.(i) <- solve_req target matrices.(i mod 3))
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      let code, body = unwrap r in
      Alcotest.(check int) (Printf.sprintf "request %d: 200" i) 200 code;
      let j = parse_json body in
      (match obj_field j "cost_hex" with
      | Some (J.String hex) ->
          Alcotest.(check bool)
            (Printf.sprintf "request %d: optimal cost" i)
            true
            (Float.equal (float_of_string hex) expected.(i mod 3))
      | _ -> Alcotest.failf "request %d: no cost_hex in %s" i body);
      match obj_field j "newick" with
      | Some (J.String nwk) ->
          (* The response parses back into a feasible ultrametric tree
             over the matrix's own species names (up to the decimal
             rendering of branch lengths). *)
          let { Matrix_io.names; matrix } =
            Matrix_io.of_phylip (Matrix_io.to_phylip matrices.(i mod 3))
          in
          let tree = Ultra.Newick.of_string ~names nwk in
          Alcotest.(check bool)
            (Printf.sprintf "request %d: feasible tree" i)
            true
            (Ultra.Utree.is_feasible ~eps:1e-6 matrix tree)
      | _ -> Alcotest.failf "request %d: no newick in %s" i body)
    results;
  (* The burst drained: gauge back to zero. *)
  Alcotest.(check int) "queue depth back to 0" 0 (Server.queue_depth server);
  (* Shared sub-solves crossed requests: the cache saw hits. *)
  let code, body = unwrap (Serve.get target "/status") in
  Alcotest.(check int) "/status answers" 200 code;
  let j = parse_json body in
  (match obj_field j "queue_depth" with
  | Some (J.Int 0) -> ()
  | other ->
      Alcotest.failf "queue_depth gauge not 0: %s"
        (match other with Some j -> J.to_string j | None -> "missing"));
  (match Option.bind (obj_field j "cache") (fun c -> obj_field c "hits") with
  | Some (J.Int hits) ->
      Alcotest.(check bool) "cache hit rate > 0" true (hits > 0)
  | _ -> Alcotest.failf "no cache counters in %s" body);
  match obj_field j "completed" with
  | Some (J.Int c) -> Alcotest.(check int) "all requests counted" n_requests c
  | _ -> Alcotest.fail "no completed counter"

(* --- telemetry fall-through --- *)

let test_builtins_still_served () =
  with_server @@ fun _server target ->
  let code, body = unwrap (Serve.get target "/metrics") in
  Alcotest.(check int) "/metrics answers" 200 code;
  Alcotest.(check bool) "queue gauge exported" true
    (Astring_contains.contains body "serve_queue_depth");
  let code, _ = unwrap (Serve.get target "/healthz") in
  Alcotest.(check int) "/healthz answers" 200 code;
  let code, _ = unwrap (Serve.get target "/nonesuch") in
  Alcotest.(check int) "unknown path 404s" 404 code

(* --- structured errors --- *)

let test_bad_requests () =
  with_server @@ fun _server target ->
  let code, body =
    unwrap (Serve.request ~meth:"POST" ~body:"not a matrix" target "/solve")
  in
  Alcotest.(check int) "bad matrix: 400" 400 code;
  (match obj_field (parse_json body) "error" with
  | Some (J.String _) -> ()
  | _ -> Alcotest.failf "no structured error in %s" body);
  let m = Gen.clustered ~rng:(rng 40) ~n_clusters:2 6 in
  let code, _ = unwrap (solve_req target ~query:"?method=quantum" m) in
  Alcotest.(check int) "unknown method: 400" 400 code;
  let code, _ = unwrap (Serve.get target "/solve") in
  Alcotest.(check int) "GET /solve: 405" 405 code;
  let code, body = unwrap (solve_req target ~query:"?method=exact" m) in
  Alcotest.(check int) "exact method accepted" 200 code;
  match obj_field (parse_json body) "n_blocks" with
  | Some (J.Int 1) -> ()
  | _ -> Alcotest.failf "exact run should report one block: %s" body

(* --- request ids --- *)

(* A hand-rolled request, for shapes the minimal client cannot produce
   (custom headers, a missing or lying Content-Length).  Shuts down the
   write side after sending so the server sees EOF instead of waiting
   for a body that never comes. *)
let raw_request target lines =
  match target with
  | Serve.Unix_sock _ -> Alcotest.fail "raw_request wants TCP"
  | Serve.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
          let req = String.concat "\r\n" lines in
          ignore (Unix.write_substring fd req 0 (String.length req));
          (try Unix.shutdown fd Unix.SHUTDOWN_SEND with _ -> ());
          let buf = Buffer.create 1024 in
          let chunk = Bytes.create 4096 in
          let rec drain () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
            | exception Unix.Unix_error _ -> ()
          in
          drain ();
          Buffer.contents buf)

let raw_status resp =
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> ( try int_of_string code with _ -> -1)
  | _ -> Alcotest.failf "unparseable response %S" resp

let contains = Astring_contains.contains

let test_request_ids () =
  let m = Gen.clustered ~rng:(rng 60) ~n_clusters:2 6 in
  with_server @@ fun _server target ->
  let code, headers, body =
    unwrap
      (Serve.request_full ~meth:"POST" ~body:(Matrix_io.to_phylip m) target
         "/solve")
  in
  Alcotest.(check int) "solve answers" 200 code;
  let rid =
    match List.assoc_opt "x-request-id" headers with
    | Some rid -> rid
    | None -> Alcotest.fail "no X-Request-Id response header"
  in
  Alcotest.(check bool) "minted id shape" true
    (String.length rid > 4 && String.sub rid 0 4 = "req-");
  (match obj_field (parse_json body) "request_id" with
  | Some (J.String jrid) ->
      Alcotest.(check string) "JSON field matches header" rid jrid
  | _ -> Alcotest.failf "no request_id in %s" body);
  (* A sane client-supplied id is honoured verbatim... *)
  let resp =
    raw_request target
      [ "GET /status HTTP/1.1"; "Host: x"; "X-Request-Id: cli-42"; ""; "" ]
  in
  Alcotest.(check bool) "client id echoed" true
    (contains resp "X-Request-Id: cli-42");
  (* ...one with forbidden characters is replaced by a minted one. *)
  let resp =
    raw_request target
      [ "GET /status HTTP/1.1"; "Host: x"; "X-Request-Id: not ok"; ""; "" ]
  in
  Alcotest.(check bool) "bad id replaced" true
    ((not (contains resp "not ok")) && contains resp "X-Request-Id: req-")

(* --- the listener's error paths --- *)

let test_listener_error_paths () =
  let handler ~request_id:_ ~meth:_ ~path ~query:_ ~body =
    match path with
    | "/boom" -> failwith "kaboom"
    | "/echo" ->
        Some (200, "text/plain", Printf.sprintf "%d bytes\n" (String.length body))
    | _ -> None
  in
  let srv = Serve.start ~handler () in
  Fun.protect
    ~finally:(fun () -> Serve.stop srv)
    (fun () ->
      let target = Serve.Tcp ("127.0.0.1", Option.get (Serve.port srv)) in
      (* A handler exception answers a complete 500 response (not a
         reset)... *)
      let code, _ = unwrap (Serve.get target "/boom") in
      Alcotest.(check int) "handler raise -> 500" 500 code;
      (* ...and the listener survives to serve the next request. *)
      let code, body =
        unwrap (Serve.request ~meth:"POST" ~body:"hello" target "/echo")
      in
      Alcotest.(check int) "listener survives" 200 code;
      Alcotest.(check string) "body delivered" "5 bytes\n" body;
      (* A declared Content-Length over the 8 MiB bound is refused with
         413 without the handler ever running (the echo handler would
         have answered 200). *)
      let resp =
        raw_request target
          [ "POST /echo HTTP/1.1"; "Host: x"; "Content-Length: 16777216"; ""; "" ]
      in
      Alcotest.(check int) "oversized declared body -> 413" 413
        (raw_status resp);
      (* A POST with no Content-Length reaches the handler with an empty
         body — no hang waiting for bytes that never come. *)
      let resp = raw_request target [ "POST /echo HTTP/1.1"; "Host: x"; ""; "" ] in
      Alcotest.(check int) "missing length -> 200" 200 (raw_status resp);
      Alcotest.(check bool) "empty body" true (contains resp "0 bytes"))

(* --- shutdown drains in-flight work --- *)

let test_stop_drains () =
  let config = Run_config.default |> Run_config.with_cache_dir (fresh_dir ()) in
  let server = Server.start ~config ~pool_workers:1 () in
  let target =
    match Server.port server with
    | Some p -> Serve.Tcp ("127.0.0.1", p)
    | None -> Alcotest.fail "expected a TCP port"
  in
  (* Several overlapping requests through a one-worker pool, so work
     queues up and stop very likely lands while some are in flight.
     (If the solves outrun the poll below, the drain property is
     exercised trivially — every answer must still arrive either
     way.) *)
  let m = Gen.uniform_metric ~rng:(rng 50) 12 in
  let n_requests = 3 in
  let results = Array.make n_requests (Error "not run") in
  let answered = Atomic.make 0 in
  let clients =
    Array.init n_requests (fun i ->
        Thread.create
          (fun () ->
            results.(i) <- solve_req target m;
            Atomic.incr answered)
          ())
  in
  (* Wait until the server has accepted every request (or already
     answered it, if the solves won the race): a request that only
     reaches the handler after [stop] is rightly refused with 503... *)
  let deadline = Unix.gettimeofday () +. 10. in
  while
    Server.queue_depth server + Atomic.get answered < n_requests
    && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  Alcotest.(check bool) "work was accepted" true
    (Server.queue_depth server > 0 || Atomic.get answered > 0);
  (* ...then stop: every accepted request must still be answered. *)
  Server.stop server;
  Compactphy.Subsolve_cache.uninstall ();
  Alcotest.(check int) "drained before stop returned" 0
    (Server.queue_depth server);
  Array.iter Thread.join clients;
  Array.iteri
    (fun i r ->
      let code, body = unwrap r in
      Alcotest.(check int)
        (Printf.sprintf "in-flight request %d answered" i)
        200 code;
      match obj_field (parse_json body) "optimal" with
      | Some (J.Bool _) -> ()
      | _ -> Alcotest.failf "unexpected response %s" body)
    results;
  (* New connections are refused once the listener is down. *)
  match solve_req target m with
  | Error _ -> ()
  | Ok (code, _) ->
      Alcotest.(check int) "post-stop request refused" 503 code

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "concurrent burst, cache hits, queue drains"
            `Quick test_concurrent_burst;
          Alcotest.test_case "builtin telemetry still served" `Quick
            test_builtins_still_served;
          Alcotest.test_case "structured errors" `Quick test_bad_requests;
          Alcotest.test_case "request ids minted and echoed" `Quick
            test_request_ids;
          Alcotest.test_case "listener error paths" `Quick
            test_listener_error_paths;
          Alcotest.test_case "stop drains in-flight requests" `Quick
            test_stop_drains;
        ] );
    ]
