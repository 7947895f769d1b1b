open Import
module J = Obs.Json

(* The TCP executor's frame layer: a 4-byte big-endian length prefix
   followed by one JSON document.  Every float that must survive the
   trip bit-exactly (matrix entries, tree heights, bounds, the gap
   tolerance) is a [%h] hex literal, the same encoding checkpoints use
   — a localhost pool is bit-identical to a sequential solve because
   nothing is ever re-rounded through decimal. *)

(* v2: job frames carry the run budget's polling period.
   v3: jobs carry the sub-solve cache opt-in; results carry cache
   provenance.
   v4: jobs carry an optional trace context; heartbeats carry the
   worker's monotonic clock and a process sample; results carry an
   optional worker-side trace payload (span batch + clock + sample) so
   the coordinator can merge worker spans into one timeline. *)
let version = 4

(* A block matrix is a few hundred species at most; 64 MiB of frame is
   already absurd, so anything larger is a protocol error, not a
   payload. *)
let max_frame_bytes = 64 * 1024 * 1024

(* One worker-recorded span, timestamped on the {e worker's} monotonic
   clock ([Obs.Clock.now_ns], absolute).  The coordinator translates
   into its own clock using the offset it estimates from heartbeats. *)
type span = {
  sp_name : string;
  sp_start_ns : int64;
  sp_dur_ns : int64;
  sp_args : (string * J.t) list;
}

(* The trace payload a worker ships back on a [Result]: the job's
   spans, the worker's clock at send time (one more offset sample for
   the coordinator), and a process sample for the [proc.worker<N>.*]
   gauges. *)
type remote_trace = {
  rt_spans : span list;
  rt_now_ns : int64;
  rt_proc : Obs.Procstat.sample option;
}

type frame =
  | Hello of { version : int }
  | Welcome of { version : int; worker_id : int }
  | Job of Executor.job
  | Cancel of { job_id : int }
  | Shutdown
  | Heartbeat of {
      job_id : int option;
      expanded : int;
      now_ns : int64;  (** worker clock at send ([0L] from old peers) *)
      proc : Obs.Procstat.sample option;
    }
  | Result of {
      job_id : int;
      solved : Executor.solved;
      trace : remote_trace option;
    }
  | Failure of { job_id : int; message : string }

(* --- field helpers (checkpoint-style result parsing) --- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let hex x = Printf.sprintf "%h" x

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name j =
  let* v = field name j in
  match J.to_int_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S must be an integer" name)

let string_field name j =
  let* v = field name j in
  match J.to_string_opt v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" name)

let bool_field name j =
  let* v = field name j in
  match v with
  | J.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let hex_float_field name j =
  let* s = string_field name j in
  match float_of_string_opt s with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S: bad float literal %S" name s)

(* Nanosecond timestamps travel as decimal strings: [J.Int] is the
   OCaml [int] (63-bit here, but not everywhere a trace might be read),
   and strings keep the framing honest about not re-rounding. *)
let int64_field name j =
  let* s = string_field name j in
  match Int64.of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field %S: bad int64 literal %S" name s)

let list_field name j =
  let* v = field name j in
  match J.to_list_opt v with
  | Some xs -> Ok xs
  | None -> Error (Printf.sprintf "field %S must be a list" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let enum_field name table j =
  let* s = string_field name j in
  match List.assoc_opt s table with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field %S: unknown value %S" name s)

(* --- matrices --- *)

(* Entries go as [i, j, "hex"] triples so the decoder never depends on
   the matrix iteration order of the peer's build. *)
let matrix_to_json m =
  let entries = ref [] in
  Dist_matrix.iter_pairs
    (fun i j d -> entries := J.List [ J.Int i; J.Int j; J.String (hex d) ] :: !entries)
    m;
  J.Obj [ ("n", J.Int (Dist_matrix.size m)); ("entries", J.List !entries) ]

let matrix_of_json j =
  let* n = int_field "n" j in
  let* () = if n >= 1 then Ok () else Error "matrix: n must be >= 1" in
  let* entries = list_field "entries" j in
  let a = Array.make_matrix n n 0. in
  let* () =
    let rec go = function
      | [] -> Ok ()
      | J.List [ J.Int i; J.Int jj; J.String h ] :: rest -> (
          if i < 0 || i >= n || jj < 0 || jj >= n then
            Error (Printf.sprintf "matrix: entry (%d,%d) out of range" i jj)
          else
            match float_of_string_opt h with
            | None -> Error (Printf.sprintf "matrix: bad float literal %S" h)
            | Some d ->
                a.(i).(jj) <- d;
                a.(jj).(i) <- d;
                go rest)
      | _ -> Error "matrix: entries must be [i, j, \"hex\"] triples"
    in
    go entries
  in
  Ok (Dist_matrix.init n (fun i jj -> a.(i).(jj)))

(* --- solver options --- *)

let options_to_json (o : Solver.options) =
  J.Obj
    [
      ("lb", J.enum Solver.lb_names o.Solver.lb);
      ("relation33", J.enum Solver.mode33_names o.Solver.relation33);
      ("initial_ub", J.enum Solver.initial_ub_names o.Solver.initial_ub);
      ( "max_expanded",
        match o.Solver.max_expanded with
        | Some cap -> J.Int cap
        | None -> J.Null );
      ("search", J.enum Strategy.exploration_names o.Solver.search);
      ("branching", J.enum Strategy.branching_names o.Solver.branching);
      ("gap", J.String (hex o.Solver.gap));
      ("collect_all", J.Bool o.Solver.collect_all);
      ("kernel", J.enum Kernel.kind_names o.Solver.kernel);
    ]

let options_of_json j =
  let* lb = enum_field "lb" Solver.lb_names j in
  let* relation33 = enum_field "relation33" Solver.mode33_names j in
  let* initial_ub = enum_field "initial_ub" Solver.initial_ub_names j in
  let* max_expanded =
    match J.member "max_expanded" j with
    | Some J.Null | None -> Ok None
    | Some v -> (
        match J.to_int_opt v with
        | Some cap -> Ok (Some cap)
        | None -> Error "field \"max_expanded\" must be an integer or null")
  in
  let* search = enum_field "search" Strategy.exploration_names j in
  let* branching = enum_field "branching" Strategy.branching_names j in
  let* gap = hex_float_field "gap" j in
  let* collect_all = bool_field "collect_all" j in
  let* kernel = enum_field "kernel" Kernel.kind_names j in
  Ok
    {
      Solver.lb;
      relation33;
      initial_ub;
      max_expanded;
      search;
      branching;
      gap;
      collect_all;
      kernel;
    }

(* --- stats (counters + full attribution cells) --- *)

let stats_to_json (s : Stats.t) =
  J.Obj
    [
      ("expanded", J.Int s.Stats.expanded);
      ("generated", J.Int s.Stats.generated);
      ("pruned", J.Int s.Stats.pruned);
      ("pruned_33", J.Int s.Stats.pruned_33);
      ("ub_updates", J.Int s.Stats.ub_updates);
      ("max_open", J.Int s.Stats.max_open);
      ("attribution", Obs.Attribution.cells_to_json s.Stats.att);
    ]

let stats_of_json j =
  let* expanded = int_field "expanded" j in
  let* generated = int_field "generated" j in
  let* pruned = int_field "pruned" j in
  let* pruned_33 = int_field "pruned_33" j in
  let* ub_updates = int_field "ub_updates" j in
  let* max_open = int_field "max_open" j in
  let* att_j = field "attribution" j in
  let* att = Obs.Attribution.cells_of_json att_j in
  Ok
    { Stats.expanded; generated; pruned; pruned_33; ub_updates; max_open; att }

(* --- trees, resume, status --- *)

let tree_to_json = Checkpoint.tree_to_json
let tree_of_json = Checkpoint.tree_of_json

let resume_to_json = function
  | None -> J.Null
  | Some (`Solved t) -> J.Obj [ ("solved", tree_to_json t) ]
  | Some (`Restart (r : Solver.resume)) ->
      J.Obj
        [
          ( "frontier",
            J.List
              (List.map
                 (fun (k, t) ->
                   J.Obj [ ("k", J.Int k); ("tree", tree_to_json t) ])
                 r.Solver.r_frontier) );
          ("ub", J.String (hex r.Solver.r_ub));
          ( "incumbent",
            match r.Solver.r_incumbent with
            | Some t -> tree_to_json t
            | None -> J.Null );
        ]

let resume_of_json = function
  | J.Null -> Ok None
  | j -> (
      match J.member "solved" j with
      | Some t ->
          let* t = tree_of_json t in
          Ok (Some (`Solved t))
      | None ->
          let* fr = list_field "frontier" j in
          let* r_frontier =
            map_result
              (fun e ->
                let* k = int_field "k" e in
                let* t = field "tree" e in
                let* t = tree_of_json t in
                Ok (k, t))
              fr
          in
          let* r_ub = hex_float_field "ub" j in
          let* r_incumbent =
            match J.member "incumbent" j with
            | Some J.Null | None -> Ok None
            | Some t ->
                let* t = tree_of_json t in
                Ok (Some t)
          in
          Ok (Some (`Restart { Solver.r_frontier; r_ub; r_incumbent })))

let status_of_json j =
  let* s = string_field "status" j in
  match Budget.status_of_string s with
  | Some st -> Ok st
  | None -> Error (Printf.sprintf "unknown status %S" s)

(* --- trace payloads --- *)

let span_to_json s =
  J.Obj
    [
      ("name", J.String s.sp_name);
      ("start_ns", J.String (Int64.to_string s.sp_start_ns));
      ("dur_ns", J.String (Int64.to_string s.sp_dur_ns));
      ("args", J.Obj s.sp_args);
    ]

let span_of_json j =
  let* sp_name = string_field "name" j in
  let* sp_start_ns = int64_field "start_ns" j in
  let* sp_dur_ns = int64_field "dur_ns" j in
  let sp_args =
    match J.member "args" j with Some (J.Obj kvs) -> kvs | _ -> []
  in
  Ok { sp_name; sp_start_ns; sp_dur_ns; sp_args }

let remote_trace_to_json t =
  J.Obj
    ([
       ("spans", J.List (List.map span_to_json t.rt_spans));
       ("now_ns", J.String (Int64.to_string t.rt_now_ns));
     ]
    @
    match t.rt_proc with
    | Some p -> [ ("proc", Obs.Procstat.to_json p) ]
    | None -> [])

let remote_trace_of_json j =
  let* spans = list_field "spans" j in
  let* rt_spans = map_result span_of_json spans in
  let* rt_now_ns = int64_field "now_ns" j in
  let* rt_proc =
    match J.member "proc" j with
    | Some J.Null | None -> Ok None
    | Some p ->
        let* p = Obs.Procstat.of_json p in
        Ok (Some p)
  in
  Ok { rt_spans; rt_now_ns; rt_proc }

(* --- jobs and results --- *)

let job_to_json (job : Executor.job) =
  J.Obj
    ([
      ("id", J.Int job.Executor.j_id);
      ("size", J.Int job.Executor.j_size);
      ("matrix", matrix_to_json job.Executor.j_matrix);
      ("options", options_to_json job.Executor.j_options);
      ("workers", J.Int job.Executor.j_workers);
      ( "node_share",
        match job.Executor.j_node_share with
        | Some s -> J.Int s
        | None -> J.Null );
      ("poll_every", J.Int job.Executor.j_poll_every);
      ("resume", resume_to_json job.Executor.j_resume);
      ("cache", J.Bool job.Executor.j_cache);
    ]
    (* The trace context only appears when the run minted one, so
       telemetry-off job frames stay byte-identical to v3's. *)
    @
    match job.Executor.j_trace with
    | Some tr -> [ ("trace", J.String tr) ]
    | None -> [])

let job_of_json j =
  let* j_id = int_field "id" j in
  let* j_size = int_field "size" j in
  let* mj = field "matrix" j in
  let* j_matrix = matrix_of_json mj in
  let* oj = field "options" j in
  let* j_options = options_of_json oj in
  let* j_workers = int_field "workers" j in
  let* j_node_share =
    match J.member "node_share" j with
    | Some J.Null | None -> Ok None
    | Some v -> (
        match J.to_int_opt v with
        | Some s -> Ok (Some s)
        | None -> Error "field \"node_share\" must be an integer or null")
  in
  let* j_poll_every = int_field "poll_every" j in
  let* rj = field "resume" j in
  let* j_resume = resume_of_json rj in
  let* j_cache = bool_field "cache" j in
  let* j_trace =
    match J.member "trace" j with
    | Some J.Null | None -> Ok None
    | Some v -> (
        match J.to_string_opt v with
        | Some tr -> Ok (Some tr)
        | None -> Error "field \"trace\" must be a string or null")
  in
  Ok
    {
      Executor.j_id;
      j_size;
      j_matrix;
      j_options;
      j_workers;
      j_node_share;
      j_poll_every;
      j_resume;
      j_cache;
      j_trace;
    }

let solved_to_json (s : Executor.solved) =
  J.Obj
    [
      ("stats", stats_to_json s.Executor.s_stats);
      ("tree", tree_to_json s.Executor.s_tree);
      ("status", Budget.status_to_json s.Executor.s_status);
      ("lb", J.String (hex s.Executor.s_lb));
      ("gap", J.String (hex s.Executor.s_gap));
      ("optimal", J.Bool s.Executor.s_optimal);
      ("frontier", J.List (List.map tree_to_json s.Executor.s_frontier));
      ("from_cache", J.Bool s.Executor.s_from_cache);
    ]

let solved_of_json j =
  let* sj = field "stats" j in
  let* s_stats = stats_of_json sj in
  let* tj = field "tree" j in
  let* s_tree = tree_of_json tj in
  let* s_status = status_of_json j in
  let* s_lb = hex_float_field "lb" j in
  let* s_gap = hex_float_field "gap" j in
  let* s_optimal = bool_field "optimal" j in
  let* fr = list_field "frontier" j in
  let* s_frontier = map_result tree_of_json fr in
  let* s_from_cache = bool_field "from_cache" j in
  Ok
    {
      Executor.s_stats;
      s_tree;
      s_status;
      s_lb;
      s_gap;
      s_optimal;
      s_frontier;
      s_from_cache;
    }

(* --- frames --- *)

let frame_to_json = function
  | Hello { version } ->
      J.Obj [ ("type", J.String "hello"); ("version", J.Int version) ]
  | Welcome { version; worker_id } ->
      J.Obj
        [
          ("type", J.String "welcome");
          ("version", J.Int version);
          ("worker_id", J.Int worker_id);
        ]
  | Job job -> J.Obj [ ("type", J.String "job"); ("job", job_to_json job) ]
  | Cancel { job_id } ->
      J.Obj [ ("type", J.String "cancel"); ("job", J.Int job_id) ]
  | Shutdown -> J.Obj [ ("type", J.String "shutdown") ]
  | Heartbeat { job_id; expanded; now_ns; proc } ->
      J.Obj
        ([
           ("type", J.String "heartbeat");
           ("job", match job_id with Some i -> J.Int i | None -> J.Null);
           ("expanded", J.Int expanded);
           ("now_ns", J.String (Int64.to_string now_ns));
         ]
        @
        match proc with
        | Some p -> [ ("proc", Obs.Procstat.to_json p) ]
        | None -> [])
  | Result { job_id; solved; trace } ->
      J.Obj
        ([
           ("type", J.String "result");
           ("job", J.Int job_id);
           ("solved", solved_to_json solved);
         ]
        @
        match trace with
        | Some t -> [ ("trace", remote_trace_to_json t) ]
        | None -> [])
  | Failure { job_id; message } ->
      J.Obj
        [
          ("type", J.String "failure");
          ("job", J.Int job_id);
          ("message", J.String message);
        ]

let frame_of_json j =
  let* ty = string_field "type" j in
  match ty with
  | "hello" ->
      let* version = int_field "version" j in
      Ok (Hello { version })
  | "welcome" ->
      let* version = int_field "version" j in
      let* worker_id = int_field "worker_id" j in
      Ok (Welcome { version; worker_id })
  | "job" ->
      let* jj = field "job" j in
      let* job = job_of_json jj in
      Ok (Job job)
  | "cancel" ->
      let* job_id = int_field "job" j in
      Ok (Cancel { job_id })
  | "shutdown" -> Ok Shutdown
  | "heartbeat" ->
      let* job_id =
        match J.member "job" j with
        | Some J.Null | None -> Ok None
        | Some v -> (
            match J.to_int_opt v with
            | Some i -> Ok (Some i)
            | None -> Error "heartbeat: field \"job\" must be int or null")
      in
      let* expanded = int_field "expanded" j in
      let* now_ns =
        match J.member "now_ns" j with
        | None -> Ok 0L
        | Some _ -> int64_field "now_ns" j
      in
      let* proc =
        match J.member "proc" j with
        | Some J.Null | None -> Ok None
        | Some p ->
            let* p = Obs.Procstat.of_json p in
            Ok (Some p)
      in
      Ok (Heartbeat { job_id; expanded; now_ns; proc })
  | "result" ->
      let* job_id = int_field "job" j in
      let* sj = field "solved" j in
      let* solved = solved_of_json sj in
      let* trace =
        match J.member "trace" j with
        | Some J.Null | None -> Ok None
        | Some t ->
            let* t = remote_trace_of_json t in
            Ok (Some t)
      in
      Ok (Result { job_id; solved; trace })
  | "failure" ->
      let* job_id = int_field "job" j in
      let* message = string_field "message" j in
      Ok (Failure { job_id; message })
  | _ -> Error (Printf.sprintf "unknown frame type %S" ty)

(* --- socket IO --- *)

type read_error = Eof | Bad of string

let write_all fd b off len =
  let rec go off len =
    if len > 0 then begin
      match Unix.write fd b off len with
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
    end
  in
  go off len

let write_frame fd frame =
  let payload = J.to_string (frame_to_json frame) in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

let read_exact fd b off len =
  let rec go off len =
    if len = 0 then Ok ()
    else
      match Unix.read fd b off len with
      | 0 -> Error Eof
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
  in
  go off len

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_exact fd hdr 0 4 with
  | Error _ as e -> e
  | Ok () -> (
      let len =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if len <= 0 || len > max_frame_bytes then
        Error (Bad (Printf.sprintf "bad frame length %d" len))
      else
        let b = Bytes.create len in
        match read_exact fd b 0 len with
        | Error _ as e -> e
        | Ok () -> (
            match J.of_string (Bytes.unsafe_to_string b) with
            | Error e -> Error (Bad (Printf.sprintf "bad frame JSON: %s" e))
            | Ok j -> (
                match frame_of_json j with
                | Error e -> Error (Bad e)
                | Ok f -> Ok f)))
