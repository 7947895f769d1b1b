(* Typed telemetry events.  One constructor per thing an operator wants
   to see happen *while* a solve runs; the recorder stamps each with a
   global sequence number, a relative timestamp and the writer's domain
   id.  Serialisation is NDJSON-friendly: one flat object per event,
   with a "kind" discriminant, so `/events` consumers and the flight
   recorder share one format. *)

type kind =
  | Incumbent of { cost : float }
  | Block_start of { id : int; size : int }
  | Block_finish of { id : int; size : int; solve_s : float; status : string }
  | Run_start of { n : int; n_blocks : int }
  | Checkpoint_write of { path : string }
  | Budget_stop of { status : string }
  | Heartbeat of {
      worker : int;
      expanded : int;
      pruned : int;
      open_nodes : int;
      ub : float;
      lb : float;
    }

let kind_name = function
  | Incumbent _ -> "incumbent"
  | Block_start _ -> "block_start"
  | Block_finish _ -> "block_finish"
  | Run_start _ -> "run_start"
  | Checkpoint_write _ -> "checkpoint_write"
  | Budget_stop _ -> "budget_stop"
  | Heartbeat _ -> "heartbeat"

(* Payload fields only; the envelope (seq, t_s, domain, kind) is the
   recorder's business. *)
let kind_fields = function
  | Incumbent { cost } -> [ ("cost", Json.Float cost) ]
  | Block_start { id; size } ->
      [ ("id", Json.Int id); ("size", Json.Int size) ]
  | Block_finish { id; size; solve_s; status } ->
      [
        ("id", Json.Int id);
        ("size", Json.Int size);
        ("solve_s", Json.Float solve_s);
        ("status", Json.String status);
      ]
  | Run_start { n; n_blocks } ->
      [ ("n", Json.Int n); ("n_blocks", Json.Int n_blocks) ]
  | Checkpoint_write { path } -> [ ("path", Json.String path) ]
  | Budget_stop { status } -> [ ("status", Json.String status) ]
  | Heartbeat { worker; expanded; pruned; open_nodes; ub; lb } ->
      [
        ("worker", Json.Int worker);
        ("expanded", Json.Int expanded);
        ("pruned", Json.Int pruned);
        ("open", Json.Int open_nodes);
        ("ub", Json.Float ub);
        ("lb", Json.Float lb);
      ]

let to_json ~seq ~t_s ~domain kind =
  Json.Obj
    (("seq", Json.Int seq)
    :: ("t_s", Json.Float t_s)
    :: ("domain", Json.Int domain)
    :: ("kind", Json.String (kind_name kind))
    :: kind_fields kind)

(* Parsing, for `phylo top` reading `/events` NDJSON back.  Missing
   numeric fields default to 0 / NaN rather than failing: a newer
   server must stay readable by an older top. *)
let of_json j =
  let int k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int_opt) in
  let flt k =
    Option.value ~default:Float.nan
      (Option.bind (Json.member k j) Json.to_float_opt)
  in
  let str k =
    Option.value ~default:""
      (Option.bind (Json.member k j) Json.to_string_opt)
  in
  match Option.bind (Json.member "kind" j) Json.to_string_opt with
  | Some "incumbent" -> Some (Incumbent { cost = flt "cost" })
  | Some "block_start" -> Some (Block_start { id = int "id"; size = int "size" })
  | Some "block_finish" ->
      Some
        (Block_finish
           {
             id = int "id";
             size = int "size";
             solve_s = flt "solve_s";
             status = str "status";
           })
  | Some "run_start" ->
      Some (Run_start { n = int "n"; n_blocks = int "n_blocks" })
  | Some "checkpoint_write" -> Some (Checkpoint_write { path = str "path" })
  | Some "budget_stop" -> Some (Budget_stop { status = str "status" })
  | Some "heartbeat" ->
      Some
        (Heartbeat
           {
             worker = int "worker";
             expanded = int "expanded";
             pruned = int "pruned";
             open_nodes = int "open";
             ub = flt "ub";
             lb = flt "lb";
           })
  | Some _ | None -> None
