type status = Exact | Deadline | Node_cap | Cancelled

let status_to_string = function
  | Exact -> "exact"
  | Deadline -> "deadline"
  | Node_cap -> "node_cap"
  | Cancelled -> "cancelled"

let status_of_string = function
  | "exact" -> Some Exact
  | "deadline" -> Some Deadline
  | "node_cap" -> Some Node_cap
  | "cancelled" -> Some Cancelled
  | _ -> None

let status_to_json s = Obs.Json.String (status_to_string s)

type t = {
  deadline_s : float option;
  max_nodes : int option;
  cancel : bool Atomic.t option;
  poll_every : int;
}

let unlimited =
  { deadline_s = None; max_nodes = None; cancel = None; poll_every = 32 }

let create ?deadline_s ?max_nodes ?cancel ?(poll_every = 32) () =
  (match deadline_s with
  | Some d when not (d > 0. && Float.is_finite d) ->
      invalid_arg
        (Printf.sprintf "Budget.create: deadline_s = %g (must be > 0)" d)
  | Some _ | None -> ());
  (match max_nodes with
  | Some cap when cap <= 0 ->
      invalid_arg
        (Printf.sprintf "Budget.create: max_nodes = %d (must be > 0)" cap)
  | Some _ | None -> ());
  if poll_every <= 0 then
    invalid_arg
      (Printf.sprintf "Budget.create: poll_every = %d (must be > 0)"
         poll_every);
  { deadline_s; max_nodes; cancel; poll_every }

let is_unlimited b =
  b.deadline_s = None && b.max_nodes = None && b.cancel = None

let deadline_s b = b.deadline_s
let max_nodes b = b.max_nodes
let poll_every b = b.poll_every

type monitor = {
  budget : t;
  clock : Obs.Clock.counter;
  node_count : int Atomic.t;
  state : status option Atomic.t;
  parent : monitor option;
}

let arm budget =
  {
    budget;
    clock = Obs.Clock.counter ();
    node_count = Atomic.make 0;
    state = Atomic.make None;
    parent = None;
  }

let sub ?max_nodes ?poll_every m =
  let poll_every =
    match poll_every with
    | None -> m.budget.poll_every
    | Some p when p <= 0 ->
        invalid_arg
          (Printf.sprintf "Budget.sub: poll_every = %d (must be > 0)" p)
    | Some p -> p
  in
  {
    budget = { max_nodes; poll_every; deadline_s = None; cancel = None };
    clock = m.clock;
    node_count = Atomic.make 0;
    state = Atomic.make None;
    parent = Some m;
  }

let spec m = m.budget
let tripped m = Atomic.get m.state
let nodes m = Atomic.get m.node_count

let trip m s =
  (* First trip wins: the status must not change once a worker saw it. *)
  ignore (Atomic.compare_and_set m.state None (Some s))

let cancel_requested m =
  match m.budget.cancel with Some flag -> Atomic.get flag | None -> false

let rec check m =
  match Atomic.get m.state with
  | Some _ as s -> s
  | None ->
      let verdict =
        match m.parent with
        | Some p -> (
            match check p with Some _ as s -> s | None -> None)
        | None -> None
      in
      let verdict =
        match verdict with
        | Some _ -> verdict
        | None ->
            if cancel_requested m then Some Cancelled
            else begin
              match m.budget.deadline_s with
              | Some d when Obs.Clock.elapsed_s m.clock >= d -> Some Deadline
              | _ -> (
                  match m.budget.max_nodes with
                  | Some cap when Atomic.get m.node_count >= cap ->
                      Some Node_cap
                  | _ -> None)
            end
      in
      (match verdict with Some s -> trip m s | None -> ());
      verdict

type ticker = { m : monitor; mutable pending : int }

let ticker m = { m; pending = 0 }

let rec charge m k =
  ignore (Atomic.fetch_and_add m.node_count k);
  match m.parent with Some p -> charge p k | None -> ()

let flush tk =
  if tk.pending > 0 then begin
    charge tk.m tk.pending;
    tk.pending <- 0
  end

let tick tk =
  tk.pending <- tk.pending + 1;
  if tk.pending >= tk.m.budget.poll_every then begin
    flush tk;
    check tk.m
  end
  else Atomic.get tk.m.state
