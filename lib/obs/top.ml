(* The pure half of [phylo top]: fold polled /events + /metrics bodies
   into a state, render the state to a string.  No sockets, no clocks,
   no terminal probing — the CLI owns those — so the whole view is
   snapshot-testable from canned inputs. *)

(* --- a small Prometheus text-exposition reader --- *)

type sample =
  | Counter of float
  | Gauge of float
  | Histogram of { buckets : (float * float) list; sum : float; count : float }
      (* buckets: (le upper bound, cumulative count), in exposition order *)

let float_of_exposition s =
  match s with
  | "+Inf" | "Inf" -> Float.infinity
  | "-Inf" -> Float.neg_infinity
  | "NaN" -> Float.nan
  | s -> ( match float_of_string_opt s with Some v -> v | None -> Float.nan)

(* "name{le=\"2\"} 17" -> (name, Some le, value) *)
let parse_sample_line line =
  let sp =
    match String.rindex_opt line ' ' with Some i -> i | None -> -1
  in
  if sp <= 0 then None
  else
    let value =
      float_of_exposition (String.sub line (sp + 1) (String.length line - sp - 1))
    in
    let name_part = String.sub line 0 sp in
    match String.index_opt name_part '{' with
    | None -> Some (name_part, None, value)
    | Some b ->
        let name = String.sub name_part 0 b in
        let labels = String.sub name_part b (String.length name_part - b) in
        let le =
          (* only the le label matters to us *)
          let marker = "le=\"" in
          let rec find i =
            if i + String.length marker > String.length labels then None
            else if String.sub labels i (String.length marker) = marker then
              let start = i + String.length marker in
              match String.index_from_opt labels start '"' with
              | Some e -> Some (String.sub labels start (e - start))
              | None -> None
            else find (i + 1)
          in
          find 0
        in
        Some (name, Option.map float_of_exposition le, value)

let parse_prometheus body =
  (* Two passes: learn the TYPE of each name, then fold samples.
     Histogram series arrive as name_bucket/name_sum/name_count. *)
  let lines = String.split_on_char '\n' body in
  let types = Hashtbl.create 32 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "#"; "TYPE"; name; kind ] -> Hashtbl.replace types name kind
      | _ -> ())
    lines;
  let hists = Hashtbl.create 8 in
  let get_hist name =
    match Hashtbl.find_opt hists name with
    | Some h -> h
    | None ->
        let h = (ref [], ref 0., ref 0.) in
        Hashtbl.add hists name h;
        h
  in
  let strip_suffix ~suffix s =
    let ls = String.length s and lx = String.length suffix in
    if ls > lx && String.sub s (ls - lx) lx = suffix then
      Some (String.sub s 0 (ls - lx))
    else None
  in
  let flat = ref [] in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        match parse_sample_line line with
        | None -> ()
        | Some (name, le, value) -> (
            let hist_base suffix =
              match strip_suffix ~suffix name with
              | Some base when Hashtbl.find_opt types base = Some "histogram"
                -> Some base
              | _ -> None
            in
            match (hist_base "_bucket", hist_base "_sum", hist_base "_count") with
            | Some base, _, _ ->
                let buckets, _, _ = get_hist base in
                let le = Option.value ~default:Float.infinity le in
                buckets := (le, value) :: !buckets
            | _, Some base, _ ->
                let _, sum, _ = get_hist base in
                sum := value
            | _, _, Some base ->
                let _, _, count = get_hist base in
                count := value
            | None, None, None ->
                let sample =
                  if Hashtbl.find_opt types name = Some "counter" then
                    Counter value
                  else Gauge value
                in
                flat := (name, sample) :: !flat))
    lines;
  let hist_samples =
    Hashtbl.fold
      (fun name (buckets, sum, count) acc ->
        ( name,
          Histogram
            { buckets = List.rev !buckets; sum = !sum; count = !count } )
        :: acc)
      hists []
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (!flat @ hist_samples)

let find metrics name = List.assoc_opt name metrics

let value metrics name =
  match find metrics name with
  | Some (Counter v) | Some (Gauge v) -> Some v
  | _ -> None

(* --- quantiles over sorted samples (block solve times from events) --- *)

let quantile_of_sorted xs q =
  match Array.length xs with
  | 0 -> Float.nan
  | n ->
      let q = Float.min 1. (Float.max 0. q) in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then xs.(n - 1)
      else
        let frac = pos -. float_of_int i in
        xs.(i) +. (frac *. (xs.(i + 1) -. xs.(i)))

(* --- state --- *)

type worker_row = {
  worker : int;
  expanded : int;
  pruned : int;
  open_nodes : int;
  ub : float;
  lb : float;
  seen_t_s : float;  (* the heartbeat's own t_s *)
}

type state = {
  last_seq : int;
  dropped : int;
  incumbent : float option;
  incumbents : int;  (* how many improvements seen *)
  run_n : int option;
  run_blocks : int option;
  blocks_done : int;
  block_solves_s : float list;  (* newest first *)
  running_blocks : (int * int) list;  (* id, size — started, not finished *)
  budget_status : string option;
  checkpoints : int;
  workers : worker_row list;  (* sorted by worker id *)
  metrics : (string * sample) list;
  (* nodes/s between the two most recent updates *)
  rate_basis : (float * float) option;  (* now_s, bnb_expanded *)
  nodes_per_s : float option;
  polls : int;
}

let init =
  {
    last_seq = 0;
    dropped = 0;
    incumbent = None;
    incumbents = 0;
    run_n = None;
    run_blocks = None;
    blocks_done = 0;
    block_solves_s = [];
    running_blocks = [];
    budget_status = None;
    checkpoints = 0;
    workers = [];
    metrics = [];
    rate_basis = None;
    nodes_per_s = None;
    polls = 0;
  }

let last_seq t = t.last_seq

let apply_event st j =
  let seq =
    Option.value ~default:0 (Option.bind (Json.member "seq" j) Json.to_int_opt)
  in
  let t_s =
    Option.value ~default:0.
      (Option.bind (Json.member "t_s" j) Json.to_float_opt)
  in
  let st = { st with last_seq = Int.max st.last_seq seq } in
  match Events.of_json j with
  | None -> st
  | Some kind -> (
      match kind with
      | Events.Incumbent { cost } ->
          let better =
            match st.incumbent with None -> true | Some c -> cost < c
          in
          {
            st with
            incumbent = (if better then Some cost else st.incumbent);
            incumbents = st.incumbents + 1;
          }
      | Events.Run_start { n; n_blocks } ->
          {
            st with
            run_n = Some n;
            run_blocks = Some n_blocks;
            blocks_done = 0;
            block_solves_s = [];
            running_blocks = [];
          }
      | Events.Block_start { id; size } ->
          { st with running_blocks = (id, size) :: st.running_blocks }
      | Events.Block_finish { id; solve_s; _ } ->
          {
            st with
            blocks_done = st.blocks_done + 1;
            block_solves_s = solve_s :: st.block_solves_s;
            running_blocks =
              List.filter (fun (i, _) -> i <> id) st.running_blocks;
          }
      | Events.Checkpoint_write _ -> { st with checkpoints = st.checkpoints + 1 }
      | Events.Budget_stop { status } -> { st with budget_status = Some status }
      | Events.Heartbeat { worker; expanded; pruned; open_nodes; ub; lb } ->
          let row =
            { worker; expanded; pruned; open_nodes; ub; lb; seen_t_s = t_s }
          in
          let others = List.filter (fun w -> w.worker <> worker) st.workers in
          {
            st with
            workers =
              List.sort (fun a b -> compare a.worker b.worker) (row :: others);
          })

(* The bnb_expanded counter only advances when a block solve finishes
   and flushes its stats, so a long single-block run would show no rate
   at all; fall back to the live per-worker heartbeat counters then. *)
let expanded_estimate st metrics =
  match value metrics "bnb_expanded" with
  | Some e -> Some e
  | None -> (
      match st.workers with
      | [] -> None
      | ws ->
          Some
            (List.fold_left
               (fun acc w -> acc +. float_of_int w.expanded)
               0. ws))

let update st ~now_s ~events ~metrics ~dropped =
  let st = List.fold_left apply_event st events in
  let expanded = expanded_estimate st metrics in
  let nodes_per_s, rate_basis =
    match (expanded, st.rate_basis) with
    | Some e, Some (t0, e0) when now_s > t0 ->
        (Some (Float.max 0. ((e -. e0) /. (now_s -. t0))), Some (now_s, e))
    | Some e, _ -> (st.nodes_per_s, Some (now_s, e))
    | None, basis -> (st.nodes_per_s, basis)
  in
  { st with metrics; dropped; nodes_per_s; rate_basis; polls = st.polls + 1 }

(* --- rendering --- *)

let fmt_f v =
  if Float.is_nan v then "-"
  else if Float.is_integer v && Float.abs v < 1e12 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let fmt_opt = function None -> "-" | Some v -> fmt_f v

let fmt_si v =
  if Float.is_nan v then "-"
  else if v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let prune_reasons =
  [ "incumbent"; "lb1_suffix"; "filter_33"; "kernel_threshold"; "budget_stop" ]

let render_plain st =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let gap =
    match st.incumbent with
    | Some ub when ub > 0. -> (
        (* best over workers' reported lower bounds *)
        let lbs =
          List.filter_map
            (fun w -> if Float.is_nan w.lb then None else Some w.lb)
            st.workers
        in
        match lbs with
        | [] -> None
        | lbs ->
            let lb = List.fold_left Float.min Float.infinity lbs in
            if Float.is_finite lb then Some (100. *. (ub -. lb) /. ub) else None)
    | _ -> None
  in
  line "phylo top — incumbent %s (%d improvement%s)%s%s"
    (fmt_opt st.incumbent) st.incumbents
    (if st.incumbents = 1 then "" else "s")
    (match gap with
    | Some g -> Printf.sprintf "  gap %.1f%%" (Float.max 0. g)
    | None -> "")
    (match st.budget_status with
    | Some s -> Printf.sprintf "  [budget: %s]" s
    | None -> "");
  (match (st.run_n, st.run_blocks) with
  | Some n, Some blocks ->
      let solves = Array.of_list (List.sort compare st.block_solves_s) in
      line "run: n=%d  blocks %d/%d done%s%s" n st.blocks_done blocks
        (match st.running_blocks with
        | [] -> ""
        | rb -> Printf.sprintf "  (%d running)" (List.length rb))
        (if Array.length solves = 0 then ""
         else
           Printf.sprintf "  block solve p50 %.3fs p95 %.3fs"
             (quantile_of_sorted solves 0.50)
             (quantile_of_sorted solves 0.95))
  | _ -> ());
  let expanded = expanded_estimate st st.metrics in
  let queue = value st.metrics "domain_pool_queue_depth" in
  let busy = value st.metrics "domain_pool_busy" in
  let pool_size = value st.metrics "domain_pool_size" in
  line "nodes: %s expanded  %s nodes/s%s%s"
    (match expanded with Some e -> fmt_si e | None -> "-")
    (match st.nodes_per_s with Some r -> fmt_si r | None -> "-")
    (match queue with
    | Some q when Float.is_finite q -> Printf.sprintf "  queue %s" (fmt_f q)
    | _ -> "")
    (match (busy, pool_size) with
    | Some bu, Some sz when Float.is_finite bu && Float.is_finite sz ->
        Printf.sprintf "  busy %s/%s" (fmt_f bu) (fmt_f sz)
    | Some bu, _ when Float.is_finite bu ->
        Printf.sprintf "  busy %s" (fmt_f bu)
    | _ -> "");
  (* prune-reason shares from bnb_pruned_<reason> counters *)
  let reason_counts =
    List.filter_map
      (fun r ->
        match value st.metrics ("bnb_pruned_" ^ r) with
        | Some v when v > 0. -> Some (r, v)
        | _ -> None)
      prune_reasons
  in
  (match reason_counts with
  | [] -> ()
  | counts ->
      let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. counts in
      line "prune: %s"
        (String.concat "  "
           (List.map
              (fun (r, v) ->
                Printf.sprintf "%s %.1f%%" r (100. *. v /. total))
              counts)));
  List.iter
    (fun w ->
      (* TCP workers piggyback a Procstat sample on every heartbeat; the
         coordinator republishes it as proc.worker<N>.* gauges, which the
         /metrics scrape sanitises to proc_worker<N>_... names. *)
      let rss =
        match
          value st.metrics (Printf.sprintf "proc_worker%d_rss_bytes" w.worker)
        with
        | Some r when Float.is_finite r && r > 0. ->
            Printf.sprintf "  rss %sB" (fmt_si r)
        | _ -> ""
      in
      line "worker %d: expanded %s  pruned %s  open %s  ub %s  lb %s%s"
        w.worker
        (fmt_si (float_of_int w.expanded))
        (fmt_si (float_of_int w.pruned))
        (fmt_si (float_of_int w.open_nodes))
        (fmt_f w.ub) (fmt_f w.lb) rss)
    st.workers;
  line "events: last_seq %d  dropped %d  checkpoints %d  polls %d" st.last_seq
    st.dropped st.checkpoints st.polls;
  Buffer.contents b

let render ~tty st =
  if tty then
    (* Home + clear-to-end keeps the repaint flicker-free; the trailing
       clear handles a view that shrank since the last frame. *)
    "\x1b[H" ^ render_plain st ^ "\x1b[J"
  else render_plain st
