let src = Logs.Src.create "obs.progress" ~doc:"Live branch-and-bound progress"

module Log = (val Logs.src_log src : Logs.LOG)

type sink =
  | Log_lines
  | Ndjson of out_channel
  | Status_line of { tty : bool }

let status_line () =
  (* ANSI rewrites only make sense on an interactive terminal; a
     redirected stderr (CI logs, nohup, | tee) gets one plain line per
     rate-limited tick instead of carriage returns mid-file. *)
  Status_line { tty = Unix.isatty Unix.stderr }

type t = {
  interval_ns : int64;
  next_due : int64 Atomic.t;
  sink : sink;
  out_lock : Mutex.t;
  t0 : int64;
}

let create ?(interval_s = 0.5) ?(sink = Log_lines) () =
  let now = Clock.now_ns () in
  {
    interval_ns = Int64.of_float (interval_s *. 1e9);
    next_due = Atomic.make now;
    sink;
    out_lock = Mutex.create ();
    t0 = now;
  }

let gap_pct ~ub ~lb =
  if Float.is_finite ub && Float.is_finite lb && ub > 0. then
    (ub -. lb) /. ub *. 100.
  else Float.nan

let emit t ~now ~worker ~expanded ~pruned ~open_depth ~ub ~lb =
  let elapsed_s = Clock.ns_to_s (Int64.sub now t.t0) in
  match t.sink with
  | Status_line { tty } ->
      let line =
        Printf.sprintf
          "[w%d] t=%.1fs expanded=%d pruned=%d open=%d ub=%g lb=%g gap=%.2f%%"
          worker elapsed_s expanded pruned open_depth ub lb (gap_pct ~ub ~lb)
      in
      Mutex.lock t.out_lock;
      if tty then output_string stderr ("\r\x1b[2K" ^ line)
      else output_string stderr (line ^ "\n");
      flush stderr;
      Mutex.unlock t.out_lock
  | Log_lines ->
      Log.info (fun m ->
          m
            "[w%d] t=%.1fs expanded=%d pruned=%d open=%d ub=%g lb=%g \
             gap=%.2f%%"
            worker elapsed_s expanded pruned open_depth ub lb
            (gap_pct ~ub ~lb))
  | Ndjson oc ->
      let line =
        Json.to_string
          (Json.Obj
             [
               ("t_s", Json.Float elapsed_s);
               ("worker", Json.Int worker);
               ("expanded", Json.Int expanded);
               ("pruned", Json.Int pruned);
               ("open", Json.Int open_depth);
               ("ub", Json.Float ub);
               ("lb", Json.Float lb);
               ("gap_pct", Json.Float (gap_pct ~ub ~lb));
             ])
      in
      Mutex.lock t.out_lock;
      output_string oc line;
      output_char oc '\n';
      flush oc;
      Mutex.unlock t.out_lock

let observe t = function
  | Events.Heartbeat { worker; expanded; pruned; open_nodes; ub; lb } ->
      let now = Clock.now_ns () in
      let due = Atomic.get t.next_due in
      (* The CAS makes sure a single heartbeat wins each tick, so every
         worker's heartbeats can feed one sink at one line per
         interval. *)
      if
        now >= due
        && Atomic.compare_and_set t.next_due due (Int64.add now t.interval_ns)
      then
        emit t ~now ~worker ~expanded ~pruned ~open_depth:open_nodes ~ub ~lb
  | _ -> ()
