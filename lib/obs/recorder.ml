(* A lock-free flight recorder: the last ~capacity telemetry events,
   cheap enough to leave armed through a branch-and-bound inner loop.

   Layout mirrors [Metrics]: the buffer is sharded into [n_shards]
   rings and a writer only touches the ring indexed by its domain id,
   so concurrent workers do not contend on a head pointer.  Each ring
   is a fixed array of slots; a write claims the next slot index with
   one [fetch_and_add] (two domains can share a shard when there are
   more than [n_shards] of them) and publishes the boxed entry with one
   atomic store.  A full ring overwrites its oldest slot instead of
   blocking or allocating: the per-shard overwrite count is the drop
   counter.  Readers snapshot by scanning the slots — a reader racing a
   wrap can miss an entry that is being overwritten, never see a torn
   one (entries are immutable records published by pointer store). *)

let n_shards = 16 (* power of two, like Metrics *)

type entry = { seq : int; t_s : float; domain : int; kind : Events.kind }

type shard = {
  slots : entry option Atomic.t array;
  next : int Atomic.t;  (* total writes to this shard *)
}

type t = {
  shards : shard array;
  shard_capacity : int;
  seq : int Atomic.t;  (* global sequence; first event gets 1 *)
  origin : int64;  (* monotonic ns at creation *)
  last_emit_ns : int64 Atomic.t;  (* 0 until the first event *)
  progress : Progress.t option;  (* sees every event after it is stored *)
}

let create ?(capacity = 4096) ?progress () =
  if capacity < n_shards then
    invalid_arg
      (Printf.sprintf "Obs.Recorder.create: capacity %d < %d shards" capacity
         n_shards);
  let shard_capacity = capacity / n_shards in
  {
    shards =
      Array.init n_shards (fun _ ->
          {
            slots = Array.init shard_capacity (fun _ -> Atomic.make None);
            next = Atomic.make 0;
          });
    shard_capacity;
    seq = Atomic.make 0;
    origin = Clock.now_ns ();
    last_emit_ns = Atomic.make 0L;
    progress;
  }

let capacity t = t.shard_capacity * n_shards

let emit t kind =
  let now = Clock.now_ns () in
  let entry =
    {
      seq = 1 + Atomic.fetch_and_add t.seq 1;
      t_s = Clock.ns_to_s (Int64.sub now t.origin);
      domain = (Domain.self () :> int);
      kind;
    }
  in
  let shard = t.shards.(entry.domain land (n_shards - 1)) in
  let i = Atomic.fetch_and_add shard.next 1 in
  Atomic.set shard.slots.(i mod t.shard_capacity) (Some entry);
  Atomic.set t.last_emit_ns now;
  match t.progress with None -> () | Some p -> Progress.observe p kind

let last_seq t = Atomic.get t.seq

let dropped t =
  Array.fold_left
    (fun acc s -> acc + Int.max 0 (Atomic.get s.next - t.shard_capacity))
    0 t.shards

let snapshot ?(since = 0) t =
  let acc = ref [] in
  Array.iter
    (fun s ->
      Array.iter
        (fun slot ->
          match (Atomic.get slot : entry option) with
          | Some e when e.seq > since -> acc := e :: !acc
          | Some _ | None -> ())
        s.slots)
    t.shards;
  List.sort (fun (a : entry) b -> compare a.seq b.seq) !acc

let heartbeat_staleness_s t =
  match Atomic.get t.last_emit_ns with
  | 0L -> None
  | last -> Some (Clock.ns_to_s (Int64.sub (Clock.now_ns ()) last))

(* --- ambient instance --- *)

let ambient : t option Atomic.t = Atomic.make None

let install t = Atomic.set ambient (Some t)
let uninstall () = Atomic.set ambient None
let installed () = Atomic.get ambient

let emit_ambient kind =
  match Atomic.get ambient with None -> () | Some t -> emit t kind

(* --- rate-limited worker pulses ---

   One per worker loop; [sample] costs a single atomic load when no
   recorder is installed.  When one is, even a monotonic-clock read per
   expansion is measurable (~10% on the cheapest solves), so the clock
   is only consulted every [check_every] calls: a plain countdown
   decrement is the steady-state cost.  The countdown is deliberately
   non-atomic — each pulse has a single owner (one worker loop); two
   racing owners would only skew the heartbeat cadence, never corrupt
   the recorder. *)

let check_every = 32

type pulse = {
  interval_ns : int64;
  next_due : int64 Atomic.t;
  mutable countdown : int;  (* calls until the next clock check *)
}

let pulse ?(interval_s = 0.5) () =
  {
    interval_ns = Int64.of_float (interval_s *. 1e9);
    next_due = Atomic.make Int64.min_int;
    countdown = 1 (* first call checks, so short runs still heartbeat *);
  }

let sample p ~worker ~expanded ~pruned ~open_nodes ~ub ~lb =
  match Atomic.get ambient with
  | None -> false
  | Some t ->
      p.countdown <- p.countdown - 1;
      if p.countdown > 0 then false
      else begin
        p.countdown <- check_every;
        let now = Clock.now_ns () in
        let due = Atomic.get p.next_due in
        if
          now >= due
          && Atomic.compare_and_set p.next_due due
               (Int64.add now p.interval_ns)
        then begin
          emit t
            (Events.Heartbeat { worker; expanded; pruned; open_nodes; ub; lb });
          true
        end
        else false
      end

(* --- serialisation --- *)

let entry_to_json (e : entry) =
  Events.to_json ~seq:e.seq ~t_s:e.t_s ~domain:e.domain e.kind

let to_ndjson entries =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Json.to_buffer buf (entry_to_json e);
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let flight_to_json t =
  Json.Obj
    [
      ("flight_recorder", Json.Bool true);
      ("written_at", Json.String (Report.iso8601 (Unix.gettimeofday ())));
      ("capacity", Json.Int (capacity t));
      ("last_seq", Json.Int (last_seq t));
      ("dropped", Json.Int (dropped t));
      ("events", Json.List (List.map entry_to_json (snapshot t)));
    ]

let dump_flight t path = Json.write_file path (flight_to_json t)
