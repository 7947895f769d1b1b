(** A lock-free, fixed-capacity flight recorder of typed {!Events}.

    Keeps the last ~[capacity] events in per-domain ring shards (laid
    out like {!Metrics}: a writer touches only the shard indexed by its
    domain id).  A full shard {e overwrites} its oldest entry instead of
    blocking — {!dropped} counts the overwrites — so recording stays
    O(1) and allocation-light however far behind the readers are.

    Install one instance as the ambient recorder and the solvers emit
    incumbent improvements, block lifecycles, budget stops and worker
    heartbeats into it; [/events] ({!Serve}) streams it, a {!Progress}
    sink prints its heartbeats, and {!dump_flight} serialises the tail
    next to the Chrome trace when a run dies (SIGINT, uncaught
    exception, budget stop).  With no recorder installed every emit
    site is a single atomic load. *)

type t

val create : ?capacity:int -> ?progress:Progress.t -> unit -> t
(** [capacity] (default 4096, at least 16) is split evenly over 16
    domain shards; a single-domain writer therefore keeps the last
    [capacity/16] events.  [progress] is handed every emitted event
    ({!Progress.observe}), which is how [--progress] reads the worker
    heartbeats.
    @raise Invalid_argument when [capacity < 16]. *)

val capacity : t -> int

type entry = { seq : int; t_s : float; domain : int; kind : Events.kind }
(** [seq] is the global, gap-free emission number (from 1); [t_s] is
    seconds since the recorder was created. *)

val emit : t -> Events.kind -> unit
(** Record one event: one [fetch_and_add] on the global sequence, one
    on the shard cursor, one pointer store, then pass it to the
    [progress] sink if there is one.  Never blocks, except that a
    heartbeat the sink prints takes the sink's output lock. *)

val last_seq : t -> int
val dropped : t -> int
(** Events overwritten before {!snapshot} could have seen them. *)

val snapshot : ?since:int -> t -> entry list
(** Retained events with [seq > since], in sequence order.  A snapshot
    racing concurrent writers can miss entries being overwritten but
    never yields a torn or duplicated one. *)

val heartbeat_staleness_s : t -> float option
(** Seconds since the last emit of any kind; [None] before the first.
    What [/healthz] reports as worker-health staleness. *)

(** {1 Ambient instance} *)

val install : t -> unit
val uninstall : unit -> unit
val installed : unit -> t option

val emit_ambient : Events.kind -> unit
(** Emit into the installed recorder; a no-op (one atomic load) when
    none is installed — emit sites stay in place permanently. *)

(** {1 Rate-limited worker pulses} *)

type pulse

val pulse : ?interval_s:float -> unit -> pulse
(** One per worker loop; [interval_s] defaults to 0.5 s. *)

val sample :
  pulse ->
  worker:int ->
  expanded:int ->
  pruned:int ->
  open_nodes:int ->
  ub:float ->
  lb:float ->
  bool
(** Emit a {!Events.Heartbeat} at most once per interval.  One atomic
    load when no recorder is installed; one countdown decrement on most
    calls when one is (the clock is only read every 32nd call).  Returns
    [true] when this call actually emitted — callers piggyback other
    rate-limited work (live metric flushes) on it.  A pulse is meant to
    be owned by a single worker loop. *)

(** {1 Serialisation} *)

val entry_to_json : entry -> Json.t
val to_ndjson : entry list -> string
(** One event object per line — the [/events] wire format. *)

val flight_to_json : t -> Json.t
val dump_flight : t -> string -> unit
(** Write the flight-recorder dump (retained events plus capacity and
    drop counters) as one JSON document. *)
