(** Live progress reporting for long branch-and-bound solves.

    A consumer of the flight recorder's worker heartbeats: pass a [t]
    to {!Recorder.create} and every event the recorder takes goes
    through {!observe}.  At most one heartbeat per [interval_s] —
    across all workers — is printed, either as a human-readable [Logs]
    line (level [info], source ["obs.progress"]), as a status line on
    stderr, or as one NDJSON object per line.  The solvers have no
    sampler of their own for this: their one rate-limited call is
    {!Recorder.sample}. *)

val src : Logs.src

type sink =
  | Log_lines  (** emit via [Logs] on {!src} *)
  | Ndjson of out_channel  (** one JSON object per line *)
  | Status_line of { tty : bool }
      (** one status line on stderr: with [tty = true] the line is
          rewritten in place (carriage return + erase-line), with
          [tty = false] each rate-limited tick emits one plain line —
          no ANSI escapes ever reach a redirected stream *)

val status_line : unit -> sink
(** {!Status_line} with [tty] probed from the real stderr
    ([Unix.isatty]). *)

type t

val create : ?interval_s:float -> ?sink:sink -> unit -> t
(** [interval_s] defaults to 0.5 s. *)

val observe : t -> Events.kind -> unit
(** Print a {!Events.Heartbeat} when the interval is due; every other
    kind is ignored.  Thread-safe: one clock read and one atomic load
    per heartbeat, and a compare-and-set picks a single winner per
    interval.  [ub] and [lb] may be infinite or NaN (reported gap is
    NaN). *)

val gap_pct : ub:float -> lb:float -> float
(** Relative optimality gap in percent, NaN when undefined. *)
