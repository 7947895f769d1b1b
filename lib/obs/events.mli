(** Typed telemetry events for the live recorder ({!Recorder}).

    Where {!Metrics} answers "how much, in aggregate", an event answers
    "what just happened": an incumbent improved, a compact-set block
    started or finished, a checkpoint hit disk, a budget tripped, a
    worker reported its counters.  Events serialise to flat one-line
    JSON objects with a ["kind"] discriminant — the format both the
    [/events] endpoint and the flight-recorder dump emit, and the one
    [phylo top] reads back. *)

type kind =
  | Incumbent of { cost : float }
      (** a strictly better complete tree was adopted *)
  | Block_start of { id : int; size : int }
      (** a compact-set block's exact solve began *)
  | Block_finish of { id : int; size : int; solve_s : float; status : string }
      (** ... and ended, with its wall time and budget status *)
  | Run_start of { n : int; n_blocks : int }
      (** a pipeline run began: problem size and block count *)
  | Checkpoint_write of { path : string }
  | Budget_stop of { status : string }  (** a budget tripped *)
  | Heartbeat of {
      worker : int;
      expanded : int;
      pruned : int;
      open_nodes : int;
      ub : float;
      lb : float;
    }
      (** rate-limited per-worker liveness + search counters; [ub]/[lb]
          are NaN when the sender does not know them (a remote worker
          reports only its expansion count) *)

val kind_name : kind -> string
(** The ["kind"] discriminant string. *)

val kind_fields : kind -> (string * Json.t) list
(** Payload fields (without the envelope). *)

val to_json : seq:int -> t_s:float -> domain:int -> kind -> Json.t
(** Full event object: [seq], [t_s], [domain], [kind] + payload. *)

val of_json : Json.t -> kind option
(** Inverse of {!to_json} on the payload; [None] on unknown kinds.
    Missing numeric fields parse as [0]/[nan] rather than failing. *)
