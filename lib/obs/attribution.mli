(** Search forensics: pruning attribution by reason and depth, plus
    per-depth expansion and branching-factor profiles.

    The aggregate [bnb.pruned] counter says {e how much} was pruned;
    this module records {e why} (which bound fired) and {e where} (at
    what insertion depth), which is what explains one run being slower
    than another.

    {!cells} is a flat, single-writer record embedded in each run's
    [Bnb.Stats].  Recording is a plain array increment; cells merge by
    element-wise addition ({!add_cells}), mirroring [Stats.add].  Run
    manifests and the CLI's [--explain] read a run's own cells; the
    process-wide totals are the [bnb.pruned.<reason>] counters in
    {!Metrics}, which the solvers add each finished solve's cells to. *)

(** Why a subtree was discarded (or a search stopped). *)
type reason =
  | Incumbent  (** the node's own cost already met the incumbent bound *)
  | Lb1_suffix
      (** only cost {e plus} the LB1 remaining-species suffix met the
          bound — the prunes the paper's lower bound is responsible for *)
  | Filter33  (** discarded by the 3-3 relationship heuristic *)
  | Kernel_threshold
      (** dropped inside the incremental expansion kernel before the
          child tree was ever realised *)
  | Budget_stop
      (** a budget (deadline, node cap, cancellation) stopped the search
          at this node; the subtree went to the frontier, not the bin *)
  | Gap_tolerance
      (** neither the node's cost nor its bound met the incumbent — only
          the optimality-gap tolerance [lb * (1 + eps) >= incumbent] did.
          The prunes a [--gap] run trades for its certified (1+eps)
          guarantee; always zero when [eps = 0] *)

val n_reasons : int
val reasons : reason list
(** All reasons, in a fixed serialisation order. *)

val reason_to_string : reason -> string
val reason_of_string : string -> reason option

val n_depth_buckets : int
(** Depth axis size.  Depth [d] (the BBT node's species count [k]) maps
    to bucket [min d (n_depth_buckets - 1)]. *)

val depth_bucket : int -> int

val set_enabled : bool -> unit
(** Globally enable/disable recording (default: enabled).  Exists so the
    bench harness can measure the overhead of attribution itself;
    disabling never changes search behaviour, only whether the arrays
    are written. *)

val is_enabled : unit -> bool

(** {1 Single-writer cells} *)

type cells

val cells : unit -> cells
(** Fresh all-zero cells (a few hundred words). *)

val prune : cells -> reason -> depth:int -> int -> unit
(** [prune c reason ~depth n] records [n] pruning events at [depth].
    No-op when [n <= 0] or recording is disabled. *)

val expand : cells -> depth:int -> generated:int -> unit
(** Record one expansion of a depth-[depth] node that generated
    [generated] children. *)

val add_cells : cells -> cells -> unit
(** [add_cells acc s] element-wise accumulates [s] into [acc]. *)

val total : cells -> reason -> int
val total_prunes : cells -> int
val total_expanded : cells -> int
val prunes_at : cells -> reason -> depth:int -> int

val cells_to_json : cells -> Json.t
(** The manifest [attribution] section: per-reason totals and sparse
    [[depth, count], ...] rows, plus expanded/generated depth profiles
    (branching factor at depth [d] is [generated/expanded]). *)

val cells_of_json : Json.t -> (cells, string) result
(** Inverse of {!cells_to_json} (up to unknown reason names, which are
    skipped).  Lets attribution cross process boundaries bit-exactly —
    a remote executor's result carries its cells so the merged manifest
    matches a local run. *)

val pp_summary : Format.formatter -> cells -> unit
(** Human rendering: pruning reasons ranked by share, then the depth
    profile with average branching factors — the core of the CLI's
    [--explain] output. *)
