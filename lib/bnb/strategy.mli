(** Pluggable search strategies for the branch-and-bound solvers.

    Two orthogonal choices (see the {{!page-strategies} strategy guide}
    for when to pick what):

    - {!exploration} — which open node is expanded next.  The open list
      lives behind {!Frontier}, so the sequential solver, the parallel
      workers and checkpoint resume all honour the same choice.
    - {!branching} — how a node's children are ordered before being
      pushed, i.e. which insertion a DFS dive commits to first.

    The defaults ([Dfs], [Paper_order]) reproduce the papers' search
    bit for bit. *)

type exploration =
  | Dfs
      (** depth-first via a stack — the papers' strategy, constant
          memory per level *)
  | Best_first
      (** always expand the open node of least lower bound, via a
          binary min-heap — fewer expansions, potentially exponential
          memory *)
  | Hybrid
      (** DFS dive to a complete tree (cheap incumbents early), then
          continue from the globally best open node — dive-and-jump *)

type branching =
  | Paper_order  (** children in ascending-LB order, as published *)
  | Largest_first
      (** root-nearest insertions first: commit to the coarse tree
          shape (the largest subtree splits) before leaf placements *)
  | Residual_lb
      (** descending LB: probe the largest residual bound increase
          first — anti-greedy, front-loads pruning of expensive
          subtrees *)

val exploration_names : (string * exploration) list
(** Spelling table (see {!Obs.Json.enum}): ["dfs"], ["best_first"],
    ["hybrid"], then the alias ["best-first"]. *)

val branching_names : (string * branching) list
(** Spelling table: ["paper_order"], ["largest_first"], ["residual_lb"],
    then the aliases ["paper"], ["largest"], ["residual"]. *)

val order_children :
  branching -> inserted:int -> Bb_tree.node list -> Bb_tree.node list
(** Reorder a node's children (handed in ascending-LB order, the
    solver's invariant) according to the branching strategy; [inserted]
    is the label of the species the expansion just placed.
    [Paper_order] returns the list physically unchanged. *)

(** Binary min-heap on the lower bound — the best-first open list.
    Exposed for the parallel solver's ordered work stealing. *)
module Heap : sig
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> Bb_tree.node -> unit

  val pop : t -> Bb_tree.node option
  (** Least lower bound first. *)

  val take_max : t -> Bb_tree.node option
  (** Remove the entry of {e largest} lower bound (linear scan) — what a
      worker donates when the shared pool runs dry. *)
end

(** The open list behind one strategy-selected interface.  Not
    thread-safe: each solver (or parallel worker) owns its frontier. *)
module Frontier : sig
  type t

  val create : exploration -> t

  val push : t -> Bb_tree.node -> unit
  (** Callers push children worst-bound first (the historical stack
      discipline), so under [Hybrid] the last-pushed — best — child
      stays in the dive register and its siblings spill to the heap. *)

  val pop : t -> Bb_tree.node option
  (** [Dfs]: last pushed.  [Best_first]: least lower bound.  [Hybrid]:
      the dive register if occupied, else the least open bound. *)

  val length : t -> int

  val drain : t -> Bb_tree.node list
  (** Remaining open nodes in pop order, emptying the frontier. *)

  val take_worst : t -> Bb_tree.node option
  (** Remove the open node of worst (largest) lower bound — the
      donation pick for two-level load balancing.  For [Dfs] this is
      the bottom of the stack, exactly the pre-strategy behaviour. *)
end
