open Import

(** Incremental hot-path kernels for the branch-and-bound inner loop.

    The reference expansion ({!Bb_tree.branch}) materialises all
    [2k - 1] candidate insertions as full minimal realizations and
    reweighs each with {!Ultra.Utree.weight} — [O(k)] tree allocation
    plus [O(k)] summing per candidate, [O(k^2)] per expansion, even for
    children the caller immediately prunes against the incumbent.

    This module scores every candidate first, in one [O(k)]-ish pass
    over the partial tree using [Array.unsafe_get] reads of the flat
    matrix (validated once in {!prepare}), and only materialises the
    candidates whose score-based lower bound stays under the caller's
    pruning threshold.  The scoring delta is a true lower bound on the
    exact cost delta while it accumulates, and is accurate to float
    rounding once complete, so with a small safety margin on the
    threshold the surviving set is a superset of what exact bounds keep
    — the solver re-checks survivors with their exact (bit-identical)
    costs, making the search observably identical to the reference
    path.  See {!Solver.expand}. *)

type kind =
  | Reference
      (** realise all [2k - 1] children, then bound — the seed
          behaviour, kept as the differential-testing baseline *)
  | Incremental
      (** score first, realise only un-pruned children (this module) *)

val kind_names : (string * kind) list
(** Spelling table (see {!Obs.Json.enum}): ["reference"],
    ["incremental"]. *)

type t
(** Per-problem kernel state: the validated flat backing store of the
    (permuted) matrix plus the per-species row minima, computed once. *)

val prepare : Dist_matrix.t -> t
(** Validate and capture the matrix for unsafe access.  The row minima
    are computed here in one pass and shared between the LB1 suffix
    bounds ({!Bb_tree.suffix_of_minima}) and any kernel heuristics.
    @raise Invalid_argument if the backing store is inconsistent. *)

val row_minima : t -> float array
(** [min_{j <> i} D(i, j)] per species ([0.]s for a 1x1 matrix). *)

val size : t -> int

val insertions : t -> Utree.t -> int -> dthr:float -> Utree.t list * int
(** [insertions k t sp ~dthr] scores all [2k - 1] insertions of species
    [sp] into [t] and returns [(survivors, dropped)]: the candidates
    whose cost delta lower bound stayed below [dthr], as minimal
    realizations bit-identical to the corresponding
    {!Bb_tree.insertions} results (same order), plus the number of
    candidates dropped.  [dthr] is a {e delta} threshold: the caller
    subtracts the parent's cost and the LB increment from its pruning
    bound (with a safety margin for float drift) before calling.
    [dthr = infinity] keeps everything. *)
