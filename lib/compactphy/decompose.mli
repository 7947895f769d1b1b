open Import

(** Decomposing a distance matrix along its compact sets (Section 3.1 of
    the paper).

    The laminar forest of compact sets turns the matrix into a hierarchy
    of {e blocks}: one for the virtual root and one per compact set, each
    over the node's immediate children.  A block's small matrix stores a
    representative distance between every two children — the paper
    studies the {e maximum} variant and also names minimum and average. *)

type linkage = Max | Min | Avg
(** Which representative distance a small matrix stores between two
    children (over all member pairs crossing them). *)

val linkage_names : (string * linkage) list
(** Spelling table (see {!Obs.Json.enum}): ["max"], ["min"], ["avg"]. *)

type block = {
  children : Laminar.tree list;  (** the block's "species" *)
  small : Dist_matrix.t;  (** its [k * k] representative matrix *)
}

type t = {
  forest : Laminar.t;
  root_block : block;
  set_blocks : (Laminar.tree * block) list;
      (** one entry per [Laminar.Set] node, keyed by the node itself *)
}

val block_of_children :
  linkage -> Dist_matrix.t -> Laminar.tree list -> block
(** Build one block's small matrix.  @raise Invalid_argument on an empty
    children list. *)

val decompose :
  ?linkage:linkage -> ?relaxation:float -> Dist_matrix.t -> t
(** Find all compact sets (optimised finder), build the laminar forest
    and every block's small matrix.  Default linkage is [Max], the
    variant the paper evaluates.  [relaxation] (default [1.], must be
    [>= 1.]) switches to alpha-compact sets
    ({!Cgraph.Compact_sets.find_relaxed}) for noisy matrices. *)

val n_blocks : t -> int
val largest_block : t -> int
(** Number of children of the biggest block — the size that bounds the
    branch-and-bound subproblems. *)
