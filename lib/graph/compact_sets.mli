open Import

(** Compact sets of a complete weighted graph (the paper's Section 3.1).

    A subset [C] of the vertices, with [2 <= |C| <= n-1], is {e compact}
    when the largest pairwise distance inside [C] is strictly smaller than
    the smallest distance from a vertex of [C] to a vertex outside [C]
    (Lemma 2 of the paper).  Compact sets are closed under the laminar
    property: two compact sets are either disjoint or nested (Lemma 3),
    and the MST restricted to a compact set spans it (Lemma 4) — which is
    why a single Kruskal sweep over the MST edges discovers all of them.

    Two implementations are provided: the paper's algorithm as published
    (MST + sweep with recomputed [Max(A)] / [Min(A, !A)], O(n^3) total)
    and an O(n^2) version in the spirit of Liang (1993).  The latter
    keeps per-component maxima and needs no outgoing distances at all:
    by the cut property, the cheapest edge leaving a component is the
    MST edge that next merges it.  A brute-force reference lives in the
    test suite; all three agree on every input.

    Tie-breaking note: when several MSTs exist (equal-weight edges, the
    paper's Figure 7 situation), the discovered compact sets do not
    depend on the MST chosen, because compactness is a {e strict}
    inequality: every edge inside a compact set is strictly cheaper than
    every edge leaving it, so any ascending sweep forms the set before
    touching an outgoing edge. *)

val is_compact : Dist_matrix.t -> int list -> bool
(** Direct check of the definition.  Returns [false] for sets of size
    [< 2] or [>= n] and raises [Invalid_argument] on out-of-range or
    duplicate members. *)

val find_naive : ?mst:Wgraph.edge list -> Dist_matrix.t -> int list list
(** The paper's published algorithm: Kruskal MST (or the supplied [mst]),
    ascending edge sweep, full recomputation of [Max(A)] and
    [Min(A, !A)] after each merge.  Sets are sorted ascending; the list
    is ordered by size, then lexicographically.  Kept beside {!find} as
    the baseline that ablation A-3 ([bench --exp ablation-compact])
    times. *)

val find : Dist_matrix.t -> int list list
(** Optimised O(n^2) discovery: Prim MST, then one ascending sweep that
    keeps each component's maximum internal distance and tests a
    component against the weight of the MST edge that next merges it.
    Same output as {!find_naive}. *)

val find_relaxed : alpha:float -> Dist_matrix.t -> int list list
(** {e Alpha-compact} sets: candidates from the same sweep whose maximum
    internal distance is below [alpha] times their minimum outgoing
    distance.  [alpha = 1.] is exactly {!find}; [alpha > 1.] accepts
    looser clusters, giving the decomposition more to work with on noisy
    matrices at some cost in tree quality (an extension beyond the
    paper; see ablation A-9).  Every candidate is a component of one
    union-find sweep, so the result is laminar like {!find}'s.
    @raise Invalid_argument if [alpha < 1.]. *)
