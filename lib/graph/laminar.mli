(** Laminar forests of compact sets.

    Compact sets of a graph are pairwise disjoint-or-nested (Lemma 3 of
    the paper), so they organise into a forest under inclusion.  The
    paper's decomposition exploits this: each compact set becomes a block
    solved independently, with its immediate children (smaller compact
    sets, or loose vertices) as the block's "species". *)

type tree =
  | Elem of int  (** a single vertex not wrapped in any smaller set *)
  | Set of { members : int array; children : tree list }
      (** a compact set; [members] sorted ascending, [children] ordered by
          smallest member *)

type t = { n : int; roots : tree list }
(** A forest covering the vertices [0 .. n-1]: the virtual top level whose
    children are the maximal compact sets and the uncovered vertices. *)

val of_sets : n:int -> int list list -> t
(** Build the forest bottom-up: in ascending size, each set adopts the
    largest trees built so far that hold its members as its children.
    O(Σ|S| + k log k) for [k] sets.  Identical sets are merged silently.
    @raise Invalid_argument if the sets are not laminar, contain
    out-of-range or duplicate members, have fewer than 2 members, or one
    of them covers all [n] vertices. *)

val members : tree -> int list
(** Vertices covered by a tree, ascending. *)

val representative : tree -> int
(** Smallest member — used to label a block's row in small matrices. *)

val n_sets : t -> int
(** Number of [Set] nodes in the forest. *)

val depth : t -> int
(** Length of the longest chain of nested sets (0 when there are none). *)

val internal_nodes : t -> (tree list * int list) list
(** Every "block" of the decomposition: for the virtual root and for each
    [Set] node, the pair of its children list and its member list.  The
    virtual root block comes first; blocks with a single child are
    included (they become trivial matrices). *)

val pp : Format.formatter -> t -> unit
