open Import

(* Pluggable search strategies: how the open list is ordered
   (exploration) and how a node's children are ordered before being
   pushed (branching).  The solver and the parallel workers both drive
   their open lists through [Frontier], so the strategies compose with
   budgets, checkpoints and work stealing unchanged. *)

type exploration = Dfs | Best_first | Hybrid
type branching = Paper_order | Largest_first | Residual_lb

let exploration_names =
  [
    ("dfs", Dfs);
    ("best_first", Best_first);
    ("hybrid", Hybrid);
    ("best-first", Best_first);
  ]

let branching_names =
  [
    ("paper_order", Paper_order);
    ("largest_first", Largest_first);
    ("residual_lb", Residual_lb);
    ("paper", Paper_order);
    ("largest", Largest_first);
    ("residual", Residual_lb);
  ]

(* --- branching: child ordering --- *)

(* Depth of the leaf labelled [label]; the just-inserted species sits at
   depth 1 when the insertion split the root edge (the largest possible
   sibling subtree) and deeper as the insertion point moves down. *)
let rec leaf_depth label t =
  match t with
  | Utree.Leaf i -> if i = label then Some 0 else None
  | Utree.Node n -> (
      match leaf_depth label n.left with
      | Some d -> Some (d + 1)
      | None -> (
          match leaf_depth label n.right with
          | Some d -> Some (d + 1)
          | None -> None))

let order_children branching ~inserted children =
  match branching with
  | Paper_order ->
      (* The papers' order, untouched: callers hand children sorted by
         ascending lower bound and that list is returned as-is, so the
         default strategy is bit-identical to the historical search. *)
      children
  | Largest_first ->
      (* Insertions nearest the root first: they split the largest
         subtrees, so a DFS dive commits to the coarse shape of the tree
         before refining leaf-level placements.  Ties keep the incoming
         ascending-LB order. *)
      let depth (c : Bb_tree.node) =
        match leaf_depth inserted c.Bb_tree.tree with
        | Some d -> d
        | None -> max_int
      in
      List.stable_sort (fun a b -> compare (depth a) (depth b)) children
  | Residual_lb ->
      (* Descending lower bound: probe the child with the largest
         residual bound increase first.  Anti-greedy — the expensive
         subtrees are visited (and usually pruned) while the incumbent
         is still loose, which front-loads the certified-gap tightening
         of [collect_all] and gap-tolerance sweeps. *)
      List.stable_sort
        (fun (a : Bb_tree.node) (b : Bb_tree.node) ->
          Float.compare b.Bb_tree.lb a.Bb_tree.lb)
        children

(* --- binary min-heap on the lower bound --- *)

module Heap = struct
  type t = { mutable a : Bb_tree.node array; mutable size : int }

  let dummy : Bb_tree.node =
    { tree = Utree.Leaf 0; k = 0; cost = 0.; lb = 0. }

  let create () = { a = Array.make 64 dummy; size = 0 }
  let length h = h.size

  let swap h i j =
    let x = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- x

  let rec sift_up h i =
    let parent = (i - 1) / 2 in
    if i > 0 && h.a.(i).Bb_tree.lb < h.a.(parent).Bb_tree.lb then begin
      swap h i parent;
      sift_up h parent
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && h.a.(l).Bb_tree.lb < h.a.(!smallest).Bb_tree.lb then
      smallest := l;
    if r < h.size && h.a.(r).Bb_tree.lb < h.a.(!smallest).Bb_tree.lb then
      smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h node =
    if h.size = Array.length h.a then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.a 0 bigger 0 h.size;
      h.a <- bigger
    end;
    h.a.(h.size) <- node;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.a.(0) in
      h.size <- h.size - 1;
      h.a.(0) <- h.a.(h.size);
      h.a.(h.size) <- dummy;
      sift_down h 0;
      Some top
    end

  (* Remove the entry of largest lower bound — the node worth donating
     to a dry shared pool.  Linear scan; donation is rare and the local
     heap small compared to the search, so O(n) here never shows. *)
  let take_max h =
    if h.size = 0 then None
    else begin
      let mi = ref 0 in
      for i = 1 to h.size - 1 do
        if h.a.(i).Bb_tree.lb > h.a.(!mi).Bb_tree.lb then mi := i
      done;
      let node = h.a.(!mi) in
      h.size <- h.size - 1;
      h.a.(!mi) <- h.a.(h.size);
      h.a.(h.size) <- dummy;
      if !mi < h.size then begin
        sift_down h !mi;
        sift_up h !mi
      end;
      Some node
    end
end

(* --- the open list, behind one strategy-selected interface --- *)

module Frontier = struct
  type t =
    | Stack of Bb_tree.node list ref
    | Best of Heap.t
    | Hyb of { mutable dive : Bb_tree.node option; heap : Heap.t }
        (* [dive] is a one-slot register: each push evicts the previous
           occupant to the heap, so after a node's children are pushed
           (worst first, best last — see the solver loop) the register
           holds the best child and the heap its siblings.  Popping the
           register continues the DFS dive; when the dive dies out the
           globally best open node is popped instead. *)

  let create = function
    | Dfs -> Stack (ref [])
    | Best_first -> Best (Heap.create ())
    | Hybrid -> Hyb { dive = None; heap = Heap.create () }

  let push t node =
    match t with
    | Stack s -> s := node :: !s
    | Best h -> Heap.push h node
    | Hyb f ->
        (match f.dive with
        | Some prev -> Heap.push f.heap prev
        | None -> ());
        f.dive <- Some node

  let pop t =
    match t with
    | Stack s -> (
        match !s with
        | [] -> None
        | x :: rest ->
            s := rest;
            Some x)
    | Best h -> Heap.pop h
    | Hyb f -> (
        match f.dive with
        | Some n ->
            f.dive <- None;
            Some n
        | None -> Heap.pop f.heap)

  let length = function
    | Stack s -> List.length !s
    | Best h -> Heap.length h
    | Hyb f -> (match f.dive with Some _ -> 1 | None -> 0) + Heap.length f.heap

  (* Remaining open nodes in pop order, emptying the frontier — an
     interrupted worker's frontier share.  For [Dfs] this is exactly the
     historical stack contents. *)
  let drain t =
    let rec go acc = match pop t with None -> List.rev acc | Some n -> go (n :: acc) in
    go []

  (* The node a worker parts with when the shared pool runs dry: its
     worst open bound.  For the historical DFS list that is the deepest-
     queued node (the bottom of the stack), preserving the pre-strategy
     donation behaviour bit for bit. *)
  let take_worst t =
    match t with
    | Stack s -> (
        match List.rev !s with
        | [] -> None
        | worst :: rest_rev ->
            s := List.rev rest_rev;
            Some worst)
    | Best h -> Heap.take_max h
    | Hyb f -> (
        match Heap.take_max f.heap with
        | Some _ as n -> n
        | None ->
            let n = f.dive in
            f.dive <- None;
            n)
end
