open Import

type linkage = Max | Min | Avg

let linkage_names = [ ("max", Max); ("min", Min); ("avg", Avg) ]

type block = { children : Laminar.tree list; small : Dist_matrix.t }

type t = {
  forest : Laminar.t;
  root_block : block;
  set_blocks : (Laminar.tree * block) list;
}

let representative_distance linkage dm a_members b_members =
  let acc = ref (match linkage with Max -> neg_infinity | Min -> infinity | Avg -> 0.) in
  let count = ref 0 in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          let d = Dist_matrix.get dm i j in
          incr count;
          match linkage with
          | Max -> acc := Float.max !acc d
          | Min -> acc := Float.min !acc d
          | Avg -> acc := !acc +. d)
        b_members)
    a_members;
  match linkage with
  | Max | Min -> !acc
  | Avg -> !acc /. float_of_int !count

let block_of_children linkage dm children =
  if children = [] then
    invalid_arg "Decompose.block_of_children: empty block";
  let members = Array.of_list (List.map Laminar.members children) in
  let k = Array.length members in
  let small =
    Dist_matrix.init k (fun a b ->
        representative_distance linkage dm members.(a) members.(b))
  in
  { children; small }

let decompose ?(linkage = Max) ?(relaxation = 1.) dm =
  let n = Dist_matrix.size dm in
  let sets =
    if relaxation = 1. then Compact_sets.find dm
    else Compact_sets.find_relaxed ~alpha:relaxation dm
  in
  let forest = Laminar.of_sets ~n sets in
  let root_block = block_of_children linkage dm forest.Laminar.roots in
  let set_blocks = ref [] in
  let rec visit tree =
    match tree with
    | Laminar.Elem _ -> ()
    | Laminar.Set s ->
        set_blocks :=
          (tree, block_of_children linkage dm s.children) :: !set_blocks;
        List.iter visit s.children
  in
  List.iter visit forest.Laminar.roots;
  { forest; root_block; set_blocks = List.rev !set_blocks }

let n_blocks t = 1 + List.length t.set_blocks

let largest_block t =
  List.fold_left
    (fun acc (_, b) -> Int.max acc (List.length b.children))
    (List.length t.root_block.children)
    t.set_blocks
