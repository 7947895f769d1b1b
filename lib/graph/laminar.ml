type tree =
  | Elem of int
  | Set of { members : int array; children : tree list }

type t = { n : int; roots : tree list }

let members t =
  match t with Elem i -> [ i ] | Set s -> Array.to_list s.members

let representative t =
  match t with
  | Elem i -> i
  | Set s -> s.members.(0)

let size t = match t with Elem _ -> 1 | Set s -> Array.length s.members

let of_sets ~n sets =
  let sets =
    List.map
      (fun s ->
        let arr = Array.of_list (List.sort_uniq compare s) in
        if Array.length arr <> List.length s then
          invalid_arg "Laminar.of_sets: duplicate member in a set";
        if Array.length arr < 2 then
          invalid_arg "Laminar.of_sets: sets must have >= 2 members";
        Array.iter
          (fun i ->
            if i < 0 || i >= n then
              invalid_arg "Laminar.of_sets: member out of range")
          arr;
        if Array.length arr = n then
          invalid_arg "Laminar.of_sets: a set may not cover all vertices";
        arr)
      sets
  in
  (* Bottom-up: [top.(i)] is the largest tree built so far that holds
     vertex [i].  Taken in ascending size, a set of a laminar family
     contains every earlier set it meets, so it adopts the top trees of
     its members as its children.  Those trees cover the set exactly
     unless one of them reaches outside it, i.e. the family crosses.
     [List.sort_uniq compare] orders arrays by length first and drops
     identical sets. *)
  let top = Array.init n (fun i -> Elem i) in
  let adopted_by = Array.make n (-1) in
  List.iteri
    (fun k set ->
      let children = ref [] and covered = ref 0 in
      Array.iter
        (fun i ->
          let t = top.(i) in
          let r = representative t in
          if adopted_by.(r) <> k then begin
            adopted_by.(r) <- k;
            covered := !covered + size t;
            children := t :: !children
          end)
        set;
      if !covered <> Array.length set then
        invalid_arg "Laminar.of_sets: sets are not laminar";
      (* Members ascend, so each child is met first at its smallest
         member: the children come out ordered by representative. *)
      let node = Set { members = set; children = List.rev !children } in
      Array.iter (fun i -> top.(i) <- node) set)
    (List.sort_uniq compare sets);
  let roots = ref [] in
  for i = n - 1 downto 0 do
    if representative top.(i) = i then roots := top.(i) :: !roots
  done;
  { n; roots = !roots }

let rec count_sets = function
  | Elem _ -> 0
  | Set s -> List.fold_left (fun acc c -> acc + count_sets c) 1 s.children

let n_sets t = List.fold_left (fun acc r -> acc + count_sets r) 0 t.roots

let rec tree_depth = function
  | Elem _ -> 0
  | Set s ->
      1 + List.fold_left (fun acc c -> Int.max acc (tree_depth c)) 0 s.children

let depth t = List.fold_left (fun acc r -> Int.max acc (tree_depth r)) 0 t.roots

let internal_nodes t =
  let blocks = ref [] in
  let rec visit = function
    | Elem _ -> ()
    | Set s ->
        blocks := (s.children, Array.to_list s.members) :: !blocks;
        List.iter visit s.children
  in
  List.iter visit t.roots;
  (t.roots, List.init t.n Fun.id) :: List.rev !blocks

let rec pp_tree ppf = function
  | Elem i -> Format.fprintf ppf "%d" i
  | Set s ->
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           pp_tree)
        s.children

let pp ppf t =
  Format.fprintf ppf "@[<hov>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " |@ ")
       pp_tree)
    t.roots
