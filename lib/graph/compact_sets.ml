open Import

let canonical sets =
  let sets = List.map (List.sort_uniq compare) sets in
  List.sort_uniq
    (fun a b ->
      match compare (List.length a) (List.length b) with
      | 0 -> compare a b
      | c -> c)
    sets

let is_compact dm members =
  let n = Dist_matrix.size dm in
  let seen = Array.make n false in
  List.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Compact_sets.is_compact: range";
      if seen.(i) then invalid_arg "Compact_sets.is_compact: duplicate";
      seen.(i) <- true)
    members;
  let k = List.length members in
  if k < 2 || k >= n then false
  else begin
    let max_in = ref neg_infinity and min_out = ref infinity in
    List.iter
      (fun i ->
        for j = 0 to n - 1 do
          if j <> i then
            if seen.(j) then begin
              if j > i then
                max_in := Float.max !max_in (Dist_matrix.get dm i j)
            end
            else min_out := Float.min !min_out (Dist_matrix.get dm i j)
        done)
      members;
    !max_in < !min_out
  end

let find_naive ?mst dm =
  let n = Dist_matrix.size dm in
  if n < 2 then []
  else begin
    let mst =
      match mst with
      | Some es ->
          if not (Mst.is_spanning_tree ~n es) then
            invalid_arg "Compact_sets.find_naive: not a spanning tree";
          List.sort Wgraph.compare_edge es
      | None -> Mst.kruskal (Wgraph.complete_of_matrix dm)
    in
    let uf = Union_find.create n in
    let acc = ref [] in
    (* Paper's Step 4: process the first n-2 edges only, so the full
       vertex set is never formed (it is not a compact set by
       definition). *)
    let rec sweep remaining edges =
      match edges with
      | [] -> ()
      | _ when remaining = 0 -> ()
      | (e : Wgraph.edge) :: rest ->
          ignore (Union_find.union uf e.u e.v);
          let a = Union_find.members uf e.u in
          if is_compact dm a then acc := a :: !acc;
          sweep (remaining - 1) rest
    in
    sweep (n - 2) mst;
    canonical !acc
  end

let find_general ~alpha dm =
  let n = Dist_matrix.size dm in
  if n < 3 then []
  else begin
    let uf = Union_find.create n in
    let max_in = Array.make n neg_infinity in
    let members = Array.init n (fun i -> [ i ]) in
    let acc = ref [] in
    (* Cut property: the cheapest edge leaving a component is the MST edge
       that next merges it, so each component is tested just before that
       merge, against the edge's weight. *)
    let test r (e : Wgraph.edge) =
      if Union_find.size uf r >= 2 && max_in.(r) < alpha *. e.w then
        acc := members.(r) :: !acc
    in
    let rec sweep = function
      | [] -> ()
      | (e : Wgraph.edge) :: rest ->
          let ra = Union_find.find uf e.u and rb = Union_find.find uf e.v in
          test ra e;
          test rb e;
          (* The last edge forms the full vertex set, which is never
             tested, so it needs no merge. *)
          if rest <> [] then begin
            (* Cross maximum: every vertex pair is scanned at most once
               over the whole sweep, so this is O(n^2) amortised. *)
            let cross = ref neg_infinity in
            List.iter
              (fun i ->
                List.iter
                  (fun j -> cross := Float.max !cross (Dist_matrix.get dm i j))
                  members.(rb))
              members.(ra);
            let r = Union_find.union uf e.u e.v in
            let o = if r = ra then rb else ra in
            max_in.(r) <- Float.max !cross (Float.max max_in.(ra) max_in.(rb));
            members.(r) <- List.rev_append members.(o) members.(r);
            members.(o) <- [];
            sweep rest
          end
    in
    sweep (Mst.prim dm);
    canonical !acc
  end

let find dm = find_general ~alpha:1. dm

let find_relaxed ~alpha dm =
  if alpha < 1. then invalid_arg "Compact_sets.find_relaxed: alpha < 1";
  find_general ~alpha dm
