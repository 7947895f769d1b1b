type violation = { i : int; j : int; k : int; slack : float }

let is_symmetric _ = true
(* Symmetry is a representation invariant of Dist_matrix; this predicate
   documents the fact and keeps the checking API uniform. *)

let fold_triples f acc m =
  let n = Dist_matrix.size m in
  let acc = ref acc in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      for k = 0 to n - 1 do
        if k <> i && k <> j then acc := f !acc i j k
      done
    done
  done;
  !acc

let triangle_slack m i j k =
  (* How badly [d(i,j) <= d(i,k) + d(k,j)] fails (positive = violated). *)
  Dist_matrix.get m i j -. (Dist_matrix.get m i k +. Dist_matrix.get m k j)

let is_metric ?(eps = 1e-9) m =
  fold_triples (fun ok i j k -> ok && triangle_slack m i j k <= eps) true m

let sorted_violations slack_fn ?(eps = 1e-9) ?(limit = 10) m =
  let all =
    fold_triples
      (fun acc i j k ->
        let slack = slack_fn m i j k in
        if slack > eps then { i; j; k; slack } :: acc else acc)
      [] m
  in
  let sorted =
    List.sort (fun a b -> Float.compare b.slack a.slack) all
  in
  List.filteri (fun idx _ -> idx < limit) sorted

let metric_violations ?eps ?limit m =
  sorted_violations triangle_slack ?eps ?limit m

let three_point_slack m i j k =
  (* For an ultrametric the two largest of d(i,j), d(i,k), d(j,k) are
     equal; the slack is the gap between the largest and the middle one. *)
  let a = Dist_matrix.get m i j
  and b = Dist_matrix.get m i k
  and c = Dist_matrix.get m j k in
  let hi = Float.max a (Float.max b c) in
  let mid = a +. b +. c -. hi -. Float.min a (Float.min b c) in
  hi -. mid

let is_ultrametric ?(eps = 1e-9) m =
  fold_triples (fun ok i j k -> ok && three_point_slack m i j k <= eps) true m

let ultrametric_violations ?eps ?limit m =
  sorted_violations three_point_slack ?eps ?limit m

let floyd_warshall m =
  let n = Dist_matrix.size m in
  let d = Dist_matrix.copy m in
  (* Straight on the row-major array of the private copy: the generators
     run this O(n^3) pass on matrices of hundreds of species.  Each write
     sets both halves of an off-diagonal pair to a finite non-negative
     sum, so the matrix invariants hold.  [d(i,k)] is read once per row,
     which is safe because the [j = k] step never improves it. *)
  let a = Dist_matrix.unsafe_data d in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = a.((i * n) + k) in
      for j = i + 1 to n - 1 do
        let via = dik +. a.((k * n) + j) in
        if via < a.((i * n) + j) then begin
          a.((i * n) + j) <- via;
          a.((j * n) + i) <- via
        end
      done
    done
  done;
  d

let subdominant_ultrametric m =
  (* Minimax-path distances: replace each d(i,j) by the smallest over all
     paths of the largest edge on the path.  Floyd-Warshall with
     (max, min) instead of (+, min). *)
  let n = Dist_matrix.size m in
  let d = Dist_matrix.copy m in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let via = Float.max (Dist_matrix.get d i k) (Dist_matrix.get d k j) in
        if via < Dist_matrix.get d i j then Dist_matrix.set d i j via
      done
    done
  done;
  d
