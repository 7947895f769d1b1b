open Import

type kind = Reference | Incremental

let kind_names = [ ("reference", Reference); ("incremental", Incremental) ]

type t = {
  data : float array;  (* backing store of the prepared matrix *)
  n : int;
  row_min : float array;  (* min_{j<>i} D(i,j), one pass at prepare *)
}

let prepare dm =
  let n = Dist_matrix.size dm in
  let data = Dist_matrix.unsafe_data dm in
  (* The only validation the unsafe reads below rely on: the backing
     store really is n*n, so every (leaf * n + sp) offset produced from
     in-range species labels is in range. *)
  if Array.length data <> n * n then
    invalid_arg "Kernel.prepare: corrupt matrix backing store";
  let row_min =
    if n < 2 then Array.make n 0. else Dist_matrix.row_minima dm
  in
  { data; n; row_min }

let row_minima k = k.row_min
let size k = k.n

(* Incremental insertion scoring.

   Inserting species [sp] above position [p] of the minimal realization
   [t] changes the weight by a closed-form delta, derived from
   [weight = sum over internal nodes of (2h - h_left - h_right)]:

     delta(p) = h'(p) + sum over proper ancestors a of p of d(a)
                      + d(root)                     (the root counts twice:
                                                     it has no parent edge
                                                     to absorb its raise)

   where [M(x) = max over leaves l of x of D(sp, l)],
   [h'(x) = max (height x) (M(x) / 2)] (the raised height, which for the
   new node above [p] is also its height) and [d(x) = h'(x) - height x].
   For the insertion above the root the same bookkeeping yields
   [2 h'(root) - height root = h'(root) + d(root)].

   All increments are non-negative, so the partial delta accumulated on
   the way up is a lower bound on the final delta: a candidate whose
   partial-score lower bound already clears the caller's threshold can
   be dropped without ever materialising its tree.  Surviving candidates
   are built with exactly the [Bb_tree.insertions] recursion — same
   float operations, same sharing, same list order — so their trees,
   and therefore their [Utree.weight] costs, are bit-identical to the
   reference path's. *)

let insertions k tree sp ~dthr =
  let data = k.data and n = k.n in
  let base = sp * n in
  let sp_leaf = Utree.Leaf sp in
  let dropped = ref 0 in
  (* Each live candidate is (delta accumulated so far, partially built
     tree).  A candidate whose partial score reaches [dthr] is dropped
     on the spot — scores only grow on the way up, so it can never
     revive, and removing it immediately keeps every ancestor's list
     (and allocation) proportional to the surviving set. *)
  let rec go t =
    match t with
    | Utree.Leaf i ->
        let d = Array.unsafe_get data (base + i) in
        let h = d /. 2. in
        let cands =
          if h >= dthr then begin
            incr dropped;
            []
          end
          else [ (h, Utree.Node { height = h; left = t; right = sp_leaf }) ]
        in
        (cands, d)
    | Utree.Node nd ->
        let lc, lmax = go nd.left in
        let rc, rmax = go nd.right in
        let maxd = Float.max lmax rmax in
        let h' = Float.max nd.height (maxd /. 2.) in
        let delta = h' -. nd.height in
        let lift wrap (d0, sub) acc =
          let d = d0 +. delta in
          if d >= dthr then begin
            incr dropped;
            acc
          end
          else (d, wrap sub) :: acc
        in
        let wl sub = Utree.Node { height = h'; left = sub; right = nd.right } in
        let wr sub = Utree.Node { height = h'; left = nd.left; right = sub } in
        (* Reference candidate order is [here :: rev lc' @ rc']: build
           the right side in order, then fold the left side on top
           reversed — [rev_append] with the drops filtered out. *)
        let below = List.fold_right (lift wr) rc [] in
        let below = List.fold_left (fun acc c -> lift wl c acc) below lc in
        let cands =
          if h' >= dthr then begin
            incr dropped;
            below
          end
          else (h', Utree.Node { height = h'; left = t; right = sp_leaf }) :: below
        in
        (cands, maxd)
  in
  let cands, maxd = go tree in
  (* Second helping of the root's raise (no parent edge above it). *)
  let droot = Float.max (Utree.height tree) (maxd /. 2.) -. Utree.height tree in
  let survivors =
    List.filter_map
      (fun (d, sub) ->
        if d +. droot < dthr then Some sub
        else begin
          incr dropped;
          None
        end)
      cands
  in
  (survivors, !dropped)
