(* Search forensics: which bound pruned, at what depth, and how the
   branching factor evolved.  [cells] is a flat, single-writer record
   that lives inside each run's [Bnb.Stats] — mutation is a plain array
   increment, so the branch-and-bound inner loop pays (almost) nothing;
   cells merge by element-wise addition exactly like the stats counters
   around them.  The process-wide record is the [bnb.pruned.<reason>]
   metrics the solver flushes at the end of each solve. *)

type reason =
  | Incumbent
  | Lb1_suffix
  | Filter33
  | Kernel_threshold
  | Budget_stop
  | Gap_tolerance

let n_reasons = 6

let reason_index = function
  | Incumbent -> 0
  | Lb1_suffix -> 1
  | Filter33 -> 2
  | Kernel_threshold -> 3
  | Budget_stop -> 4
  | Gap_tolerance -> 5

let reasons =
  [ Incumbent; Lb1_suffix; Filter33; Kernel_threshold; Budget_stop;
    Gap_tolerance ]

let reason_to_string = function
  | Incumbent -> "incumbent"
  | Lb1_suffix -> "lb1_suffix"
  | Filter33 -> "filter_33"
  | Kernel_threshold -> "kernel_threshold"
  | Budget_stop -> "budget_stop"
  | Gap_tolerance -> "gap_tolerance"

let reason_of_string = function
  | "incumbent" -> Some Incumbent
  | "lb1_suffix" -> Some Lb1_suffix
  | "filter_33" -> Some Filter33
  | "kernel_threshold" -> Some Kernel_threshold
  | "budget_stop" -> Some Budget_stop
  | "gap_tolerance" -> Some Gap_tolerance
  | _ -> None

(* Depth is the number of species inserted so far (BBT node [k]), which
   the decomposition keeps small; one bucket per depth with the tail
   collapsed into the last bucket keeps cells a few hundred words. *)
let n_depth_buckets = 64

let depth_bucket d = if d < 0 then 0 else Int.min d (n_depth_buckets - 1)

(* Kill switch so the overhead of attribution itself can be measured
   (bench micro-kernel records the on/off delta in its manifest). *)
let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* --- single-writer cells --- *)

type cells = {
  prunes : int array;  (* reason * n_depth_buckets + depth bucket *)
  expanded : int array;  (* expansions by depth of the expanded node *)
  generated : int array;  (* children generated by those expansions *)
}

let cells () =
  {
    prunes = Array.make (n_reasons * n_depth_buckets) 0;
    expanded = Array.make n_depth_buckets 0;
    generated = Array.make n_depth_buckets 0;
  }

let prune c reason ~depth n =
  if n > 0 && Atomic.get enabled then begin
    let i = (reason_index reason * n_depth_buckets) + depth_bucket depth in
    Array.unsafe_set c.prunes i (Array.unsafe_get c.prunes i + n)
  end

let expand c ~depth ~generated =
  if Atomic.get enabled then begin
    let b = depth_bucket depth in
    Array.unsafe_set c.expanded b (Array.unsafe_get c.expanded b + 1);
    Array.unsafe_set c.generated b (Array.unsafe_get c.generated b + generated)
  end

let add_cells acc s =
  let add a b = Array.iteri (fun i n -> a.(i) <- a.(i) + n) b in
  add acc.prunes s.prunes;
  add acc.expanded s.expanded;
  add acc.generated s.generated

let total c reason =
  let base = reason_index reason * n_depth_buckets in
  let acc = ref 0 in
  for d = 0 to n_depth_buckets - 1 do
    acc := !acc + c.prunes.(base + d)
  done;
  !acc

let total_prunes c = List.fold_left (fun acc r -> acc + total c r) 0 reasons
let total_expanded c = Array.fold_left ( + ) 0 c.expanded

let prunes_at c reason ~depth =
  c.prunes.((reason_index reason * n_depth_buckets) + depth_bucket depth)

(* --- JSON --- *)

(* Depth axes are sparse in practice (depth <= species count), so rows
   serialise as [[depth, count], ...] pairs over the non-zero buckets. *)
let sparse_pairs a =
  let acc = ref [] in
  for d = Array.length a - 1 downto 0 do
    if a.(d) <> 0 then
      acc := Json.List [ Json.Int d; Json.Int a.(d) ] :: !acc
  done;
  Json.List !acc

let cells_to_json c =
  let reason_json r =
    let base = reason_index r * n_depth_buckets in
    let row = Array.init n_depth_buckets (fun d -> c.prunes.(base + d)) in
    ( reason_to_string r,
      Json.Obj
        [ ("total", Json.Int (total c r)); ("by_depth", sparse_pairs row) ] )
  in
  Json.Obj
    [
      ("depth_buckets", Json.Int n_depth_buckets);
      ("pruned_total", Json.Int (total_prunes c));
      ("reasons", Json.Obj (List.map reason_json reasons));
      ("expanded_by_depth", sparse_pairs c.expanded);
      ("generated_by_depth", sparse_pairs c.generated);
    ]

(* Inverse of [cells_to_json], for attribution arriving over the wire
   (remote executor results).  Tolerates unknown reason names so newer
   workers can talk to older coordinators; sparse rows out of range are
   an error. *)
let cells_of_json j =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let sparse_into a j =
    match j with
    | Json.List rows ->
        let rec go = function
          | [] -> Ok ()
          | Json.List [ Json.Int d; Json.Int n ] :: rest ->
              if d < 0 || d >= Array.length a then
                Error (Printf.sprintf "attribution: depth %d out of range" d)
              else begin
                a.(d) <- a.(d) + n;
                go rest
              end
          | _ -> Error "attribution: malformed [depth, count] pair"
        in
        go rows
    | _ -> Error "attribution: expected a sparse row list"
  in
  match j with
  | Json.Obj _ ->
      let c = cells () in
      let* () =
        match Json.member "reasons" j with
        | Some (Json.Obj fields) ->
            List.fold_left
              (fun acc (name, rj) ->
                let* () = acc in
                match reason_of_string name with
                | None -> Ok () (* unknown reason: skip, stay forward-compatible *)
                | Some r -> (
                    match Json.member "by_depth" rj with
                    | Some row ->
                        let base = reason_index r * n_depth_buckets in
                        let tmp = Array.make n_depth_buckets 0 in
                        let* () = sparse_into tmp row in
                        Array.iteri
                          (fun d n -> c.prunes.(base + d) <- c.prunes.(base + d) + n)
                          tmp;
                        Ok ()
                    | None -> Error "attribution: reason without by_depth"))
              (Ok ()) fields
        | _ -> Error "attribution: missing reasons object"
      in
      let* () =
        match Json.member "expanded_by_depth" j with
        | Some row -> sparse_into c.expanded row
        | None -> Error "attribution: missing expanded_by_depth"
      in
      let* () =
        match Json.member "generated_by_depth" j with
        | Some row -> sparse_into c.generated row
        | None -> Error "attribution: missing generated_by_depth"
      in
      Ok c
  | _ -> Error "attribution: expected an object"

(* --- human summary --- *)

let pp_summary ppf c =
  let tot = total_prunes c in
  Format.fprintf ppf "@[<v>pruning by reason:@,";
  let rows =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (List.map (fun r -> (r, total c r)) reasons)
  in
  List.iter
    (fun (r, n) ->
      if n > 0 then
        Format.fprintf ppf "  %-18s %12d  %5.1f%%@," (reason_to_string r) n
          (100. *. float_of_int n /. float_of_int (Int.max 1 tot)))
    rows;
  if tot = 0 then Format.fprintf ppf "  (no pruning recorded)@,";
  Format.fprintf ppf "@,depth profile (depth / expanded / generated / avg \
                      branch / pruned):@,";
  let any = ref false in
  for d = 0 to n_depth_buckets - 1 do
    let pruned_at =
      List.fold_left (fun acc r -> acc + prunes_at c r ~depth:d) 0 reasons
    in
    if c.expanded.(d) > 0 || pruned_at > 0 then begin
      any := true;
      let branch =
        if c.expanded.(d) = 0 then 0.
        else float_of_int c.generated.(d) /. float_of_int c.expanded.(d)
      in
      Format.fprintf ppf "  %3d  %10d  %10d  %6.2f  %10d@," d c.expanded.(d)
        c.generated.(d) branch pruned_at
    end
  done;
  if not !any then Format.fprintf ppf "  (no expansions recorded)@,";
  Format.fprintf ppf "@]"
