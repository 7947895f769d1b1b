(* Experiments of the companion paper (HPCAsia 2005), Figures 1-8: the
   parallel branch-and-bound on the simulated 16-slave cluster vs a
   single node, speedup ratios, and the 3-3 relationship's effect, on
   surrogate mtDNA and on random matrices. *)

module Platform = Clustersim.Platform
module Dist_bnb = Clustersim.Dist_bnb
module Solver = Bnb.Solver

type row = {
  n : int;
  t16 : float;
  t1 : float;
  t16_33 : float;
  exp16 : int;
  exp1 : int;
  best_speedup : float;  (** max over the datasets (paper: some inputs go super-linear) *)
}

let budget = 6_000_000

let measure gen sizes datasets =
  List.map
    (fun n ->
      let per_dataset =
        List.init datasets (fun seed ->
            let m = gen ~seed:(seed + (1000 * n)) n in
            let run platform options =
              match Dist_bnb.run ~options ~max_expansions:budget platform m with
              | r -> Some r
              | exception Failure _ -> None
            in
            let r16 = run (Platform.cluster 16) Solver.default_options in
            let r1 = run (Platform.single ()) Solver.default_options in
            let r33 =
              run (Platform.cluster 16)
                { Solver.default_options with relation33 = Solver.Third_only }
            in
            (r16, r1, r33))
      in
      let med f =
        Table.median
          (List.filter_map
             (fun (a, b, c) ->
               match f (a, b, c) with
               | Some (r : Dist_bnb.result) -> Some r.Dist_bnb.makespan
               | None -> None)
             per_dataset)
      in
      let med_exp f =
        int_of_float
          (Table.median
             (List.filter_map
                (fun (a, b, c) ->
                  match f (a, b, c) with
                  | Some (r : Dist_bnb.result) ->
                      Some (float_of_int r.Dist_bnb.expansions)
                  | None -> None)
                per_dataset))
      in
      let best_speedup =
        List.fold_left
          (fun acc (a, b, _) ->
            match (a, b) with
            | Some (r16 : Dist_bnb.result), Some (r1 : Dist_bnb.result)
              when r16.Dist_bnb.makespan > 0. ->
                Float.max acc (r1.Dist_bnb.makespan /. r16.Dist_bnb.makespan)
            | _ -> acc)
          0. per_dataset
      in
      {
        n;
        t16 = med (fun (a, _, _) -> a);
        t1 = med (fun (_, b, _) -> b);
        t16_33 = med (fun (_, _, c) -> c);
        exp16 = med_exp (fun (a, _, _) -> a);
        exp1 = med_exp (fun (_, b, _) -> b);
        best_speedup;
      })
    sizes

let mtdna_cache : (bool, row list) Hashtbl.t = Hashtbl.create 2
let random_cache : (bool, row list) Hashtbl.t = Hashtbl.create 2

let mtdna_rows ~quick =
  match Hashtbl.find_opt mtdna_cache quick with
  | Some r -> r
  | None ->
      let sizes = if quick then [ 12; 14; 16 ] else [ 12; 14; 16; 18 ] in
      let r = measure Workloads.mtdna sizes (if quick then 3 else 5) in
      Hashtbl.replace mtdna_cache quick r;
      r

let random_rows ~quick =
  match Hashtbl.find_opt random_cache quick with
  | Some r -> r
  | None ->
      let sizes = if quick then [ 12; 14 ] else [ 12; 14; 16 ] in
      let r =
        measure Workloads.random_structured sizes (if quick then 3 else 5)
      in
      Hashtbl.replace random_cache quick r;
      r

let time_table title rows pick =
  Table.print ~title ~headers:[ "species"; "median makespan"; "expansions" ]
    (List.map
       (fun r ->
         let t, e = pick r in
         [ Table.d r.n; Table.seconds t; Table.d e ])
       rows)

let fig1 ~quick () =
  time_table
    "HPCAsia Fig. 1 — computing time, simulated 16 slaves, mtDNA (virtual \
     seconds)"
    (mtdna_rows ~quick)
    (fun r -> (r.t16, r.exp16))

let fig2 ~quick () =
  time_table
    "HPCAsia Fig. 2 — computing time, single simulated node, mtDNA (paper: \
     unendurable past 26 species)"
    (mtdna_rows ~quick)
    (fun r -> (r.t1, r.exp1))

let speedup_table title rows =
  Table.print ~title
    ~headers:
      [ "species"; "t(1 slave)"; "t(16 slaves)"; "median speedup"; "best" ]
    (List.map
       (fun r ->
         [
           Table.d r.n;
           Table.seconds r.t1;
           Table.seconds r.t16;
           Table.f2 (r.t1 /. r.t16);
           Table.f2 r.best_speedup
           ^ (if r.best_speedup > 16. then " (super-linear)" else "");
         ])
       rows)

let fig3 ~quick () =
  speedup_table
    "HPCAsia Fig. 3 — speedup 16 slaves vs 1, mtDNA (paper: super-linear on \
     some inputs)"
    (mtdna_rows ~quick)

let relation33_table title rows =
  Table.print ~title
    ~headers:[ "species"; "without 3-3"; "with 3-3"; "reduction" ]
    (List.map
       (fun r ->
         [
           Table.d r.n;
           Table.seconds r.t16;
           Table.seconds r.t16_33;
           Table.pct ((r.t16 -. r.t16_33) /. r.t16 *. 100.);
         ])
       rows)

let fig4 ~quick () =
  relation33_table
    "HPCAsia Fig. 4 — 16 slaves, with vs without the 3-3 relationship, \
     mtDNA (paper: reduction grows with species count)"
    (mtdna_rows ~quick)

let fig5 ~quick () =
  time_table "HPCAsia Fig. 5 — computing time, 16 slaves, random data"
    (random_rows ~quick)
    (fun r -> (r.t16, r.exp16))

let fig6 ~quick () =
  speedup_table "HPCAsia Fig. 6 — speedup 16 vs 1, random data"
    (random_rows ~quick)

let fig7 ~quick () =
  time_table "HPCAsia Fig. 7 — computing time, single node, random data"
    (random_rows ~quick)
    (fun r -> (r.t1, r.exp1))

let fig8 ~quick () =
  relation33_table
    "HPCAsia Fig. 8 — 16 slaves, with vs without the 3-3 relationship, \
     random data"
    (random_rows ~quick)
