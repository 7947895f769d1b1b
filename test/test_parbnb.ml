(* Tests for the parallel branch-and-bound: agreement with the
   sequential solver, validity of outputs, worker-count robustness. *)

module Dist_matrix = Distmat.Dist_matrix
module Gen = Distmat.Gen
module Utree = Ultra.Utree
module Solver = Bnb.Solver
module Par_bnb = Parbnb.Par_bnb
module Stats = Bnb.Stats
module Shared_pool = Parbnb.Shared_pool
module Domain_pool = Parbnb.Domain_pool
module Bb_tree = Bnb.Bb_tree

(* Child mode of the fresh-process pool test below: a 4-worker pool
   awaiting 16 trivial tasks, in a process where nothing else has
   touched the pool's metrics yet.  Runs before Alcotest sees argv. *)
let probe_env = "DOMAIN_POOL_PROBE"

let () =
  if Sys.getenv_opt probe_env = Some "1" then begin
    let pool = Domain_pool.create ~n_workers:4 in
    let futures = List.init 16 (fun i -> Domain_pool.submit pool (fun () -> i)) in
    let sum = List.fold_left (fun acc f -> acc + Domain_pool.await f) 0 futures in
    Domain_pool.shutdown pool;
    exit (if sum = 120 then 0 else 1)
  end

let rng seed = Random.State.make [| seed |]
let check_float = Alcotest.(check (float 1e-6))

let test_matches_sequential_random () =
  for seed = 0 to 7 do
    let m = Gen.uniform_metric ~rng:(rng seed) 9 in
    let seq = Solver.solve m in
    let par = Par_bnb.solve ~n_workers:4 m in
    check_float "same optimum" seq.Solver.cost par.Par_bnb.cost;
    Alcotest.(check bool) "optimal" true par.Par_bnb.optimal;
    Alcotest.(check bool) "feasible" true
      (Utree.is_feasible m par.Par_bnb.tree);
    check_float "cost = weight" par.Par_bnb.cost
      (Utree.weight par.Par_bnb.tree)
  done

let test_matches_sequential_mtdna_like () =
  for seed = 0 to 4 do
    let m = Gen.near_ultrametric ~rng:(rng (50 + seed)) ~noise:0.2 10 in
    let seq = Solver.solve m in
    let par = Par_bnb.solve ~n_workers:3 m in
    check_float "same optimum" seq.Solver.cost par.Par_bnb.cost
  done

let test_various_worker_counts () =
  let m = Gen.uniform_metric ~rng:(rng 11) 10 in
  let reference = (Solver.solve m).Solver.cost in
  List.iter
    (fun p ->
      let r = Par_bnb.solve ~n_workers:p m in
      check_float (Printf.sprintf "p=%d" p) reference r.Par_bnb.cost;
      Alcotest.(check int) "worker count recorded" p r.Par_bnb.n_workers)
    [ 1; 2; 5; 8; 16 ]

let test_more_workers_than_seeds () =
  (* Workers exceeding the seeded frontier must terminate cleanly. *)
  let m = Gen.uniform_metric ~rng:(rng 12) 5 in
  let r = Par_bnb.solve ~n_workers:12 m in
  check_float "optimum" (Solver.solve m).Solver.cost r.Par_bnb.cost

let test_two_species () =
  let m = Dist_matrix.init 2 (fun _ _ -> 4.) in
  let r = Par_bnb.solve ~n_workers:4 m in
  check_float "cost" 4. r.Par_bnb.cost

let test_rejects_zero_workers () =
  let m = Gen.uniform_metric ~rng:(rng 1) 5 in
  (match Par_bnb.solve ~n_workers:0 m with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ())

let test_33_mode_parallel () =
  let m = Gen.near_ultrametric ~rng:(rng 30) ~noise:0.2 9 in
  let options = { Solver.default_options with relation33 = Solver.Third_only } in
  let seq = Solver.solve ~options m in
  let par = Par_bnb.solve ~options ~n_workers:4 m in
  check_float "same cost under 3-3" seq.Solver.cost par.Par_bnb.cost

let test_stats_merged () =
  let m = Gen.uniform_metric ~rng:(rng 13) 10 in
  let r = Par_bnb.solve ~n_workers:4 m in
  Alcotest.(check bool) "expanded > 0" true (r.Par_bnb.stats.Stats.expanded > 0)

let test_parallel_feeds_metrics () =
  (* A parallel solve adds its merged stats to the process-wide bnb.*
     counters, like a sequential one: the counter deltas equal the
     outcome's expansions and kernel-threshold prunes. *)
  let m = Gen.uniform_metric ~rng:(rng 13) 10 in
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let expanded0 = counter "bnb.expanded"
  and kernel0 = counter "bnb.pruned.kernel_threshold" in
  let r = Par_bnb.solve ~n_workers:2 m in
  let stats = r.Par_bnb.stats in
  Alcotest.(check bool) "kernel pruned something" true
    (Obs.Attribution.total stats.Stats.att Obs.Attribution.Kernel_threshold
    > 0);
  Alcotest.(check int) "bnb.expanded delta" stats.Stats.expanded
    (counter "bnb.expanded" - expanded0);
  Alcotest.(check int) "bnb.pruned.kernel_threshold delta"
    (Obs.Attribution.total stats.Stats.att Obs.Attribution.Kernel_threshold)
    (counter "bnb.pruned.kernel_threshold" - kernel0)

let test_cap_reports_non_optimal () =
  let m = Gen.uniform_metric ~rng:(rng 14) 12 in
  let options = { Solver.default_options with max_expanded = Some 3 } in
  let r = Par_bnb.solve ~options ~n_workers:4 m in
  Alcotest.(check bool) "not optimal" false r.Par_bnb.optimal;
  Alcotest.(check bool) "still feasible" true
    (Utree.is_feasible m r.Par_bnb.tree)

(* --- Shared_pool --- *)

let dummy_node lb : Bb_tree.node =
  { tree = Utree.Leaf 0; k = 2; cost = lb; lb }

let test_pool_take_after_seed () =
  let pool = Shared_pool.create ~n_workers:1 () in
  Shared_pool.seed pool [ dummy_node 1.; dummy_node 2. ];
  (match Shared_pool.take pool with
  | Some n -> Alcotest.(check (float 0.)) "first" 1. n.Bb_tree.lb
  | None -> Alcotest.fail "expected a node");
  (match Shared_pool.take pool with
  | Some _ -> ()
  | None -> Alcotest.fail "expected second node");
  (* Single worker, empty pool: termination. *)
  Alcotest.(check bool) "terminates" true (Shared_pool.take pool = None)

let test_pool_all_workers_park () =
  (* Two domains both draining an empty pool must both get None rather
     than deadlock. *)
  let pool = Shared_pool.create ~n_workers:2 () in
  let worker () = Shared_pool.take pool = None in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Alcotest.(check bool) "both released" true (Domain.join d1 && Domain.join d2)

let test_pool_donation_wakes_parked () =
  let pool = Shared_pool.create ~n_workers:2 () in
  let taker = Domain.spawn (fun () -> Shared_pool.take pool) in
  (* Let the taker park, then donate: it must receive the node, and a
     subsequent take must trigger termination for both. *)
  Shared_pool.donate pool (dummy_node 7.);
  (match Domain.join taker with
  | Some n -> Alcotest.(check (float 0.)) "woken with node" 7. n.Bb_tree.lb
  | None ->
      (* The taker may also have terminated first if it raced past the
         donation; accept only if the node is still in the pool. *)
      Alcotest.(check bool) "node preserved" false (Shared_pool.is_empty pool))

(* --- Domain_pool --- *)

(* Submit every task to a fresh pool, then await the futures in
   submission order. *)
let pool_map ~n_workers f tasks =
  let pool = Domain_pool.create ~n_workers in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let futures =
        Array.map (fun x -> Domain_pool.submit pool (fun () -> f x)) tasks
      in
      Array.map Domain_pool.await futures)

let test_dpool_preserves_order () =
  let tasks = Array.init 100 Fun.id in
  List.iter
    (fun n_workers ->
      let out = pool_map ~n_workers (fun i -> i * i) tasks in
      Alcotest.(check (array int))
        (Printf.sprintf "order, %d workers" n_workers)
        (Array.init 100 (fun i -> i * i))
        out)
    [ 1; 2; 4 ]

let test_dpool_more_workers_than_tasks () =
  let out = pool_map ~n_workers:8 (fun i -> i + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "all done" [| 2; 3; 4 |] out

let test_dpool_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (pool_map ~n_workers:4 Fun.id [||]);
  Alcotest.(check (array int)) "single" [| 7 |]
    (pool_map ~n_workers:4 Fun.id [| 7 |])

let test_dpool_rejects_zero_workers () =
  match Domain_pool.create ~n_workers:0 with
  | _ -> Alcotest.fail "expected exception"
  | exception Invalid_argument _ -> ()

let test_dpool_propagates_exception () =
  let f i = if i = 5 then failwith "boom" else i in
  List.iter
    (fun n_workers ->
      match pool_map ~n_workers f (Array.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg)
    [ 1; 3 ]

(* Regression: the first tasks of a fresh process used to race on
   lazily created metric handles; the loser raised outside the task's
   exception guard, killing its worker domain and leaving the future
   unfilled, so [await] hung (about 1 run in 30).  Re-run this binary in
   probe mode many times, a few at a time, and kill any child that does
   not finish within the timeout. *)
let test_dpool_fresh_process_no_hang () =
  let runs = 200 and parallel = 4 and timeout_s = 20. in
  let env = Array.append [| probe_env ^ "=1" |] (Unix.environment ()) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let spawn () =
    ( Unix.create_process_env Sys.executable_name
        [| Sys.executable_name |]
        env devnull devnull Unix.stderr,
      Unix.gettimeofday () )
  in
  let hung = ref 0 and failed = ref 0 and started = ref 0 in
  let rec loop running =
    let running =
      List.filter
        (fun (pid, t0) ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              if Unix.gettimeofday () -. t0 > timeout_s then begin
                Unix.kill pid Sys.sigkill;
                ignore (Unix.waitpid [] pid);
                incr hung;
                false
              end
              else true
          | _, Unix.WEXITED 0 -> false
          | _, _ ->
              incr failed;
              false)
        running
    in
    let rec top_up running =
      if List.length running < parallel && !started < runs then begin
        incr started;
        top_up (spawn () :: running)
      end
      else running
    in
    let running = top_up running in
    if running <> [] then begin
      Unix.sleepf 0.002;
      loop running
    end
  in
  Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () -> loop []);
  Alcotest.(check int) "hung processes" 0 !hung;
  Alcotest.(check int) "failed processes" 0 !failed

(* --- persistent Domain_pool: fault injection and cancellation --- *)

(* A task that raises must fail only its own future: siblings complete,
   later submissions still run, and shutdown joins without deadlock. *)
let test_dpool_fault_isolation () =
  let pool = Domain_pool.create ~n_workers:2 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let futures =
        List.init 8 (fun i ->
            ( i,
              Domain_pool.submit pool (fun () ->
                  if i = 3 then failwith "boom" else i * 10) ))
      in
      List.iter
        (fun (i, fut) ->
          if i = 3 then (
            match Domain_pool.await fut with
            | _ -> Alcotest.fail "expected Failure"
            | exception Failure msg ->
                Alcotest.(check string) "message" "boom" msg)
          else
            Alcotest.(check int)
              (Printf.sprintf "task %d" i)
              (i * 10) (Domain_pool.await fut))
        futures;
      Alcotest.(check int)
        "pool still serves after a task failure" 99
        (Domain_pool.await (Domain_pool.submit pool (fun () -> 99))))

(* Cancellation: the running task drains to completion, queued unstarted
   tasks come back as [Cancelled], and new submissions are rejected. *)
let test_dpool_cancel () =
  let pool = Domain_pool.create ~n_workers:1 in
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let running =
    Domain_pool.submit pool (fun () ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        "done")
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let queued = Domain_pool.submit pool (fun () -> "never") in
  Domain_pool.cancel pool;
  Atomic.set gate true;
  Alcotest.(check string)
    "running task completes" "done"
    (Domain_pool.await running);
  (match Domain_pool.await queued with
  | _ -> Alcotest.fail "expected Cancelled for the queued task"
  | exception Domain_pool.Cancelled -> ());
  (match Domain_pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "expected Cancelled on submit"
  | exception Domain_pool.Cancelled -> ());
  (* Clean join even after cancellation. *)
  Domain_pool.shutdown pool

let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel cost = sequential cost" ~count:20
    (QCheck.make
       ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d" s n p)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 2 9) (int_range 1 6)))
    (fun (seed, n, p) ->
      let m = Gen.uniform_metric ~rng:(rng seed) n in
      let seq = (Solver.solve m).Solver.cost in
      let par = (Par_bnb.solve ~n_workers:p m).Par_bnb.cost in
      Float.abs (seq -. par) < 1e-6)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parbnb"
    [
      ( "par_bnb",
        [
          Alcotest.test_case "matches sequential (random)" `Quick
            test_matches_sequential_random;
          Alcotest.test_case "matches sequential (mtdna-like)" `Quick
            test_matches_sequential_mtdna_like;
          Alcotest.test_case "worker counts" `Quick test_various_worker_counts;
          Alcotest.test_case "more workers than seeds" `Quick
            test_more_workers_than_seeds;
          Alcotest.test_case "two species" `Quick test_two_species;
          Alcotest.test_case "rejects zero workers" `Quick
            test_rejects_zero_workers;
          Alcotest.test_case "3-3 parallel" `Quick test_33_mode_parallel;
          Alcotest.test_case "stats merged" `Quick test_stats_merged;
          Alcotest.test_case "feeds bnb metrics" `Quick
            test_parallel_feeds_metrics;
          Alcotest.test_case "cap reports non-optimal" `Quick
            test_cap_reports_non_optimal;
        ] );
      ( "shared_pool",
        [
          Alcotest.test_case "take after seed" `Quick test_pool_take_after_seed;
          Alcotest.test_case "all workers park" `Quick
            test_pool_all_workers_park;
          Alcotest.test_case "donation wakes parked" `Quick
            test_pool_donation_wakes_parked;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "preserves order" `Quick
            test_dpool_preserves_order;
          Alcotest.test_case "more workers than tasks" `Quick
            test_dpool_more_workers_than_tasks;
          Alcotest.test_case "empty and single" `Quick
            test_dpool_empty_and_single;
          Alcotest.test_case "rejects zero workers" `Quick
            test_dpool_rejects_zero_workers;
          Alcotest.test_case "propagates exception" `Quick
            test_dpool_propagates_exception;
          Alcotest.test_case "fault isolation (persistent)" `Quick
            test_dpool_fault_isolation;
          Alcotest.test_case "cancellation (persistent)" `Quick
            test_dpool_cancel;
          Alcotest.test_case "no hang across fresh processes" `Quick
            test_dpool_fresh_process_no_hang;
        ] );
      ("properties", q [ prop_parallel_equals_sequential ]);
    ]
