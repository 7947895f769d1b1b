(* Tests for the obs telemetry library (clock, JSON, spans, metrics,
   progress, reports) and the Stats accumulation semantics it exposes. *)

module Stats = Bnb.Stats

(* Substring check for asserting on rendered JSON. *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- Clock --- *)

let test_clock_monotone () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (Int64.compare b a >= 0);
  let c = Obs.Clock.counter () in
  let _, dt = Obs.Clock.time (fun () -> Sys.opaque_identity (Array.make 1000 0)) in
  Alcotest.(check bool) "elapsed >= 0" true (Obs.Clock.elapsed_s c >= 0.);
  Alcotest.(check bool) "timed >= 0" true (dt >= 0.)

(* --- Json --- *)

let test_json_render () =
  let j =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int 1);
        ("b", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("s", Obs.Json.String "x\"y\nz\\");
        ("f", Obs.Json.Float 2.5);
        ("i", Obs.Json.Float 3.);
      ]
  in
  Alcotest.(check string)
    "rendering"
    "{\"a\":1,\"b\":[true,null],\"s\":\"x\\\"y\\nz\\\\\",\"f\":2.5,\"i\":3.0}"
    (Obs.Json.to_string j)

let test_json_non_finite () =
  Alcotest.(check string) "nan" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string)
    "inf" "1e999"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_parse_ok () =
  match Obs.Json.of_string "{\"a\":[1,2.5,null,\"x\\u0041\"],\"b\":true}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      (match Obs.Json.member "a" j with
      | Some (Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float f; Obs.Json.Null;
                              Obs.Json.String s ]) ->
          Alcotest.(check (float 0.)) "float" 2.5 f;
          Alcotest.(check string) "\\u decoded" "xA" s
      | _ -> Alcotest.fail "list shape");
      Alcotest.(check bool) "bool member" true
        (Obs.Json.member "b" j = Some (Obs.Json.Bool true))

(* Error paths must report the byte offset the parser stopped at — that
   is what makes a truncated checkpoint or manifest diagnosable. *)
let expect_parse_error input expected =
  match Obs.Json.of_string input with
  | Ok _ -> Alcotest.failf "expected failure for %S" input
  | Error e -> Alcotest.(check string) input expected e

let test_json_parse_errors () =
  expect_parse_error "" "JSON parse error at byte 0: unexpected end of input";
  expect_parse_error "{\"a\": 1"
    "JSON parse error at byte 7: expected '}'";
  expect_parse_error "[1, 2"
    "JSON parse error at byte 5: expected ']'";
  expect_parse_error "\"abc"
    "JSON parse error at byte 4: unterminated string";
  expect_parse_error "\"\\uZZZZ\""
    "JSON parse error at byte 3: invalid \\u escape";
  expect_parse_error "\"\\u00"
    "JSON parse error at byte 3: truncated \\u escape";
  expect_parse_error "true x"
    "JSON parse error at byte 5: trailing garbage";
  expect_parse_error "-"
    "JSON parse error at byte 1: invalid number \"-\""

(* --- Span --- *)

let test_span_nesting () =
  let buf = Obs.Span.create () in
  let r =
    Obs.Span.with_span ~buffer:buf "parent" (fun () ->
        let x =
          Obs.Span.with_span ~buffer:buf "child" (fun () ->
              ignore (Sys.opaque_identity (List.init 100 Fun.id));
              41)
        in
        x + 1)
  in
  Alcotest.(check int) "result" 42 r;
  match Obs.Span.events buf with
  | [ child; parent ] ->
      (* The child completes first, so it is recorded first. *)
      Alcotest.(check string) "child name" "child" child.Obs.Span.name;
      Alcotest.(check string) "parent name" "parent" parent.Obs.Span.name;
      let child_end = Int64.add child.Obs.Span.start_ns child.Obs.Span.dur_ns in
      let parent_end =
        Int64.add parent.Obs.Span.start_ns parent.Obs.Span.dur_ns
      in
      Alcotest.(check bool)
        "child starts after parent" true
        (child.Obs.Span.start_ns >= parent.Obs.Span.start_ns);
      Alcotest.(check bool)
        "child ends before parent" true
        (Int64.compare child_end parent_end <= 0)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_span_records_on_raise () =
  let buf = Obs.Span.create () in
  (try
     Obs.Span.with_span ~buffer:buf "failing" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "span recorded" 1 (Obs.Span.length buf)

let test_span_ambient_and_chrome () =
  let buf = Obs.Span.create () in
  Obs.Span.install buf;
  Fun.protect ~finally:Obs.Span.uninstall (fun () ->
      Obs.Span.with_span "ambient" Fun.id);
  Alcotest.(check int) "ambient recorded" 1 (Obs.Span.length buf);
  match Obs.Span.to_chrome_json buf with
  | Obs.Json.Obj kvs ->
      (match List.assoc "traceEvents" kvs with
      | Obs.Json.List [ Obs.Json.Obj ev ] ->
          Alcotest.(check bool)
            "ph is X" true
            (List.assoc "ph" ev = Obs.Json.String "X");
          Alcotest.(check bool) "has ts" true (List.mem_assoc "ts" ev);
          Alcotest.(check bool) "has dur" true (List.mem_assoc "dur" ev)
      | _ -> Alcotest.fail "traceEvents shape")
  | _ -> Alcotest.fail "chrome json not an object"

let test_span_disabled_is_noop () =
  Obs.Span.uninstall ();
  Alcotest.(check int) "passthrough" 7 (Obs.Span.with_span "x" (fun () -> 7))

(* --- Metrics --- *)

let test_counter () =
  let reg = Obs.Metrics.create_registry () in
  let c = Obs.Metrics.counter ~registry:reg "t.counter" in
  for _ = 1 to 10 do
    Obs.Metrics.incr c
  done;
  Obs.Metrics.add c 32;
  Alcotest.(check int) "value" 42 (Obs.Metrics.counter_value c);
  (* Registration is idempotent: same name, same counter. *)
  let c' = Obs.Metrics.counter ~registry:reg "t.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "shared" 43 (Obs.Metrics.counter_value c);
  (* ... but a kind clash is an error. *)
  let clash =
    try
      ignore (Obs.Metrics.gauge ~registry:reg "t.counter");
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "kind clash" true clash

let test_counter_parallel () =
  let reg = Obs.Metrics.create_registry () in
  let c = Obs.Metrics.counter ~registry:reg "t.par" in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Obs.Metrics.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" 40_000 (Obs.Metrics.counter_value c)

let test_gauge () =
  let reg = Obs.Metrics.create_registry () in
  let g = Obs.Metrics.gauge ~registry:reg "t.gauge" in
  Alcotest.(check bool) "unset is NaN" true
    (Float.is_nan (Obs.Metrics.gauge_value g));
  Obs.Metrics.set g 3.25;
  Alcotest.(check (float 0.)) "set" 3.25 (Obs.Metrics.gauge_value g)

let test_histogram_buckets () =
  Alcotest.(check int) "0.5 -> 0" 0 (Obs.Metrics.bucket_of 0.5);
  Alcotest.(check int) "neg -> 0" 0 (Obs.Metrics.bucket_of (-3.));
  Alcotest.(check int) "1 -> 1" 1 (Obs.Metrics.bucket_of 1.);
  Alcotest.(check int) "1.99 -> 1" 1 (Obs.Metrics.bucket_of 1.99);
  Alcotest.(check int) "2 -> 2" 2 (Obs.Metrics.bucket_of 2.);
  Alcotest.(check int) "1000 -> 10" 10 (Obs.Metrics.bucket_of 1000.);
  Alcotest.(check int)
    "overflow clamps" (Obs.Metrics.n_buckets - 1)
    (Obs.Metrics.bucket_of 1e300);
  Alcotest.(check (float 0.)) "upper of 3" 8. (Obs.Metrics.bucket_upper 3)

let test_histogram_merge () =
  (* Observations from several domains land in different shards; the
     snapshot must merge them (same-index buckets add). *)
  let reg = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~registry:reg "t.hist" in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              Obs.Metrics.observe h (float_of_int ((d * 1000) + i))
            done))
  in
  List.iter Domain.join domains;
  let s = Obs.Metrics.histogram_value h in
  Alcotest.(check int) "count" 4000 s.Obs.Metrics.count;
  Alcotest.(check int)
    "bucket sums match count" 4000
    (Array.fold_left ( + ) 0 s.Obs.Metrics.counts);
  (* sum of 1..4000 *)
  Alcotest.(check (float 1e-6)) "sum" 8_002_000. s.Obs.Metrics.sum;
  (* values 1..4000 never reach bucket 13 = [4096, 8192) *)
  Alcotest.(check int) "no overflow bucket" 0 s.Obs.Metrics.counts.(13)

let test_histogram_quantile () =
  (* Empty histogram: no quantiles. *)
  let reg = Obs.Metrics.create_registry () in
  let h = Obs.Metrics.histogram ~registry:reg "t.q" in
  let s = Obs.Metrics.histogram_value h in
  Alcotest.(check bool) "empty -> NaN" true
    (Float.is_nan (Obs.Metrics.histogram_quantile s 0.5));
  (* Single-bucket data interpolates inside that bucket's bounds. *)
  for _ = 1 to 4 do
    Obs.Metrics.observe h 0.5
  done;
  let s = Obs.Metrics.histogram_value h in
  Alcotest.(check (float 1e-9)) "p50 in bucket 0" 0.5
    (Obs.Metrics.histogram_quantile s 0.5);
  Alcotest.(check (float 1e-9)) "q=1 hits upper bound" 1.0
    (Obs.Metrics.histogram_quantile s 1.0);
  Alcotest.(check (float 1e-9)) "q clamps below" 0.0
    (Obs.Metrics.histogram_quantile s (-3.));
  (* A bucket further up: two observations of 3.0 live in (2, 4]. *)
  let h2 = Obs.Metrics.histogram ~registry:reg "t.q2" in
  Obs.Metrics.observe h2 3.0;
  Obs.Metrics.observe h2 3.0;
  let s2 = Obs.Metrics.histogram_value h2 in
  Alcotest.(check (float 1e-9)) "p50 interpolates (2,4)" 3.0
    (Obs.Metrics.histogram_quantile s2 0.5);
  (* Spread data: quantiles are monotone in q. *)
  let h3 = Obs.Metrics.histogram ~registry:reg "t.q3" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h3 (float_of_int i)
  done;
  let s3 = Obs.Metrics.histogram_value h3 in
  let p50 = Obs.Metrics.histogram_quantile s3 0.50 in
  let p95 = Obs.Metrics.histogram_quantile s3 0.95 in
  let p99 = Obs.Metrics.histogram_quantile s3 0.99 in
  Alcotest.(check bool) "p50 <= p95" true (p50 <= p95);
  Alcotest.(check bool) "p95 <= p99" true (p95 <= p99);
  Alcotest.(check bool) "p99 <= max" true (p99 <= 1024.)

let test_bucket_bounds () =
  Alcotest.(check (pair (float 0.) (float 0.))) "bucket 0" (0., 1.)
    (Obs.Metrics.bucket_bounds 0);
  Alcotest.(check (pair (float 0.) (float 0.))) "bucket 3" (4., 8.)
    (Obs.Metrics.bucket_bounds 3)

let test_gauge_dump_null () =
  (* An unset gauge is NaN in memory; NaN is not JSON, so the dump must
     carry null — and the dump must round-trip through the parser. *)
  let reg = Obs.Metrics.create_registry () in
  let g = Obs.Metrics.gauge ~registry:reg "t.unset" in
  let j = Obs.Metrics.dump ~registry:reg () in
  let s = Obs.Json.to_string j in
  Alcotest.(check bool) "value is null" true
    (contains ~affix:"\"value\":null" s);
  (match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "dump does not re-parse: %s" e
  | Ok parsed ->
      (match Obs.Json.member "t.unset" parsed with
      | Some m ->
          Alcotest.(check bool) "null round-trips" true
            (Obs.Json.member "value" m = Some Obs.Json.Null)
      | None -> Alcotest.fail "gauge missing from dump"));
  Obs.Metrics.set g 1.5;
  let s = Obs.Json.to_string (Obs.Metrics.dump ~registry:reg ()) in
  Alcotest.(check bool) "set gauge dumps its value" true
    (contains ~affix:"\"value\":1.5" s)

let test_metrics_dump () =
  let reg = Obs.Metrics.create_registry () in
  let c = Obs.Metrics.counter ~registry:reg "a.count" in
  Obs.Metrics.incr c;
  let h = Obs.Metrics.histogram ~registry:reg "b.hist" in
  Obs.Metrics.observe h 3.;
  let s = Obs.Json.to_string (Obs.Metrics.dump ~registry:reg ()) in
  Alcotest.(check bool) "has counter" true
    (contains ~affix:"\"a.count\"" s);
  Alcotest.(check bool) "has histogram" true
    (contains ~affix:"\"b.hist\"" s);
  Alcotest.(check bool) "histogram carries p50" true
    (contains ~affix:"\"p50\"" s);
  Alcotest.(check bool) "histogram carries p99" true
    (contains ~affix:"\"p99\"" s);
  Obs.Metrics.reset ~registry:reg ();
  Alcotest.(check int) "reset" 0 (Obs.Metrics.counter_value c)

(* --- Stats --- *)

let test_stats_add () =
  let acc = Stats.create () in
  let s1 = Stats.create () in
  s1.Stats.expanded <- 10;
  s1.Stats.generated <- 20;
  s1.Stats.pruned <- 5;
  s1.Stats.max_open <- 7;
  let s2 = Stats.create () in
  s2.Stats.expanded <- 1;
  s2.Stats.generated <- 2;
  s2.Stats.pruned <- 3;
  s2.Stats.max_open <- 4;
  Stats.add acc s1;
  Stats.add acc s2;
  Alcotest.(check int) "expanded sums" 11 acc.Stats.expanded;
  Alcotest.(check int) "generated sums" 22 acc.Stats.generated;
  Alcotest.(check int) "pruned sums" 8 acc.Stats.pruned;
  (* max_open is a high-water mark: MAX, not sum. *)
  Alcotest.(check int) "max_open maxes" 7 acc.Stats.max_open

let test_stats_json () =
  let s = Stats.create () in
  s.Stats.expanded <- 3;
  s.Stats.max_open <- 2;
  let j = Obs.Json.to_string (Stats.to_json s) in
  Alcotest.(check bool) "expanded key" true
    (contains ~affix:"\"expanded\":3" j);
  Alcotest.(check bool) "max_open key" true
    (contains ~affix:"\"max_open\":2" j);
  let via_pp = Format.asprintf "%a" Stats.pp_json s in
  Alcotest.(check string) "pp_json agrees" j via_pp;
  (* Per-reason prune totals ride along in the stats JSON. *)
  Obs.Attribution.prune s.Stats.att Obs.Attribution.Incumbent ~depth:1 4;
  let j = Obs.Json.to_string (Stats.to_json s) in
  Alcotest.(check bool) "pruned_by_reason" true
    (contains ~affix:"\"pruned_by_reason\"" j);
  Alcotest.(check bool) "incumbent total" true
    (contains ~affix:"\"incumbent\":4" j)

(* --- Attribution --- *)

module Att = Obs.Attribution

let test_attribution_cells () =
  let c = Att.cells () in
  Att.prune c Att.Incumbent ~depth:3 2;
  Att.prune c Att.Incumbent ~depth:3 1;
  Att.prune c Att.Lb1_suffix ~depth:5 4;
  Att.prune c Att.Filter33 ~depth:(-1) 1;  (* clamps to bucket 0 *)
  Att.prune c Att.Kernel_threshold ~depth:1000 1;  (* clamps to last *)
  Att.prune c Att.Budget_stop ~depth:0 0;  (* n = 0: no-op *)
  Att.expand c ~depth:3 ~generated:5;
  Att.expand c ~depth:4 ~generated:7;
  Alcotest.(check int) "incumbent total" 3 (Att.total c Att.Incumbent);
  Alcotest.(check int) "lb1 total" 4 (Att.total c Att.Lb1_suffix);
  Alcotest.(check int) "budget_stop empty" 0 (Att.total c Att.Budget_stop);
  Alcotest.(check int) "prunes_at" 3
    (Att.prunes_at c Att.Incumbent ~depth:3);
  Alcotest.(check int) "negative depth clamps" 1
    (Att.prunes_at c Att.Filter33 ~depth:0);
  Alcotest.(check int) "deep depth clamps" 1
    (Att.prunes_at c Att.Kernel_threshold
       ~depth:(Att.n_depth_buckets - 1));
  Alcotest.(check int) "total prunes" 9 (Att.total_prunes c);
  Alcotest.(check int) "total expanded" 2 (Att.total_expanded c);
  (* Merging is element-wise addition, like Stats.add. *)
  let acc = Att.cells () in
  Att.add_cells acc c;
  Att.add_cells acc c;
  Alcotest.(check int) "merged prunes" 18 (Att.total_prunes acc);
  Alcotest.(check int) "merged expanded" 4 (Att.total_expanded acc)

let test_attribution_disabled () =
  let c = Att.cells () in
  Att.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Att.set_enabled true)
    (fun () ->
      Att.prune c Att.Incumbent ~depth:1 5;
      Att.expand c ~depth:1 ~generated:3);
  Alcotest.(check int) "disabled records nothing" 0
    (Att.total_prunes c + Att.total_expanded c)

let test_attribution_json () =
  let c = Att.cells () in
  Att.prune c Att.Lb1_suffix ~depth:7 11;
  Att.expand c ~depth:7 ~generated:13;
  let s = Obs.Json.to_string (Att.cells_to_json c) in
  Alcotest.(check bool) "pruned_total" true
    (contains ~affix:"\"pruned_total\":11" s);
  Alcotest.(check bool) "reason key" true
    (contains ~affix:"\"lb1_suffix\"" s);
  Alcotest.(check bool) "sparse depth row" true
    (contains ~affix:"[7,11]" s);
  Alcotest.(check bool) "expanded profile" true
    (contains ~affix:"\"expanded_by_depth\":[[7,1]]" s);
  (* The manifest section must re-parse. *)
  match Obs.Json.of_string s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attribution json invalid: %s" e

let test_attribution_reason_strings () =
  List.iter
    (fun r ->
      match Att.reason_of_string (Att.reason_to_string r) with
      | Some r' when r' = r -> ()
      | _ ->
          Alcotest.failf "round-trip failed for %s" (Att.reason_to_string r))
    Att.reasons;
  Alcotest.(check int) "n_reasons" (List.length Att.reasons) Att.n_reasons;
  Alcotest.(check bool) "unknown string" true
    (Att.reason_of_string "bogus" = None)

let test_attribution_flush_snapshot () =
  (* The bnb.* counters are the process-wide aggregate: recording the
     same finished solve twice adds its stats and attribution twice. *)
  let st = Stats.create () in
  Att.prune st.Stats.att Att.Incumbent ~depth:2 6;
  Att.expand st.Stats.att ~depth:2 ~generated:3;
  st.Stats.expanded <- 1;
  st.Stats.pruned <- 6;
  let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let incumbent0 = counter "bnb.pruned.incumbent"
  and expanded0 = counter "bnb.expanded" in
  Bnb.Solver.record_metrics st 0.001;
  Bnb.Solver.record_metrics st 0.001;
  Alcotest.(check int) "flushed twice" 12
    (counter "bnb.pruned.incumbent" - incumbent0);
  Alcotest.(check int) "expanded" 2 (counter "bnb.expanded" - expanded0)

let test_attribution_bit_identity () =
  (* Acceptance criterion: recording attribution never changes the
     search.  Same matrix, recording on vs off: identical cost (bitwise)
     and identical node counts. *)
  let m = Distmat.Gen.uniform_metric ~rng:(Random.State.make [| 11 |]) 10 in
  let solve () = Bnb.Solver.solve m in
  let on = solve () in
  Att.set_enabled false;
  let off =
    Fun.protect ~finally:(fun () -> Att.set_enabled true) solve
  in
  Alcotest.(check bool) "bit-identical cost" true
    (Int64.equal
       (Int64.bits_of_float on.Bnb.Solver.cost)
       (Int64.bits_of_float off.Bnb.Solver.cost));
  Alcotest.(check int) "same expanded"
    on.Bnb.Solver.stats.Stats.expanded off.Bnb.Solver.stats.Stats.expanded;
  Alcotest.(check int) "same pruned"
    on.Bnb.Solver.stats.Stats.pruned off.Bnb.Solver.stats.Stats.pruned;
  (* And the enabled run actually attributed its prunes. *)
  Alcotest.(check int) "attribution accounts for every prune"
    on.Bnb.Solver.stats.Stats.pruned
    (Att.total_prunes on.Bnb.Solver.stats.Stats.att);
  Alcotest.(check int) "attribution accounts for every expansion"
    on.Bnb.Solver.stats.Stats.expanded
    (Att.total_expanded on.Bnb.Solver.stats.Stats.att);
  Alcotest.(check int) "disabled run recorded nothing" 0
    (Att.total_prunes off.Bnb.Solver.stats.Stats.att)

(* --- Report --- *)

let test_report () =
  let r = Obs.Report.create "unit" in
  Obs.Report.add_phase r "alpha" 1.0;
  let x = Obs.Report.timed_phase r "beta" (fun () -> 5) in
  Alcotest.(check int) "timed result" 5 x;
  Obs.Report.set r "k" (Obs.Json.Int 9);
  Obs.Report.set r "k" (Obs.Json.Int 10);
  Obs.Report.add_worker r [ ("worker", Obs.Json.Int 0) ];
  (match Obs.Report.phases r with
  | [ ("alpha", a); ("beta", b) ] ->
      Alcotest.(check (float 0.)) "alpha time" 1.0 a;
      Alcotest.(check bool) "beta >= 0" true (b >= 0.)
  | _ -> Alcotest.fail "phase order");
  Alcotest.(check bool) "total" true (Obs.Report.phase_total_s r >= 1.0);
  let j = Obs.Json.to_string (Obs.Report.to_json r) in
  Alcotest.(check bool) "name" true
    (contains ~affix:"\"name\":\"unit\"" j);
  Alcotest.(check bool) "last set wins" true
    (contains ~affix:"\"k\":10" j);
  Alcotest.(check bool) "single k" false
    (contains ~affix:"\"k\":9" j);
  Alcotest.(check bool) "workers" true
    (contains ~affix:"\"workers\":[{\"worker\":0}]" j)

let test_report_meta () =
  (* Every manifest must say when, where and from what it was made. *)
  let r = Obs.Report.create "unit" in
  let j = Obs.Report.to_json r in
  (match Obs.Json.member "meta" j with
  | Some meta ->
      (match Obs.Json.member "started_at" meta with
      | Some (Obs.Json.String ts) ->
          (* ISO-8601 UTC: 2026-08-07T12:34:56Z *)
          Alcotest.(check int) "timestamp length" 20 (String.length ts);
          Alcotest.(check bool) "date/time separator" true (ts.[10] = 'T');
          Alcotest.(check bool) "UTC suffix" true (ts.[19] = 'Z')
      | _ -> Alcotest.fail "started_at missing");
      Alcotest.(check bool) "hostname" true
        (match Obs.Json.member "hostname" meta with
        | Some (Obs.Json.String h) -> h <> ""
        | _ -> false);
      Alcotest.(check bool) "ocaml_version" true
        (Obs.Json.member "ocaml_version" meta
        = Some (Obs.Json.String Sys.ocaml_version))
  | None -> Alcotest.fail "meta section missing");
  (* The epoch origin formats as the epoch origin. *)
  match Obs.Report.meta_json 0. with
  | Obs.Json.Obj kvs ->
      Alcotest.(check bool) "epoch zero" true
        (List.assoc "started_at" kvs
        = Obs.Json.String "1970-01-01T00:00:00Z")
  | _ -> Alcotest.fail "meta_json shape"

let test_report_workers_accessor () =
  let r = Obs.Report.create "unit" in
  Alcotest.(check int) "empty" 0 (List.length (Obs.Report.workers r));
  Obs.Report.add_worker r [ ("worker", Obs.Json.Int 0) ];
  Obs.Report.add_worker r [ ("worker", Obs.Json.Int 1) ];
  match Obs.Report.workers r with
  | [ Obs.Json.Obj [ ("worker", Obs.Json.Int 0) ];
      Obs.Json.Obj [ ("worker", Obs.Json.Int 1) ] ] ->
      ()
  | _ -> Alcotest.fail "workers not returned in insertion order"

(* --- Progress: a consumer of recorder heartbeats --- *)

let heartbeat ~worker ~expanded ~pruned ~open_nodes ~ub ~lb =
  Obs.Events.Heartbeat { worker; expanded; pruned; open_nodes; ub; lb }

let test_progress_ndjson () =
  let path = Filename.temp_file "obs_progress" ".ndjson" in
  let oc = open_out path in
  let p =
    Obs.Progress.create ~interval_s:0. ~sink:(Obs.Progress.Ndjson oc) ()
  in
  Obs.Progress.observe p
    (heartbeat ~worker:0 ~expanded:10 ~pruned:2 ~open_nodes:5 ~ub:100. ~lb:80.);
  (* Only heartbeats are progress; other kinds pass through silently. *)
  Obs.Progress.observe p (Obs.Events.Incumbent { cost = 100. });
  Obs.Progress.observe p
    (heartbeat ~worker:1 ~expanded:20 ~pruned:4 ~open_nodes:3 ~ub:100. ~lb:90.);
  close_out oc;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "two samples" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "json object" true
        (String.length l > 0 && l.[0] = '{');
      Alcotest.(check bool) "has gap" true
        (contains ~affix:"\"gap_pct\"" l))
    lines

let test_progress_ndjson_parses_back () =
  (* Each emitted line must be a standalone JSON document our own parser
     accepts — that is what obs diff's NDJSON fallback relies on. *)
  let path = Filename.temp_file "obs_progress" ".ndjson" in
  let oc = open_out path in
  let p =
    Obs.Progress.create ~interval_s:0. ~sink:(Obs.Progress.Ndjson oc) ()
  in
  Obs.Progress.observe p
    (heartbeat ~worker:3 ~expanded:42 ~pruned:7 ~open_nodes:5 ~ub:100. ~lb:75.);
  close_out oc;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  match Obs.Json.of_string line with
  | Error e -> Alcotest.failf "progress line does not parse: %s" e
  | Ok j ->
      Alcotest.(check (option int)) "worker" (Some 3)
        (Option.bind (Obs.Json.member "worker" j) Obs.Json.to_int_opt);
      Alcotest.(check (option int)) "expanded" (Some 42)
        (Option.bind (Obs.Json.member "expanded" j) Obs.Json.to_int_opt);
      (match
         Option.bind (Obs.Json.member "gap_pct" j) Obs.Json.to_float_opt
       with
      | Some g -> Alcotest.(check (float 1e-9)) "gap" 25. g
      | None -> Alcotest.fail "gap_pct missing")

let test_progress_rate_limit () =
  let path = Filename.temp_file "obs_progress" ".ndjson" in
  let oc = open_out path in
  let p =
    (* One-hour interval: after the first (immediately due) sample,
       nothing further is emitted. *)
    Obs.Progress.create ~interval_s:3600. ~sink:(Obs.Progress.Ndjson oc) ()
  in
  for i = 1 to 100 do
    Obs.Progress.observe p
      (heartbeat ~worker:0 ~expanded:i ~pruned:0 ~open_nodes:1 ~ub:10. ~lb:1.)
  done;
  close_out oc;
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check int) "rate limited to one line" 1 !n

let test_gap_pct () =
  Alcotest.(check (float 1e-9)) "20%" 20. (Obs.Progress.gap_pct ~ub:100. ~lb:80.);
  Alcotest.(check bool) "inf ub" true
    (Float.is_nan (Obs.Progress.gap_pct ~ub:Float.infinity ~lb:3.))

(* --- Solver integration: spans from a real solve --- *)

let test_solver_emits_spans () =
  let m = Distmat.Gen.uniform_metric ~rng:(Random.State.make [| 5 |]) 8 in
  let buf = Obs.Span.create () in
  Obs.Span.install buf;
  let r =
    Fun.protect ~finally:Obs.Span.uninstall (fun () ->
        Compactphy.Pipeline.compare_methods m)
  in
  let names =
    List.map (fun e -> e.Obs.Span.name) (Obs.Span.events buf)
  in
  Alcotest.(check bool) "bnb.solve span" true (List.mem "bnb.solve" names);
  Alcotest.(check bool) "pipeline span" true
    (List.mem "pipeline.with_compact_sets" names);
  Alcotest.(check bool) "exact span" true (List.mem "pipeline.exact" names);
  (* The pipeline spans must cover (almost all of) the reported elapsed
     time — the acceptance criterion for --trace output. *)
  let span_s name =
    List.fold_left
      (fun acc e ->
        if e.Obs.Span.name = name then
          acc +. (Int64.to_float e.Obs.Span.dur_ns /. 1e9)
        else acc)
      0. (Obs.Span.events buf)
  in
  let covered = span_s "pipeline.with_compact_sets" +. span_s "pipeline.exact" in
  let reported =
    r.Compactphy.Pipeline.with_cs.Compactphy.Pipeline.elapsed_s
    +. r.Compactphy.Pipeline.without_cs.Compactphy.Pipeline.elapsed_s
  in
  Alcotest.(check bool) "spans cover elapsed" true (covered >= 0.95 *. reported)

let test_pipeline_report_phases () =
  let m = Distmat.Gen.near_ultrametric ~rng:(Random.State.make [| 7 |]) 12 in
  let r = Compactphy.Pipeline.with_compact_sets m in
  let phases = List.map fst (Obs.Report.phases r.Compactphy.Pipeline.report) in
  Alcotest.(check bool) "decompose" true (List.mem "decompose" phases);
  Alcotest.(check bool) "solve-blocks" true (List.mem "solve-blocks" phases);
  Alcotest.(check bool) "re-realise" true (List.mem "re-realise" phases);
  let j = Obs.Json.to_string (Obs.Report.to_json r.Compactphy.Pipeline.report) in
  Alcotest.(check bool) "per-block stats" true
    (contains ~affix:"\"pruned\"" j)

(* --- Procstat --- *)

let test_procstat_roundtrip () =
  let s = Obs.Procstat.sample () in
  Alcotest.(check bool) "heap words positive" true
    (s.Obs.Procstat.heap_words > 0);
  (match Obs.Procstat.of_json (Obs.Procstat.to_json s) with
  | Ok s' -> Alcotest.(check bool) "round trip" true (s = s')
  | Error e -> Alcotest.failf "procstat round trip: %s" e);
  let reg = Obs.Metrics.create_registry () in
  Obs.Procstat.set_gauges ~registry:reg ~prefix:"proc.worker3" s;
  let dump = Obs.Json.to_string (Obs.Metrics.dump ~registry:reg ()) in
  Alcotest.(check bool) "gauges published under the prefix" true
    (contains ~affix:"\"proc.worker3.gc.minor_collections\"" dump);
  Alcotest.(check bool) "rss gauge" true
    (contains ~affix:"\"proc.worker3.rss_bytes\"" dump)

(* --- Timeline --- *)

(* A synthetic merged trace with known timings: one remote job (queue
   10ms, rpc 100ms wrapping a 60ms worker-track solve) and one serve
   request (120ms), written and loaded through the real file format. *)
let test_timeline_model () =
  let buf = Obs.Span.create () in
  let base = Obs.Span.origin buf in
  let at ms = Int64.add base (Int64.of_int (ms * 1_000_000)) in
  Obs.Span.set_process_name buf ~pid:Obs.Span.self_pid "coordinator";
  Obs.Span.set_process_name buf ~pid:3 "worker 1";
  let job_args =
    [ ("job", Obs.Json.Int 1); ("trace", Obs.Json.String "run-x") ]
  in
  Obs.Span.record buf ~cat:"executor" ~args:job_args ~start_ns:(at 0)
    ~stop_ns:(at 10) "job.queue";
  Obs.Span.record buf ~cat:"executor"
    ~args:(job_args @ [ ("worker", Obs.Json.Int 1) ])
    ~start_ns:(at 10) ~stop_ns:(at 110) "job.rpc";
  Obs.Span.record buf ~cat:"worker" ~pid:3 ~tid:0
    ~args:(job_args @ [ ("cached", Obs.Json.Bool false) ])
    ~start_ns:(at 30) ~stop_ns:(at 90) "job.solve";
  Obs.Span.record buf ~cat:"serve"
    ~args:[ ("request_id", Obs.Json.String "req-1-0") ]
    ~start_ns:(at 0) ~stop_ns:(at 120) "request";
  let path = Filename.temp_file "timeline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Obs.Span.write_chrome buf path;
  let events =
    match Obs.Span.load_trace path with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "load_trace: %s" e
  in
  let t = Obs.Timeline.of_events events in
  Alcotest.(check int) "four X events" 4 t.Obs.Timeline.events;
  Alcotest.(check string) "worker track labelled" "worker 1"
    (Obs.Timeline.track_label t 3);
  (match t.Obs.Timeline.jobs with
  | [ r ] ->
      Alcotest.(check int) "job id" 1 r.Obs.Timeline.job;
      Alcotest.(check int) "solve on the worker track" 3
        r.Obs.Timeline.solve_pid;
      Alcotest.(check (option string)) "trace tag" (Some "run-x")
        r.Obs.Timeline.trace;
      Alcotest.(check (float 1e-6)) "queue 10ms" 0.010 r.Obs.Timeline.queue_s;
      Alcotest.(check (float 1e-6)) "solve 60ms" 0.060 r.Obs.Timeline.solve_s;
      (* net time by subtraction: 100ms rpc minus the 60ms remote solve *)
      Alcotest.(check (float 1e-6)) "net 40ms" 0.040 r.Obs.Timeline.net_s;
      Alcotest.(check bool) "not cached" false r.Obs.Timeline.cached
  | rows -> Alcotest.failf "expected 1 job row, got %d" (List.length rows));
  (match t.Obs.Timeline.requests with
  | [ (rid, dur_s) ] ->
      Alcotest.(check string) "request id" "req-1-0" rid;
      Alcotest.(check (float 1e-6)) "request 120ms" 0.120 dur_s
  | rs -> Alcotest.failf "expected 1 request, got %d" (List.length rs));
  Alcotest.(check (float 1e-6)) "envelope 120ms" 0.120 t.Obs.Timeline.span_s;
  (match Obs.Timeline.reconcile t ~wall_s:0.2 with
  | Ok () -> ()
  | Error es -> Alcotest.failf "reconcile: %s" (String.concat "; " es));
  match Obs.Timeline.reconcile ~tol:0.0 t ~wall_s:0.01 with
  | Ok () -> Alcotest.fail "reconcile accepted an impossible wall clock"
  | Error _ -> ()

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock_monotone ] );
      ( "json",
        [
          Alcotest.test_case "render" `Quick test_json_render;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          Alcotest.test_case "parse ok" `Quick test_json_parse_ok;
          Alcotest.test_case "parse errors report offsets" `Quick
            test_json_parse_errors;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "ambient + chrome" `Quick
            test_span_ambient_and_chrome;
          Alcotest.test_case "disabled no-op" `Quick
            test_span_disabled_is_noop;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter parallel" `Quick test_counter_parallel;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
          Alcotest.test_case "histogram quantile" `Quick
            test_histogram_quantile;
          Alcotest.test_case "bucket bounds" `Quick test_bucket_bounds;
          Alcotest.test_case "gauge dumps null" `Quick test_gauge_dump_null;
          Alcotest.test_case "dump + reset" `Quick test_metrics_dump;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "cells" `Quick test_attribution_cells;
          Alcotest.test_case "disabled" `Quick test_attribution_disabled;
          Alcotest.test_case "json" `Quick test_attribution_json;
          Alcotest.test_case "reason strings" `Quick
            test_attribution_reason_strings;
          Alcotest.test_case "flush + snapshot" `Quick
            test_attribution_flush_snapshot;
          Alcotest.test_case "bit identity" `Quick
            test_attribution_bit_identity;
        ] );
      ( "stats",
        [
          Alcotest.test_case "add semantics" `Quick test_stats_add;
          Alcotest.test_case "json" `Quick test_stats_json;
        ] );
      ( "report",
        [
          Alcotest.test_case "lifecycle" `Quick test_report;
          Alcotest.test_case "metadata" `Quick test_report_meta;
          Alcotest.test_case "workers accessor" `Quick
            test_report_workers_accessor;
        ] );
      ( "progress",
        [
          Alcotest.test_case "ndjson" `Quick test_progress_ndjson;
          Alcotest.test_case "ndjson parses back" `Quick
            test_progress_ndjson_parses_back;
          Alcotest.test_case "rate limit" `Quick test_progress_rate_limit;
          Alcotest.test_case "gap" `Quick test_gap_pct;
        ] );
      ( "procstat",
        [ Alcotest.test_case "sample round trip" `Quick test_procstat_roundtrip ] );
      ( "timeline",
        [ Alcotest.test_case "model from a merged trace" `Quick test_timeline_model ] );
      ( "integration",
        [
          Alcotest.test_case "solver spans" `Quick test_solver_emits_spans;
          Alcotest.test_case "pipeline report" `Quick
            test_pipeline_report_phases;
        ] );
    ]
