(* Unit tests for the instrumentation layer: log2 histogram bucket
   edges, span nesting under a deterministic clock, merge of forked
   per-shard recorders, gauge/counter semantics, and round-tripping an
   exported profile through its JSON rendering. *)

open Ses_core

(* A deterministic, manually-advanced clock. *)
let manual_clock () =
  let t = ref 0 in
  ((fun () -> !t), fun ns -> t := !t + ns)

let profile_eq (a : Telemetry.profile) (b : Telemetry.profile) =
  a.Telemetry.spans = b.Telemetry.spans
  && a.Telemetry.histograms = b.Telemetry.histograms
  && a.Telemetry.gauges = b.Telemetry.gauges
  && a.Telemetry.counters = b.Telemetry.counters

(* Histogram buckets: 0 holds v < 2, bucket i holds [2^i, 2^(i+1)-1],
   bucket 31 absorbs everything from 2^31 up. *)
let test_bucket_edges () =
  let check v expected =
    Alcotest.(check int)
      (Printf.sprintf "bucket_of %d" v)
      expected
      (Telemetry.Histogram.bucket_of v)
  in
  check (-5) 0;
  check 0 0;
  check 1 0;
  check 2 1;
  check 3 1;
  check 4 2;
  check 7 2;
  check 8 3;
  (* every power-of-two edge up to the overflow bucket *)
  for i = 1 to 30 do
    let lo = 1 lsl i in
    Alcotest.(check int)
      (Printf.sprintf "lower edge 2^%d" i)
      i
      (Telemetry.Histogram.bucket_of lo);
    Alcotest.(check int)
      (Printf.sprintf "upper edge 2^%d - 1" (i + 1))
      i
      (Telemetry.Histogram.bucket_of ((lo * 2) - 1));
    Alcotest.(check int)
      (Printf.sprintf "lower_bound %d" i)
      lo
      (Telemetry.Histogram.lower_bound i)
  done;
  Alcotest.(check int) "lower_bound 0" 0 (Telemetry.Histogram.lower_bound 0);
  (* the overflow bucket *)
  check (1 lsl 31) 31;
  check max_int 31;
  Alcotest.(check int) "n_buckets" 32 Telemetry.Histogram.n_buckets

let test_histogram_observe () =
  let tl = Telemetry.create () in
  let h = Telemetry.histogram tl "h" in
  List.iter (Telemetry.Histogram.observe h) [ 0; 1; 3; 4; 100; -7 ];
  Alcotest.(check int) "count" 6 (Telemetry.Histogram.count h);
  Alcotest.(check int) "sum clamps negatives" 108 (Telemetry.Histogram.sum h);
  Alcotest.(check int) "max" 100 (Telemetry.Histogram.max_value h);
  let buckets = Telemetry.Histogram.bucket_counts h in
  Alcotest.(check int) "bucket 0" 3 buckets.(0);
  Alcotest.(check int) "bucket 1" 1 buckets.(1);
  Alcotest.(check int) "bucket 2" 1 buckets.(2);
  Alcotest.(check int) "bucket 6 (64..127)" 1 buckets.(6);
  Alcotest.(check int) "total across buckets" 6
    (Array.fold_left ( + ) 0 buckets)

(* Nesting: tokens are independent clock readings, so an inner interval
   records inside an outer one — on the same span or another. *)
let test_span_nesting () =
  let clock, advance = manual_clock () in
  let tl = Telemetry.create ~clock () in
  let outer = Telemetry.span tl "outer" in
  let inner = Telemetry.span tl "inner" in
  let t_outer = Telemetry.Span.start outer in
  advance 10;
  let t_inner = Telemetry.Span.start inner in
  advance 5;
  Telemetry.Span.stop inner t_inner;
  advance 10;
  (* recursive nesting of the same span *)
  let t_outer2 = Telemetry.Span.start outer in
  advance 3;
  Telemetry.Span.stop outer t_outer2;
  Telemetry.Span.stop outer t_outer;
  Alcotest.(check int) "inner count" 1 (Telemetry.Span.count inner);
  Alcotest.(check int) "inner total" 5 (Telemetry.Span.total_ns inner);
  Alcotest.(check int) "outer count" 2 (Telemetry.Span.count outer);
  Alcotest.(check int) "outer total" 31 (Telemetry.Span.total_ns outer);
  Alcotest.(check int) "outer max" 28 (Telemetry.Span.max_ns outer)

let test_span_record_and_exceptions () =
  let clock, advance = manual_clock () in
  let tl = Telemetry.create ~clock () in
  let s = Telemetry.span tl "s" in
  let r =
    Telemetry.Span.record s (fun () ->
        advance 7;
        42)
  in
  Alcotest.(check int) "result threads through" 42 r;
  (try
     Telemetry.Span.record s (fun () ->
         advance 4;
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "count includes raising thunk" 2
    (Telemetry.Span.count s);
  Alcotest.(check int) "total includes raising thunk" 11
    (Telemetry.Span.total_ns s);
  (* a wall-clock step backwards clamps to zero *)
  let tok = Telemetry.Span.start s in
  Alcotest.(check int) "clamped elapsed" 0
    (Telemetry.Span.stop_elapsed s (tok + 1000));
  Alcotest.(check int) "total unchanged by clamp" 11
    (Telemetry.Span.total_ns s)

(* Forked recorders merge name-by-name at snapshot: histogram counts and
   sums add, maxima take the max; span counts/totals add; counters sum;
   gauge peaks max. *)
let test_fork_merge () =
  let clock, advance = manual_clock () in
  let tl = Telemetry.create ~clock () in
  let shard1 = Telemetry.fork tl in
  let shard2 = Telemetry.fork tl in
  let h1 = Telemetry.histogram shard1 "scan" in
  let h2 = Telemetry.histogram shard2 "scan" in
  List.iter (Telemetry.Histogram.observe h1) [ 1; 8 ];
  List.iter (Telemetry.Histogram.observe h2) [ 8; 300 ];
  let s1 = Telemetry.span shard1 "work" in
  let s2 = Telemetry.span shard2 "work" in
  let t1 = Telemetry.Span.start s1 in
  advance 10;
  Telemetry.Span.stop s1 t1;
  let t2 = Telemetry.Span.start s2 in
  advance 4;
  Telemetry.Span.stop s2 t2;
  Telemetry.Counter.add (Telemetry.counter shard1 "n") 3;
  Telemetry.Counter.add (Telemetry.counter shard2 "n") 5;
  let p = Telemetry.snapshot tl in
  let hist = List.assoc "scan" p.Telemetry.histograms in
  Alcotest.(check int) "hist count sums" 4 hist.Telemetry.hist_count;
  Alcotest.(check int) "hist sum sums" 317 hist.Telemetry.hist_sum;
  Alcotest.(check int) "hist max maxes" 300 hist.Telemetry.hist_max;
  let merged = hist.Telemetry.hist_buckets in
  Alcotest.(check int) "bucket 0 sums" 1 merged.(0);
  Alcotest.(check int) "bucket 3 sums" 2 merged.(3);
  Alcotest.(check int) "bucket 8 sums" 1 merged.(8);
  let span = List.assoc "work" p.Telemetry.spans in
  Alcotest.(check int) "span count sums" 2 span.Telemetry.span_count;
  Alcotest.(check int) "span total sums" 14 span.Telemetry.span_total_ns;
  Alcotest.(check int) "span max maxes" 10 span.Telemetry.span_max_ns;
  Alcotest.(check int) "counter sums" 8 (List.assoc "n" p.Telemetry.counters);
  (* merge_profiles over explicit snapshots agrees with fork+snapshot *)
  let p1 = Telemetry.snapshot shard1 in
  let p2 = Telemetry.snapshot shard2 in
  Alcotest.(check bool) "merge_profiles = snapshot of parent" true
    (profile_eq p (Telemetry.merge_profiles [ p1; p2 ]))

let test_gauge () =
  let tl = Telemetry.create () in
  let g = Telemetry.gauge tl "pop" in
  Telemetry.Gauge.observe g 5;
  Telemetry.Gauge.observe g 12;
  Telemetry.Gauge.observe g 3;
  Alcotest.(check int) "samples" 3 (Telemetry.Gauge.samples g);
  Alcotest.(check int) "last" 3 (Telemetry.Gauge.last g);
  Alcotest.(check int) "peak" 12 (Telemetry.Gauge.peak g)

let test_json_round_trip () =
  let clock, advance = manual_clock () in
  let tl = Telemetry.create ~clock () in
  let s = Telemetry.span tl "ingest" in
  let t = Telemetry.Span.start s in
  advance 123;
  Telemetry.Span.stop s t;
  let h = Telemetry.histogram tl "event_ns" in
  List.iter (Telemetry.Histogram.observe h) [ 1; 5; 1024 ];
  Telemetry.Gauge.observe (Telemetry.gauge tl "population") 9;
  Telemetry.Counter.add (Telemetry.counter tl "csv.select.L.tested") 44;
  let p = Telemetry.snapshot tl in
  (match Telemetry.of_json (Telemetry.to_json p) with
  | Error msg -> Alcotest.failf "of_json: %s" msg
  | Ok p' -> Alcotest.(check bool) "round-trips" true (profile_eq p p'));
  (* an empty profile round-trips too *)
  let empty = Telemetry.snapshot (Telemetry.create ()) in
  match Telemetry.of_json (Telemetry.to_json empty) with
  | Error msg -> Alcotest.failf "of_json empty: %s" msg
  | Ok p' -> Alcotest.(check bool) "empty round-trips" true (profile_eq empty p')

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Telemetry.of_json s with
      | Ok _ -> Alcotest.failf "of_json accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,2]"; "{\"spans\": }"; "{\"spans\": {\"a\": 1}}" ]

let test_prometheus_format () =
  let clock, advance = manual_clock () in
  let tl = Telemetry.create ~clock () in
  let s = Telemetry.span tl "ingest" in
  let t = Telemetry.Span.start s in
  advance 50;
  Telemetry.Span.stop s t;
  List.iter
    (Telemetry.Histogram.observe (Telemetry.histogram tl "event_ns"))
    [ 1; 3; 3 ];
  let text = Telemetry.to_prometheus (Telemetry.snapshot tl) in
  let has needle =
    let rec go i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (has needle))
    [
      "ses_span_count{name=\"ingest\"} 1";
      "ses_span_duration_ns_total{name=\"ingest\"} 50";
      (* cumulative le buckets: the bucket at le=1 holds one sample, at
         le=3 all three, and +Inf always equals the count *)
      "ses_histogram_bucket{name=\"event_ns\",le=\"1\"} 1";
      "ses_histogram_bucket{name=\"event_ns\",le=\"3\"} 3";
      "ses_histogram_bucket{name=\"event_ns\",le=\"+Inf\"} 3";
      "ses_histogram_count{name=\"event_ns\"} 3";
    ]

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick test_bucket_edges;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span record + exceptions" `Quick
      test_span_record_and_exceptions;
    Alcotest.test_case "fork + merge" `Quick test_fork_merge;
    Alcotest.test_case "gauges" `Quick test_gauge;
    Alcotest.test_case "JSON round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "JSON rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "Prometheus exposition" `Quick test_prometheus_format;
  ]
