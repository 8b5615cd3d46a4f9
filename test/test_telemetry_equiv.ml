(* Differential properties for the telemetry layer: instrumentation must
   be a pure observer. For random workloads, every executor strategy and
   1/2/4 worker domains, a run with a recording sink produces exactly
   the same finalized matches, raw emissions and [Metrics.snapshot] as a
   run with the no-op sink — and the recorded profile is internally
   consistent with those counters (one ingest span and one [event_ns]
   sample per batch pushed — [run] chunks by [options.batch_size] —
   histogram totals = span totals, merged peak bounded by the measured
   cross-shard peak). *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_gen
open Helpers

let () = Ses_baseline.Brute_force.register ()

let part_spec =
  { Random_workload.default_pattern with Random_workload.p_id_join = 1.0 }

let with_workload seed f =
  let rng = Prng.create (Int64.of_int seed) in
  let pat = Random_workload.pattern rng part_spec in
  let r = Random_workload.relation rng Random_workload.default_relation in
  f pat r

let canon substs = List.map Substitution.canonical substs
let canon_sorted substs =
  List.sort Substitution.compare_canonical (canon substs)

let options ~domains telemetry =
  { Engine.default_options with Engine.domains; telemetry }

let run ~strategy ~domains telemetry automaton r =
  Executor.run_relation ~options:(options ~domains telemetry) strategy
    automaton r

(* The naive oracle enumerates assignments exhaustively and the brute
   force runs one automaton per ordering — both explode on the random
   workloads, so the strategy grid covers them on the small Figure 1
   relation instead (see [strategies_on_figure_1]). *)
let grid_strategies = [ `Auto; `Plain; `Partitioned ]

let domain_grid = [ 1; 2; 4 ]

let find_span p name = List.assoc_opt name p.Telemetry.spans

let find_hist p name = List.assoc_opt name p.Telemetry.histograms

let recording_run_is_invisible =
  QCheck.Test.make ~count:20
    ~name:"recording sink: same matches, raw and metrics as no-op sink"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          List.for_all
            (fun strategy ->
              List.for_all
                (fun domains ->
                  let plain = run ~strategy ~domains None automaton r in
                  let tl = Telemetry.create () in
                  let recorded =
                    run ~strategy ~domains (Some tl) automaton r
                  in
                  canon recorded.Engine.matches = canon plain.Engine.matches
                  && canon_sorted recorded.Engine.raw
                     = canon_sorted plain.Engine.raw
                  && recorded.Engine.metrics = plain.Engine.metrics)
                domain_grid)
            grid_strategies))

(* Internal consistency: every chunk pushed through the executor is one
   ingest span interval and one event_ns histogram sample — [run] chunks
   the input by [options.batch_size] — and the two probes share their
   measurements. *)
let chunks n =
  if n = 0 then 0
  else (n + Engine.default_batch_size - 1) / Engine.default_batch_size

let profile_consistent_with_counters =
  QCheck.Test.make ~count:20
    ~name:"profile: ingest count = batches pushed, histogram = span"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let n = Relation.cardinality r in
          List.for_all
            (fun strategy ->
              List.for_all
                (fun domains ->
                  let tl = Telemetry.create () in
                  let outcome = run ~strategy ~domains (Some tl) automaton r in
                  let p = Telemetry.snapshot tl in
                  match (find_span p "ingest", find_hist p "event_ns") with
                  | Some ingest, Some hist ->
                      ingest.Telemetry.span_count = chunks n
                      && hist.Telemetry.hist_count = chunks n
                      && hist.Telemetry.hist_sum
                         = ingest.Telemetry.span_total_ns
                      && hist.Telemetry.hist_max = ingest.Telemetry.span_max_ns
                      && Array.fold_left ( + ) 0 hist.Telemetry.hist_buckets
                         = chunks n
                      (* the engine-level filter span fires at most once
                         per (pool, batch) — never more often than there
                         are events, and not at all under [No_filter] *)
                      && (match find_span p "filter" with
                         | Some f -> f.Telemetry.span_count <= n
                         | None -> n = 0)
                      && outcome.Engine.metrics.Metrics.events_seen = n
                  | _ -> n = 0)
                domain_grid)
            grid_strategies))

(* The Metrics.merge peak is a lower bound on the true global peak; the
   shared population.global gauge measures that true peak under the
   sharded layouts, so the two must be ordered — and the measured peak
   can never exceed the total number of instances ever created. *)
let merged_peak_bounded_by_measured_peak =
  QCheck.Test.make ~count:30
    ~name:"sharded: merge peak <= measured population.global peak"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          Pattern.n_vars pat < 2
          || Pattern.group_vars pat <> []
          || Partitioned.partition_key automaton = None
          || List.for_all
               (fun domains ->
                 let tl = Telemetry.create () in
                 let outcome =
                   run ~strategy:`Partitioned ~domains (Some tl) automaton r
                 in
                 let p = Telemetry.snapshot tl in
                 match List.assoc_opt "population.global" p.Telemetry.gauges with
                 | None -> false
                 | Some g ->
                     outcome.Engine.metrics.Metrics.max_simultaneous_instances
                     <= g.Telemetry.gauge_peak
                     && g.Telemetry.gauge_peak
                        <= outcome.Engine.metrics.Metrics.instances_created)
               domain_grid))

(* All five strategies on the Figure 1 relation (small enough for the
   naive oracle and the brute-force baseline): sink on/off parity plus
   the ingest accounting, end to end. *)
let test_strategies_on_figure_1 () =
  let automaton = Automaton.of_pattern query_q1_singleton in
  let n = Relation.cardinality figure_1 in
  List.iter
    (fun strategy ->
      let plain = run ~strategy ~domains:1 None automaton figure_1 in
      let tl = Telemetry.create () in
      let recorded = run ~strategy ~domains:1 (Some tl) automaton figure_1 in
      let name = Executor.strategy_name strategy in
      Alcotest.(check bool)
        (Printf.sprintf "%s: matches agree" name)
        true
        (canon recorded.Engine.matches = canon plain.Engine.matches);
      Alcotest.(check bool)
        (Printf.sprintf "%s: metrics agree" name)
        true
        (recorded.Engine.metrics = plain.Engine.metrics);
      let p = Telemetry.snapshot tl in
      match find_span p "ingest" with
      | None -> Alcotest.failf "%s: no ingest span recorded" name
      | Some ingest ->
          Alcotest.(check int)
            (Printf.sprintf "%s: ingest count" name)
            (chunks n) ingest.Telemetry.span_count)
    [ `Auto; `Plain; `Partitioned; `Naive; `Brute_force ]

(* Sharded determinism carries over to the deterministic slice of the
   profile: counts (though not durations) are identical run to run. *)
let sharded_profile_counts_deterministic =
  QCheck.Test.make ~count:10
    ~name:"sharded: profile counts are deterministic"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let counts () =
            let tl = Telemetry.create () in
            ignore (run ~strategy:`Partitioned ~domains:4 (Some tl) automaton r);
            let p = Telemetry.snapshot tl in
            let sorted l =
              List.sort
                (fun (a, x) (b, y) ->
                  let c = String.compare a b in
                  if c <> 0 then c else Int.compare x y)
                l
            in
            ( sorted
                (List.map
                   (fun (n, s) -> (n, s.Telemetry.span_count))
                   p.Telemetry.spans),
              sorted
                (List.map
                   (fun (n, (h : Telemetry.histogram_data)) ->
                     (n, h.Telemetry.hist_count))
                   p.Telemetry.histograms),
              sorted p.Telemetry.counters )
          in
          counts () = counts ()))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      recording_run_is_invisible;
      profile_consistent_with_counters;
      merged_peak_bounded_by_measured_peak;
      sharded_profile_counts_deterministic;
    ]
  @ [
      Alcotest.test_case "all strategies on Figure 1" `Quick
        test_strategies_on_figure_1;
    ]
