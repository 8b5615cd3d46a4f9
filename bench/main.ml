(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Sec. 5) on the synthetic chemotherapy workload:

     - Experiment 1 / Figure 11: max simultaneous instances, SES vs brute
       force, for P1 (mutually exclusive) and P2 (overlapping), |V1| = 2..6
     - Experiment 1 / Table 1: the BF/SES instance ratio vs (|V1|-1)!
     - Experiment 2 / Figure 12: max simultaneous instances vs window size
       W for P3 (case 3) and P4 (case 2) over D1..D5
     - Experiment 3 / Figure 13: execution time with and without the
       Sec. 4.5 event filter for P5 and P6 over D1..D5
     - this repository's ablations (filter variants, constant pre-check,
       partitioned evaluation) and beyond-paper sweeps (set size vs the
       Theorem 2/3 bounds, event selectivity)

   Part 2 compares streaming (Csv_stream -> executor, O(1) memory)
   against materialized (Csv.load -> Relation.t) evaluation of Q1 over
   the chemotherapy workload, one row per execution strategy, and prints
   the results as machine-readable JSON.

   Part 3 runs bechamel micro-benchmarks of the core operations (one
   Test.make per paper table/figure, exercising the code path that
   dominates it).

   Part 4 compares the state-indexed instance store against the flat
   reference pool (high-population workload), writing the results to
   BENCH_instance_store.json.

   Part 5 measures domain-parallel execution: a 4-query set on 1 vs 4
   OCaml domains, writing the results to BENCH_parallel.json.

   Part 6 measures the telemetry layer: Q1 over the chemotherapy
   workload with the no-op sink (the disabled probes' branch cost —
   the number to compare against pre-telemetry baselines) and with a
   recording sink, writing both and the recorded profile to
   BENCH_telemetry.json.

   Part 7 measures the batched execution core: single-domain throughput
   of an ID-joined sequence pattern over a million-event duplicated
   random workload, swept across batch sizes (a batch of 1 pays every
   per-batch overhead per event — the contrast the tuned default is
   picked against), plus the telemetry overhead at the tuned batch,
   writing the results to BENCH_batch.json.

   Part 8 measures the index-accelerated access paths: the million-event
   workload of Part 7 with the access path forced to a full scan and to
   index probes across a selectivity sweep (ID-pinned equality,
   label-only, label+threshold, and an unselective query the cost model
   refuses), matches asserted identical, writing the results to
   BENCH_index.json.

   Usage: dune exec bench/main.exe
            [-- --quick] [-- --exp N] [-- --no-micro] [-- --no-stream]
            [-- --store-only] [-- --parallel-only] [-- --telemetry-only]
            [-- --batch-only] [-- --index-only] *)

open Bechamel
open Toolkit

let quick = Array.exists (( = ) "--quick") Sys.argv

let no_micro = Array.exists (( = ) "--no-micro") Sys.argv

let no_stream = Array.exists (( = ) "--no-stream") Sys.argv

let store_only = Array.exists (( = ) "--store-only") Sys.argv

let parallel_only = Array.exists (( = ) "--parallel-only") Sys.argv

let telemetry_only = Array.exists (( = ) "--telemetry-only") Sys.argv

let batch_only = Array.exists (( = ) "--batch-only") Sys.argv

let index_only = Array.exists (( = ) "--index-only") Sys.argv

let only_exp =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "--exp" then int_of_string_opt Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let cfg =
  if quick then Ses_harness.Experiments.quick_config
  else Ses_harness.Experiments.default_config

let show table = Format.printf "%a@.@." Ses_harness.Report.pp table

let run_tables () =
  let module E = Ses_harness.Experiments in
  let wanted n = match only_exp with None -> true | Some k -> k = n in
  show (E.datasets_table cfg);
  if wanted 1 then begin
    let fig11, table1 = E.exp1 cfg in
    show fig11;
    show table1
  end;
  if wanted 2 then show (E.exp2 cfg);
  if wanted 3 then show (E.exp3 cfg);
  if wanted 4 then begin
    show (E.ablation_filter cfg);
    show (E.ablation_precheck cfg);
    show (E.ablation_partition cfg)
  end;
  if wanted 5 then begin
    show (E.sweep_set_size cfg);
    show (E.sweep_selectivity cfg)
  end

(* Streaming vs materialized: Q1 over the chemo workload, one row per
   strategy, as machine-readable JSON. The naive oracle is excluded — its
   exhaustive enumeration is exponential in the input and does not
   terminate on a realistic dataset. *)

let stream_bench () =
  Ses_baseline.Brute_force.register ();
  let module E = Ses_harness.Experiments in
  let module Q = Ses_harness.Queries in
  let d1 = E.dataset cfg in
  let n_events = Ses_event.Relation.cardinality d1 in
  let path = Filename.temp_file "ses_bench" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (match Ses_store.Csv.save path d1 with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let leg ~elapsed ~(metrics : Ses_core.Metrics.snapshot) ~matches extra =
    Printf.sprintf
      "{\"elapsed_s\":%.6f,\"events_per_sec\":%.0f,\"max_instances\":%d,\"matches\":%d%s}"
      elapsed
      (float_of_int n_events /. elapsed)
      metrics.Ses_core.Metrics.max_simultaneous_instances matches extra
  in
  let row strategy =
    let automaton () = Ses_core.Automaton.of_pattern Q.q1 in
    let mat, mat_s =
      time (fun () ->
          Ses_core.Executor.run_relation strategy (automaton ()) d1)
    in
    let str, str_s =
      time (fun () ->
          match
            Ses_harness.Stream_runner.run ~strategy
              ~query:(fun _schema -> Ok (automaton ()))
              path
          with
          | Ok o -> o
          | Error msg -> failwith msg)
    in
    let n_mat = List.length mat.Ses_core.Engine.matches in
    let n_str = List.length str.Ses_harness.Stream_runner.matches in
    if n_mat <> n_str then
      Printf.eprintf "warning: %s: streaming found %d matches, materialized %d\n"
        (Ses_core.Executor.strategy_name strategy)
        n_str n_mat;
    Printf.sprintf
      "  {\"query\":\"q1\",\"strategy\":%S,\"events\":%d,\n\
      \   \"materialized\":%s,\n\
      \   \"streaming\":%s}"
      (Ses_core.Executor.strategy_name strategy)
      n_events
      (leg ~elapsed:mat_s ~metrics:mat.Ses_core.Engine.metrics ~matches:n_mat
         "")
      (leg ~elapsed:str_s ~metrics:str.Ses_harness.Stream_runner.metrics
         ~matches:n_str
         (Printf.sprintf ",\"delivered\":%d"
            str.Ses_harness.Stream_runner.events_delivered))
  in
  let strategies = [ `Auto; `Plain; `Brute_force ] in
  Printf.printf "Streaming vs materialized (Q1 over chemo, JSON)\n";
  Printf.printf "-----------------------------------------------\n";
  Printf.printf "[\n%s\n]\n\n"
    (String.concat ",\n" (List.map row strategies))

(* Instance-store benchmark: the state-indexed pool vs the flat
   reference list on a high-population workload. Results go to stdout
   and to BENCH_instance_store.json. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let store_bench () =
  let module Q = Ses_harness.Queries in
  let chemo patients =
    Ses_gen.Chemo.generate
      { Ses_gen.Chemo.default with Ses_gen.Chemo.seed = 11L; patients }
  in
  let engine_run ~store automaton d =
    Ses_core.Engine.run_relation
      ~options:
        {
          Ses_core.Engine.default_options with
          Ses_core.Engine.finalize = false;
          store;
        }
      automaton d
  in
  (* High population: the ID-joined group-loop pattern Q1 over a dense
     chemo relation. Each patient keeps a fan of p+ loop instances alive
     for the whole window; the flat pool scans all of them (plus every
     other patient's) on every event, while the indexed store skips the
     buckets whose states cannot fire and stops the expiry sweep at the
     first unexpired instance. *)
  let d = chemo (if quick then 20 else 150) in
  let n_events = Ses_event.Relation.cardinality d in
  let automaton = Ses_core.Automaton.of_pattern Q.q1 in
  let flat, flat_s =
    time (fun () -> engine_run ~store:Ses_core.Engine.Flat automaton d)
  in
  let idx, idx_s =
    time (fun () -> engine_run ~store:Ses_core.Engine.Indexed automaton d)
  in
  let n_raw = List.length idx.Ses_core.Engine.raw in
  if List.length flat.Ses_core.Engine.raw <> n_raw then
    Printf.eprintf "warning: store mismatch: flat emitted %d, indexed %d\n"
      (List.length flat.Ses_core.Engine.raw)
      n_raw;
  let json =
    Printf.sprintf
      "{\n\
      \  \"high_population\": {\n\
      \    \"pattern\": \"q1\", \"events\": %d, \"raw_emissions\": %d,\n\
      \    \"max_instances\": %d,\n\
      \    \"flat_s\": %.6f, \"indexed_s\": %.6f, \"speedup\": %.2f\n\
      \  }\n\
       }"
      n_events n_raw
      idx.Ses_core.Engine.metrics.Ses_core.Metrics.max_simultaneous_instances
      flat_s idx_s (flat_s /. idx_s)
  in
  Printf.printf "Instance store vs flat pool (JSON)\n";
  Printf.printf "----------------------------------\n";
  Printf.printf "%s\n\n" json;
  let oc = open_out "BENCH_instance_store.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc

(* Domain-parallel benchmark: a 4-query set over a many-patient
   chemotherapy relation on 1 vs 4 domains — every query on its own
   domain in the parallel run. Match counts are asserted identical across
   domain counts; wall-clock speedup is whatever the hardware allows
   (the JSON records the visible core count so a 1-core container's
   numbers read as what they are). *)

let parallel_bench () =
  let module Q = Ses_harness.Queries in
  let d =
    Ses_gen.Chemo.generate
      {
        Ses_gen.Chemo.default with
        Ses_gen.Chemo.seed = 23L;
        patients = (if quick then 40 else 200);
      }
  in
  let n_events = Ses_event.Relation.cardinality d in
  (* All four are per-patient or mutually-exclusive patterns — the
     overlapping P3/P4 would explode combinatorially on a relation this
     dense. *)
  let queries () =
    [
      ("q1-complete", Ses_core.Automaton.of_pattern Q.q1_complete);
      ("q1", Ses_core.Automaton.of_pattern Q.q1);
      ("x1-3", Ses_core.Automaton.of_pattern (Q.exp1_exclusive 3));
      ("x1-4", Ses_core.Automaton.of_pattern (Q.exp1_exclusive 4));
    ]
  in
  let multi_with domains =
    let options =
      { Ses_core.Engine.default_options with Ses_core.Engine.domains }
    in
    time (fun () ->
        Ses_core.Multi.run ~options (queries ())
          (Ses_event.Relation.to_seq d))
  in
  let m1, m1_s = multi_with 1 in
  let m4, m4_s = multi_with 4 in
  List.iter2
    (fun (name, (o1 : Ses_core.Engine.outcome)) (_, (o4 : Ses_core.Engine.outcome)) ->
      if
        List.length o1.Ses_core.Engine.matches
        <> List.length o4.Ses_core.Engine.matches
      then
        Printf.eprintf
          "warning: multi mismatch on %s: 4 domains found %d matches, 1 domain %d\n"
          name
          (List.length o4.Ses_core.Engine.matches)
          (List.length o1.Ses_core.Engine.matches))
    m1 m4;
  (* Honest reporting on starved hardware: with a single visible core
     the multi-domain leg only measures queueing overhead, so a speedup
     figure would be noise presented as signal — emit a note instead and
     skip the speedup claim entirely. *)
  let cores = Ses_core.Domain_pool.recommended () in
  let multi_tail =
    if cores <= 1 then
      ",\n    \"speedup_note\": \"single visible core: multi-domain runs \
       measure queueing overhead, not parallel speedup\""
    else Printf.sprintf ", \"speedup\": %.2f" (m1_s /. m4_s)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"cores_available\": %d,\n\
      \  \"multi\": {\n\
      \    \"queries\": 4, \"events\": %d,\n\
      \    \"one_domain_s\": %.6f, \"four_domains_s\": %.6f%s\n\
      \  }\n\
       }"
      cores n_events m1_s m4_s multi_tail
  in
  Printf.printf "Domain-parallel execution (JSON)\n";
  Printf.printf "--------------------------------\n";
  Printf.printf "%s\n\n" json;
  let oc = open_out "BENCH_parallel.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc

(* Telemetry overhead: Q1 (group loop, ~19k events at 150 patients)
   through the plain engine, (a) with the default no-op sink — every
   probe is one untaken branch, so this leg is the pre-telemetry
   baseline modulo that branch — and (b) with a recording sink. Three
   repetitions each, best wall-clock kept; the recorded profile rides
   along in the JSON so the numbers can be cross-checked against the
   probe counts. *)

let telemetry_bench () =
  let module Q = Ses_harness.Queries in
  let d =
    Ses_gen.Chemo.generate
      {
        Ses_gen.Chemo.default with
        Ses_gen.Chemo.seed = 11L;
        patients = (if quick then 20 else 150);
      }
  in
  let n_events = Ses_event.Relation.cardinality d in
  let run_with telemetry =
    Ses_core.Executor.run_relation
      ~options:
        { Ses_core.Engine.default_options with Ses_core.Engine.telemetry }
      `Plain
      (Ses_core.Automaton.of_pattern Q.q1)
      d
  in
  let reps = 3 in
  let best f =
    let rec go n acc best_s =
      if n = 0 then (Option.get acc, best_s)
      else
        let r, s = time f in
        go (n - 1) (Some r) (Float.min best_s s)
    in
    go reps None infinity
  in
  let disabled, disabled_s = best (fun () -> run_with None) in
  let recorder = ref (Ses_core.Telemetry.create ()) in
  let recording, recording_s =
    best (fun () ->
        (* a fresh recorder per repetition, so the kept profile belongs
           to exactly one run *)
        recorder := Ses_core.Telemetry.create ();
        run_with (Some !recorder))
  in
  let n_disabled = List.length disabled.Ses_core.Engine.matches in
  let n_recording = List.length recording.Ses_core.Engine.matches in
  if n_disabled <> n_recording then
    Printf.eprintf
      "warning: telemetry mismatch: recording run found %d matches, no-op %d\n"
      n_recording n_disabled;
  let profile = Ses_core.Telemetry.snapshot !recorder in
  let json =
    Printf.sprintf
      "{\n\
      \  \"workload\": {\"pattern\": \"q1\", \"events\": %d, \"matches\": %d},\n\
      \  \"reps\": %d,\n\
      \  \"disabled\": {\"elapsed_s\": %.6f, \"events_per_sec\": %.0f},\n\
      \  \"recording\": {\"elapsed_s\": %.6f, \"events_per_sec\": %.0f,\n\
      \                \"overhead_pct\": %.2f},\n\
      \  \"profile\":\n\
       %s\n\
       }"
      n_events n_disabled reps disabled_s
      (float_of_int n_events /. disabled_s)
      recording_s
      (float_of_int n_events /. recording_s)
      ((recording_s -. disabled_s) /. disabled_s *. 100.)
      (Ses_core.Telemetry.to_json profile)
  in
  Printf.printf "Telemetry overhead (JSON)\n";
  Printf.printf "-------------------------\n";
  Printf.printf "%s\n\n" json;
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc

(* Part 7: the batched execution core. A single-domain [`Plain] executor
   over a duplicated random workload (D1–D5-style: ~1M events as dense
   simultaneous arrivals over ~1k independent entity ids), evaluating an
   ID-joined two-set sequence under the strong event filter in the
   Exp 3 / Fig 13 regime — a label-sparse stream where the filter drops
   the vast majority of events before any instance is touched. That is
   the regime the sweep contrasts: a batch of 1 routes every event
   through the full engine entry (order check, filter dispatch, the
   pass-array, the expiry sweep) individually, while larger batches pay
   those once per chunk and reject the dropped events in one tight scan.
   Each size runs with probes disabled and with a recording sink — the
   per-batch probe granularity makes the instrumented contrast the
   starker one (per-event clock reads at batch 1 vs per-chunk at the
   tuned batch), and the tuned-batch pair prices telemetry overhead. *)

let batch_bench () =
  let module RW = Ses_gen.Random_workload in
  let copies = if quick then 16 else 256 in
  let spec =
    {
      RW.n_events = (if quick then 1_000 else 4_000);
      n_labels = 26;
      n_ids = 4;
      min_gap = 2;
      max_gap = 3;
      max_value = 5;
    }
  in
  let d = RW.duplicated_relation (Ses_gen.Prng.create 7L) ~copies spec in
  let n_events = Ses_event.Relation.cardinality d in
  let pattern =
    (* a(L='a' ∧ V≥4) ; b(L='b' ∧ V≥4), joined on ID, short window —
       fully ID-joined so every instance is anchored to one of the
       [n_ids * copies] entity keys, and every variable carries constant
       conditions so the strong filter applies (keeping ~2.5% of the
       stream — the Fig 13 selective regime). *)
    let module P = Ses_pattern.Pattern in
    let module V = Ses_pattern.Variable in
    P.make_exn ~schema:RW.schema
      ~sets:[ [ V.singleton "a" ]; [ V.singleton "b" ] ]
      ~where:
        [
          P.Spec.const "a" "L" Ses_event.Predicate.Eq (Ses_event.Value.Str "a");
          P.Spec.const "b" "L" Ses_event.Predicate.Eq (Ses_event.Value.Str "b");
          P.Spec.const "a" "V" Ses_event.Predicate.Ge (Ses_event.Value.Int 4);
          P.Spec.const "b" "V" Ses_event.Predicate.Ge (Ses_event.Value.Int 4);
          P.Spec.fields "a" "ID" Ses_event.Predicate.Eq "b" "ID";
        ]
      ~within:4
  in
  let automaton = Ses_core.Automaton.of_pattern pattern in
  let options_with ?telemetry batch_size =
    {
      Ses_core.Engine.default_options with
      Ses_core.Engine.batch_size;
      filter = Ses_core.Event_filter.Strong;
      finalize = false;
      telemetry;
    }
  in
  let reps = if quick then 1 else 3 in
  let best f =
    let rec go n acc best_s =
      if n = 0 then (Option.get acc, best_s)
      else
        let r, s = time f in
        go (n - 1) (Some r) (Float.min best_s s)
    in
    go reps None infinity
  in
  (* Each size runs twice: probes disabled (the branch-only hot path)
     and with a recording sink (the instrumented pipeline, a fresh
     recorder per repetition). The instrumented contrast is the starker
     one — at batch 1 every event pays the full set of clock reads that
     larger batches pay once per chunk. *)
  let run_at ~recording batch_size =
    best (fun () ->
        let telemetry =
          if recording then Some (Ses_core.Telemetry.create ()) else None
        in
        Ses_core.Executor.run_relation
          ~options:(options_with ?telemetry batch_size)
          `Plain automaton d)
  in
  let sizes = [ 1; 8; 64; 256; 1024; 4096 ] in
  let kept = ref 0 in
  let runs =
    List.map
      (fun b ->
        let outcome, dis_s = run_at ~recording:false b in
        let outcome_rec, rec_s = run_at ~recording:true b in
        let m = outcome.Ses_core.Engine.metrics in
        kept :=
          m.Ses_core.Metrics.events_seen - m.Ses_core.Metrics.events_filtered;
        if
          List.length outcome_rec.Ses_core.Engine.raw
          <> List.length outcome.Ses_core.Engine.raw
        then
          Printf.eprintf
            "warning: instrumented run at batch %d changed the raw emissions\n"
            b;
        (b, List.length outcome.Ses_core.Engine.raw, dis_s, rec_s))
      sizes
  in
  let _, n_raw_1, dis_1, rec_1 = List.hd runs in
  List.iter
    (fun (b, n_raw, _, _) ->
      if n_raw <> n_raw_1 then
        Printf.eprintf
          "warning: batch mismatch: batch %d emitted %d raw matches, batch 1 \
           emitted %d\n"
          b n_raw n_raw_1)
    runs;
  let tuned_batch, _, tuned_dis, tuned_rec =
    List.fold_left
      (fun ((_, _, bs, _) as best) ((_, _, s, _) as r) ->
        if s < bs then r else best)
      (List.hd runs) (List.tl runs)
  in
  let leg (b, _, dis_s, rec_s) =
    Printf.sprintf
      "      {\"batch\": %d, \"disabled_s\": %.6f, \"recording_s\": %.6f,\n\
      \       \"events_per_sec\": %.0f, \"events_per_sec_recording\": %.0f}"
      b dis_s rec_s
      (float_of_int n_events /. dis_s)
      (float_of_int n_events /. rec_s)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"workload\": {\"pattern\": \"id-joined-2set\", \"events\": %d,\n\
      \               \"kept_events\": %d, \"entity_keys\": %d, \
       \"raw_matches\": %d},\n\
      \  \"cores_available\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"runs\": [\n\
       %s\n\
      \    ],\n\
      \  \"tuned_batch\": %d,\n\
      \  \"default_batch\": %d,%s\n\
      \  \"speedup_vs_batch_1\": {\"disabled\": %.2f, \"instrumented\": \
       %.2f},\n\
      \  \"telemetry_at_tuned\": {\"disabled_s\": %.6f, \"recording_s\": \
       %.6f,\n\
      \                         \"overhead_pct\": %.2f}\n\
       }"
      n_events !kept
      (spec.RW.n_ids * copies)
      n_raw_1
      (Ses_core.Domain_pool.recommended ())
      reps
      (String.concat ",\n" (List.map leg runs))
      tuned_batch Ses_core.Engine.default_batch_size
      (if tuned_batch = Ses_core.Engine.default_batch_size then ""
       else
         Printf.sprintf
           "\n  \"warning\": \"default batch %d is not the tuned batch %d on \
            this machine/workload\","
           Ses_core.Engine.default_batch_size tuned_batch)
      (dis_1 /. tuned_dis)
      (rec_1 /. tuned_rec) tuned_dis tuned_rec
      ((tuned_rec -. tuned_dis) /. tuned_dis *. 100.)
  in
  Printf.printf "Batched execution (JSON)\n";
  Printf.printf "------------------------\n";
  Printf.printf "%s\n\n" json;
  let oc = open_out "BENCH_batch.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc

(* Part 8: index-accelerated access paths. The batched-core workload
   (~1M events as dense simultaneous arrivals over ~1k entity keys)
   evaluated through {!Ses_harness.Access_exec} with the access path
   forced both ways, across a selectivity sweep: an ID-pinned equality
   query (~0.1% of the stream — the headline regime, where the probe
   touches a thousand rows instead of a million), a label-only query
   (~8%), a label+threshold query (residual filtering on top of the
   probes), and a near-unselective query the cost model must refuse to
   index. Every leg asserts the two paths' matches identical; the JSON
   records what [`Auto] would have chosen, the estimate the decision
   rested on, and the probe counters. *)

let index_bench () =
  let module RW = Ses_gen.Random_workload in
  let module P = Ses_pattern.Pattern in
  let module V = Ses_pattern.Variable in
  let copies = if quick then 16 else 256 in
  let spec =
    {
      RW.n_events = (if quick then 1_000 else 4_000);
      n_labels = 26;
      n_ids = 4;
      min_gap = 2;
      max_gap = 3;
      max_value = 5;
    }
  in
  let d = RW.duplicated_relation (Ses_gen.Prng.create 7L) ~copies spec in
  let n_events = Ses_event.Relation.cardinality d in
  let prepared, prepare_s =
    time (fun () -> Ses_harness.Access_exec.prepare d)
  in
  let cst v f op c = P.Spec.const v f op (Ses_event.Value.Int c) in
  let lbl v s =
    P.Spec.const v "L" Ses_event.Predicate.Eq (Ses_event.Value.Str s)
  in
  let join = P.Spec.fields "a" "ID" Ses_event.Predicate.Eq "b" "ID" in
  let two_set where =
    P.make_exn ~schema:RW.schema
      ~sets:[ [ V.singleton "a" ]; [ V.singleton "b" ] ]
      ~where ~within:4
  in
  let legs =
    [
      ( "id_pinned_eq",
        "one entity key of ~1k: the probe reads ~0.1% of the rows",
        two_set
          [
            lbl "a" "a"; lbl "b" "b";
            cst "a" "ID" Ses_event.Predicate.Eq 7;
            cst "b" "ID" Ses_event.Predicate.Eq 7;
            join;
          ] );
      ( "label_eq",
        "two of 26 labels: the candidate union is ~8% of the rows",
        two_set [ lbl "a" "a"; lbl "b" "b"; join ] );
      ( "label_and_threshold",
        "label probes with a V >= 4 residual filtered off the postings",
        two_set
          [
            lbl "a" "a"; lbl "b" "b";
            cst "a" "V" Ses_event.Predicate.Ge 4;
            cst "b" "V" Ses_event.Predicate.Ge 4;
            join;
          ] );
      ( "unselective",
        "V >= 1 keeps most of the stream: the cost model must scan",
        two_set
          [
            cst "a" "V" Ses_event.Predicate.Ge 1;
            cst "b" "V" Ses_event.Predicate.Ge 1;
            join;
          ] );
    ]
  in
  let options =
    {
      Ses_core.Engine.default_options with
      Ses_core.Engine.filter = Ses_core.Event_filter.Strong;
    }
  in
  let reps = if quick then 1 else 3 in
  let best f =
    let rec go n acc best_s =
      if n = 0 then (Option.get acc, best_s)
      else
        let r, s = time f in
        go (n - 1) (Some r) (Float.min best_s s)
    in
    go reps None infinity
  in
  let canon (o : Ses_harness.Access_exec.outcome) =
    List.map Ses_core.Substitution.canonical o.Ses_harness.Access_exec.matches
  in
  let leg_json (name, description, pattern) =
    let automaton = Ses_core.Automaton.of_pattern pattern in
    let run mode =
      best (fun () ->
          Ses_harness.Access_exec.run ~options ~mode prepared automaton)
    in
    let scan, scan_s = run `Scan in
    (* The first index run builds the probed indexes on the prepared
       handle; [best] keeps the warm repetition, and the cold build is
       priced separately below. *)
    let index, index_s = run `Index in
    let matches_equal = canon scan = canon index in
    if not matches_equal then
      Printf.eprintf "warning: index path changed the matches on %s\n" name;
    let auto =
      Ses_core.Planner.choose_access
        ~stats:(Ses_harness.Access_exec.stats prepared)
        (Ses_core.Planner.plan automaton)
        automaton
    in
    let auto_takes, estimate =
      match auto with
      | Ses_core.Planner.Index_probe { estimate; _ } -> ("index", estimate)
      | Ses_core.Planner.Scan _ -> ("scan", n_events)
    in
    Printf.sprintf
      "    {\"query\": %S, \"description\": %S,\n\
      \     \"scan_s\": %.6f, \"index_s\": %.6f, \"speedup\": %.2f,\n\
      \     \"auto_access\": %S, \"estimated_candidates\": %d,\n\
      \     \"candidates\": %d, \"postings_scanned\": %d, \"clipped\": %d,\n\
      \     \"matches\": %d, \"matches_equal\": %b}"
      name description scan_s index_s (scan_s /. index_s) auto_takes estimate
      index.Ses_harness.Access_exec.candidates
      index.Ses_harness.Access_exec.postings_scanned
      index.Ses_harness.Access_exec.clipped
      (List.length index.Ses_harness.Access_exec.matches)
      matches_equal
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"workload\": {\"events\": %d, \"entity_keys\": %d},\n\
      \  \"cores_available\": %d,\n\
      \  \"reps\": %d,\n\
      \  \"prepare_stats_s\": %.6f,\n\
      \  \"runs\": [\n\
       %s\n\
      \  ]\n\
       }"
      n_events
      (spec.RW.n_ids * copies)
      (Ses_core.Domain_pool.recommended ())
      reps prepare_s
      (String.concat ",\n" (List.map leg_json legs))
  in
  Printf.printf "Index-accelerated access paths (JSON)\n";
  Printf.printf "-------------------------------------\n";
  Printf.printf "%s\n\n" json;
  let oc = open_out "BENCH_index.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc

(* Micro-benchmarks: one Test.make per paper artifact, on the D1 dataset. *)

let micro_tests () =
  let module E = Ses_harness.Experiments in
  let module Q = Ses_harness.Queries in
  let d1 = E.dataset cfg in
  let raw_options =
    { Ses_core.Engine.default_options with Ses_core.Engine.finalize = false }
  in
  let ses pattern () =
    ignore
      (Ses_core.Engine.run_relation ~options:raw_options
         (Ses_core.Automaton.of_pattern pattern)
         d1)
  in
  let bf pattern () =
    ignore (Ses_baseline.Brute_force.run_relation ~options:raw_options pattern d1)
  in
  let filtered pattern () =
    let options =
      {
        raw_options with
        Ses_core.Engine.filter = Ses_core.Event_filter.Paper;
      }
    in
    ignore
      (Ses_core.Engine.run_relation ~options
         (Ses_core.Automaton.of_pattern pattern)
         d1)
  in
  Test.make_grouped ~name:"ses" ~fmt:"%s %s"
    [
      (* Figure 11 / Table 1: SES vs BF on the exclusive pattern. *)
      Test.make ~name:"fig11/ses-p1"
        (Staged.stage (ses (Q.exp1_exclusive 4)));
      Test.make ~name:"fig11/bf-p1" (Staged.stage (bf (Q.exp1_exclusive 4)));
      (* Figure 12: case 2 vs case 3 instance growth. *)
      Test.make ~name:"fig12/ses-p4-case2" (Staged.stage (ses Q.p4));
      Test.make ~name:"fig12/ses-p3-case3" (Staged.stage (ses Q.p3));
      (* Figure 13: the filter's effect on the exclusive pattern. *)
      Test.make ~name:"fig13/p5-nofilter" (Staged.stage (ses Q.p5));
      Test.make ~name:"fig13/p5-filter" (Staged.stage (filtered Q.p5));
      (* Construction costs. *)
      Test.make ~name:"build/automaton-q1"
        (Staged.stage (fun () ->
             ignore (Ses_core.Automaton.of_pattern Q.q1)));
      Test.make ~name:"build/automaton-6vars"
        (Staged.stage (fun () ->
             ignore (Ses_core.Automaton.of_pattern (Q.exp1_exclusive 6))));
      (* End-to-end throughput of the planned execution path on Q1. *)
      Test.make ~name:"stream/q1-planned"
        (Staged.stage (fun () ->
             ignore
               (Ses_core.Planner.run_relation
                  (Ses_core.Automaton.of_pattern Q.q1)
                  d1)));
    ]

let run_micro () =
  let benchmark test =
    let bench_cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None ()
    in
    Benchmark.all bench_cfg Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let results = analyze (benchmark (micro_tests ())) in
  Format.printf "Micro-benchmarks (monotonic clock per run)@.";
  Format.printf "-------------------------------------------@.";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some _ | None -> Float.nan
      in
      rows := (name, estimate) :: !rows)
    results;
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Format.printf "  %-28s (no estimate)@." name
      else if ns > 1e6 then Format.printf "  %-28s %10.3f ms@." name (ns /. 1e6)
      else Format.printf "  %-28s %10.3f us@." name (ns /. 1e3))
    (List.sort
       (fun (a, x) (b, y) ->
         let c = String.compare a b in
         if c <> 0 then c else Float.compare x y)
       !rows);
  Format.printf "@."

let () =
  if store_only then store_bench ()
  else if parallel_only then parallel_bench ()
  else if telemetry_only then telemetry_bench ()
  else if batch_only then batch_bench ()
  else if index_only then index_bench ()
  else begin
    run_tables ();
    if not no_stream then stream_bench ();
    if not no_micro then run_micro ();
    store_bench ();
    parallel_bench ();
    telemetry_bench ();
    batch_bench ();
    index_bench ()
  end
