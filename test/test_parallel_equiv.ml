(* Equivalence of domain-parallel Multi against sequential Multi: the
   two must be observationally identical — same finalized matches (in
   order), same raw emissions (as a multiset), and metrics that agree on
   every counter except the sampled population peak (see [invariant]
   below). The merged cross-query metrics of Multi are identical at
   every domain count.

   The default random-relation spec already exercises τ-expiry (gaps of
   up to several time units against τ ∈ [5, 20]). *)

open Ses_event
open Ses_core
open Ses_gen
open Helpers

(* Every pair of variables gets an ID equality, so q3 below keys the
   engine's states by ID. *)
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

(* The counters compared by equality. [max_simultaneous_instances]
   depends on when expiry sweeps run, so it is compared by inequality
   instead: see [multi_parallel_equals_sequential]. *)
let invariant (m : Metrics.snapshot) =
  { m with Metrics.max_simultaneous_instances = 0 }

let multi_parallel_equals_sequential =
  QCheck.Test.make ~count:40 ~name:"parallel multi = sequential multi"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let p1 = Random_workload.pattern rng Random_workload.default_pattern in
      let p2 = Random_workload.pattern rng Random_workload.default_pattern in
      let p3 = Random_workload.pattern rng part_spec in
      let r = Random_workload.relation rng Random_workload.default_relation in
      let queries =
        [
          ("q1", Automaton.of_pattern p1);
          ("q2", Automaton.of_pattern p2);
          ("q3", Automaton.of_pattern p3);
        ]
      in
      let run domains =
        Multi.run
          ~options:{ Engine.default_options with Engine.domains }
          queries (Relation.to_seq r)
      in
      let seq = run 1 in
      List.for_all
        (fun domains ->
          let par = run domains in
          List.for_all2
            (fun (n1, (o1 : Engine.outcome)) (n2, (o2 : Engine.outcome)) ->
              n1 = n2
              && canon o1.Engine.matches = canon o2.Engine.matches
              && canon_sorted o1.Engine.raw = canon_sorted o2.Engine.raw
              (* Each query runs on exactly one domain, so the semantic
                 counters are bit-identical, and so is the expiry count:
                 either side's clock ends at the last event. The
                 population peak differs by sweep cadence only: the
                 sequential run feeds in [batch_size] chunks (one expiry
                 sweep per chunk), the workers feed per event (a sweep at
                 every event — a superset of the chunk boundaries), so
                 the per-event side, retiring instances earlier, peaks no
                 higher. *)
              && invariant o1.Engine.metrics = invariant o2.Engine.metrics
              && o1.Engine.metrics.Metrics.max_simultaneous_instances
                 >= o2.Engine.metrics.Metrics.max_simultaneous_instances)
            seq par)
        [ 2; 4 ])

(* Merged cross-query metrics are deterministic across domain counts:
   replica accounting does not depend on which worker ran which
   query. *)
let test_multi_merged_metrics () =
  let queries =
    [
      ("q1", Automaton.of_pattern query_q1);
      ("q1-singleton", Automaton.of_pattern query_q1_singleton);
    ]
  in
  let run domains =
    let t =
      Multi.create ~options:{ Engine.default_options with Engine.domains }
        queries
    in
    Seq.iter (fun e -> ignore (Multi.feed t e)) (Relation.to_seq figure_1);
    ignore (Multi.close t);
    (Multi.n_domains t, Multi.merged_metrics t)
  in
  let d1, m1 = run 1 in
  let d2, m2 = run 2 in
  Alcotest.(check int) "sequential mode" 1 d1;
  Alcotest.(check int) "parallel mode" 2 d2;
  Alcotest.(check bool) "merged metrics identical" true (m1 = m2)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      multi_parallel_equals_sequential;
    ]
  @ [
      Alcotest.test_case "multi merged metrics deterministic" `Quick
        test_multi_merged_metrics;
    ]
