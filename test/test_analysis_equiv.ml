(* The analyzer's two planner contributions — dead-transition pruning
   and inferred filter constants — must be result-preserving: with the
   analyzer registered, every executor strategy produces the same
   finalized matches (element by element) and the same raw emissions (as
   a multiset) as the bare unanalyzed engine on the original automaton.

   The bare engine run never consults the planner, so it is a valid
   baseline even though registration is global. Deterministic cases pin
   the interesting regimes — active pruning, active extras, negation
   kills and τ-expiry — and a QCheck property sweeps random workloads. *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_gen
open Helpers

let () =
  Ses_baseline.Brute_force.register ();
  Ses_analysis.Analyzer.register ()

let canon substs = List.map Substitution.canonical substs

let canon_sorted substs =
  List.sort Substitution.compare_canonical (canon substs)

(* `Naive and `Brute_force are Definition 2 enumeration oracles with
   deliberately different skip semantics — test_equivalence.ml only ever
   relates them to the engine by raw-emission *inclusion*, never
   equality — so the exact-agreement set is the three strategies that
   share the engine's skip-till-next-match semantics, with partitioned
   also run sharded across two worker domains. *)
let strategies = [ (`Auto, 1); (`Plain, 1); (`Partitioned, 1); (`Partitioned, 2) ]

let agrees_with_baseline ?(options = Engine.default_options) p r =
  let automaton = Automaton.of_pattern p in
  let baseline = Engine.run_relation ~options automaton r in
  List.for_all
    (fun (strategy, domains) ->
      let options = { options with Engine.domains } in
      let out =
        Executor.drive ~options
          (Executor.create ~options strategy automaton)
          automaton (Relation.to_seq r)
      in
      canon out.Engine.matches = canon baseline.Engine.matches
      && canon_sorted out.Engine.raw = canon_sorted baseline.Engine.raw)
    strategies

let check_agreement name p r =
  Alcotest.(check bool) name true (agrees_with_baseline p r)

(* Active pruning: the b-after-a ordering is dead (arrival order), the
   other ordering matches. *)
let test_pruned_ordering () =
  let p =
    pattern ~within:10
      ~where:
        [
          label "a" "a";
          label "b" "b";
          Pattern.Spec.fields "b" "T" Predicate.Lt "a" "T";
        ]
      [ [ v "a"; v "b" ] ]
  in
  let r =
    Ses_analysis.Analyzer.analyze_pattern p in
  Alcotest.(check int) "pruning active" 1 r.Ses_analysis.Analyzer.pruned_transitions;
  let relation =
    rel [ (1, "b", 0, 1); (1, "a", 0, 2); (1, "b", 0, 3); (1, "a", 0, 4) ]
  in
  check_agreement "pruned ordering" p relation

(* Active extras: b and x inherit a's ID = 1 through equality chains, so
   the strong filter (and the bind-time pre-check) get sharper — while
   the negation guard still kills and old instances still expire. *)
let neg_extras_pattern =
  Pattern.make_full_exn ~schema ~sets:[ [ v "a" ]; [ v "b" ] ]
    ~negations:[ (0, v "x") ]
    ~where:
      ([
         label "a" "a";
         label "b" "b";
         label "x" "x";
         Pattern.Spec.const "a" "ID" Predicate.Eq (Value.Int 1);
       ]
      @ Pattern.Spec.
          [
            fields "b" "ID" Predicate.Eq "a" "ID";
            fields "x" "ID" Predicate.Eq "a" "ID";
          ])
    ~within:8

let neg_extras_relation =
  rel
    [
      (1, "a", 0, 0);
      (2, "a", 0, 1);
      (* kills nothing: wrong ID *)
      (2, "x", 0, 2);
      (1, "b", 0, 3);
      (* second round: the x guard kills before b arrives *)
      (1, "a", 0, 10);
      (1, "x", 0, 11);
      (1, "b", 0, 12);
      (* third round: the a expires (20 + 8 < 30) before its b *)
      (1, "a", 0, 20);
      (1, "b", 0, 30);
    ]

let test_extras_with_negation_and_expiry () =
  let r = Ses_analysis.Analyzer.analyze_pattern neg_extras_pattern in
  Alcotest.(check bool) "extras active" true
    (r.Ses_analysis.Analyzer.filter_extras <> []);
  let automaton = Automaton.of_pattern neg_extras_pattern in
  let baseline = Engine.run_relation automaton neg_extras_relation in
  Alcotest.(check bool) "kill exercised" true
    (baseline.Engine.metrics.Metrics.instances_killed >= 1);
  Alcotest.(check bool) "expiry exercised" true
    (baseline.Engine.metrics.Metrics.instances_expired >= 1);
  check_substs neg_extras_pattern
    [ [ ("a", 1); ("b", 4) ] ]
    baseline.Engine.matches;
  check_agreement "negation + expiry + extras" neg_extras_pattern
    neg_extras_relation

(* A never-matching pattern still runs soundly everywhere: zero matches,
   zero raw, no crashes on a fully pruned automaton. *)
let test_never_matching () =
  let p =
    pattern ~within:10
      ~where:[ label "a" "x"; label "a" "y"; label "b" "b" ]
      [ [ v "a"; v "b" ] ]
  in
  let r = Ses_analysis.Analyzer.analyze_pattern p in
  Alcotest.(check bool) "proved unmatchable" true
    r.Ses_analysis.Analyzer.never_matches;
  let relation = rel [ (1, "x", 0, 1); (1, "y", 0, 2); (1, "b", 0, 3) ] in
  let automaton = Automaton.of_pattern p in
  let out = Planner.run_relation automaton relation in
  Alcotest.(check int) "no matches" 0 (List.length out.Engine.matches);
  check_agreement "never matching" p relation

(* Random workloads: whatever the analyzer decides to prune or infer on
   them, every strategy must agree with the bare engine. *)
let random_workloads_agree =
  QCheck.Test.make ~count:80
    ~name:"all strategies = bare engine under the registered analyzer"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat = Random_workload.pattern rng Random_workload.default_pattern in
      let r = Random_workload.relation rng Random_workload.default_relation in
      agrees_with_baseline pat r)

(* And with complete ID joins, so the partitioned path really shards. *)
let random_partitioned_agree =
  QCheck.Test.make ~count:60
    ~name:"partitionable workloads agree under the registered analyzer"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat =
        Random_workload.pattern rng
          { Random_workload.default_pattern with Random_workload.p_id_join = 1.0 }
      in
      let r = Random_workload.relation rng Random_workload.default_relation in
      agrees_with_baseline pat r)

let suite =
  [
    Alcotest.test_case "pruned ordering preserved" `Quick test_pruned_ordering;
    Alcotest.test_case "extras + negation + expiry preserved" `Quick
      test_extras_with_negation_and_expiry;
    Alcotest.test_case "never-matching patterns run soundly" `Quick
      test_never_matching;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ random_workloads_agree; random_partitioned_agree ]
