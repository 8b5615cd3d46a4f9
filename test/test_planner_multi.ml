open Ses_core
open Helpers

(* ---- Planner ---- *)

let test_plan_q1 () =
  let plan = Planner.plan (Automaton.of_pattern query_q1) in
  Alcotest.(check bool) "strong filter chosen" true
    (plan.Planner.filter = Event_filter.Strong);
  Alcotest.(check bool) "precheck on" true plan.Planner.precheck_constants;
  Alcotest.(check int) "two cases" 2 (List.length plan.Planner.cases);
  Alcotest.(check bool) "describe" true
    (String.length (Planner.describe plan) > 0)

let test_plan_unconstrained () =
  (* A variable without constant conditions disables filtering. *)
  let p = pattern ~within:10 [ [ v "a" ]; [ v "b" ] ] ~where:[ label "a" "x" ] in
  let plan = Planner.plan (Automaton.of_pattern p) in
  Alcotest.(check bool) "no filter" true
    (plan.Planner.filter = Event_filter.No_filter)

let test_planner_run_equals_engine () =
  let automaton = Automaton.of_pattern query_q1 in
  let direct = Engine.run_relation automaton figure_1 in
  let planned = Planner.run_relation automaton figure_1 in
  Alcotest.(check (list (list (pair string int))))
    "same matches"
    (substs_repr query_q1 direct.Engine.matches)
    (substs_repr query_q1 planned.Engine.matches)

let planner_transparent =
  QCheck.Test.make ~count:75 ~name:"planner never changes matches"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Ses_gen.Prng.create (Int64.of_int seed) in
      let pat =
        Ses_gen.Random_workload.pattern rng
          Ses_gen.Random_workload.default_pattern
      in
      let r =
        Ses_gen.Random_workload.relation rng
          Ses_gen.Random_workload.default_relation
      in
      let automaton = Automaton.of_pattern pat in
      let direct = Engine.run_relation automaton r in
      let planned = Planner.run_relation automaton r in
      List.map Substitution.canonical direct.Engine.matches
      = List.map Substitution.canonical planned.Engine.matches)

(* ---- Multi ---- *)

let seq_pattern a b =
  pattern ~within:10 [ [ v "x" ]; [ v "y" ] ] ~where:[ label "x" a; label "y" b ]

let test_multi_validation () =
  let a = Automaton.of_pattern (seq_pattern "a" "b") in
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Multi.create: duplicate query name") (fun () ->
      ignore (Multi.create [ ("q", a); ("q", a) ]));
  Alcotest.check_raises "empty name"
    (Invalid_argument "Multi.create: empty query name") (fun () ->
      ignore (Multi.create [ ("", a) ]))

let test_multi_equals_individual () =
  let queries =
    [
      ("ab", Automaton.of_pattern (seq_pattern "a" "b"));
      ("bc", Automaton.of_pattern (seq_pattern "b" "c"));
      ("never", Automaton.of_pattern (seq_pattern "z" "z"));
    ]
  in
  let r = rel_l [ ("a", 0); ("b", 2); ("c", 4); ("a", 6); ("b", 7) ] in
  let multi = Multi.run queries (Ses_event.Relation.to_seq r) in
  List.iter
    (fun (name, automaton) ->
      let solo = Engine.run_relation automaton r in
      let combined = List.assoc name multi in
      Alcotest.(check int)
        (name ^ " same count")
        (List.length solo.Engine.matches)
        (List.length combined.Engine.matches);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) (name ^ " same match") true
            (Substitution.equal a b))
        solo.Engine.matches combined.Engine.matches)
    queries;
  Alcotest.(check (list string)) "names" [ "ab"; "bc"; "never" ]
    (Multi.names (Multi.create queries))

let test_multi_incremental () =
  let queries = [ ("ab", Automaton.of_pattern (seq_pattern "a" "b")) ] in
  let t = Multi.create queries in
  let events = rel_l [ ("a", 0); ("b", 2); ("z", 100) ] in
  let completions = ref [] in
  Ses_event.Relation.iter
    (fun e -> completions := !completions @ Multi.feed t e)
    events;
  (* The a-b match expires when z arrives far outside the window. *)
  Alcotest.(check int) "completed mid-stream" 1 (List.length !completions);
  Alcotest.(check string) "routed to the right query" "ab"
    (fst (List.hd !completions));
  ignore (Multi.close t);
  Alcotest.(check int) "empty after close" 0 (Multi.population t)

let suite =
  [
    Alcotest.test_case "plan for Q1" `Quick test_plan_q1;
    Alcotest.test_case "plan without constants" `Quick test_plan_unconstrained;
    Alcotest.test_case "planner = engine on Figure 1" `Quick
      test_planner_run_equals_engine;
    QCheck_alcotest.to_alcotest planner_transparent;
    Alcotest.test_case "multi validation" `Quick test_multi_validation;
    Alcotest.test_case "multi = individual runs" `Quick test_multi_equals_individual;
    Alcotest.test_case "multi incremental routing" `Quick test_multi_incremental;
  ]
