open Ses_core
open Helpers

let test_figure1_report () =
  let r = Explain.explain (Automaton.of_pattern query_q1) figure_1 in
  Alcotest.(check int) "events" 14 r.Explain.events;
  Alcotest.(check int) "matches" 2 r.Explain.matches;
  Alcotest.(check int) "raw" 3 r.Explain.raw;
  Alcotest.(check int) "no kills" 0 r.Explain.killed;
  (* Candidate counts from Figure 1: 2 C, 3 D... D appears twice (e3, e7);
     P five times (e4, e6, e9, e10, e11); B five times. *)
  let count name =
    List.assoc
      (Option.get (Ses_pattern.Pattern.var_id query_q1 name))
      r.Explain.candidates_per_variable
  in
  Alcotest.(check int) "c candidates" 2 (count "c");
  Alcotest.(check int) "d candidates" 2 (count "d");
  Alcotest.(check int) "p candidates" 5 (count "p");
  Alcotest.(check int) "b candidates" 5 (count "b");
  (* The accepting state was entered three times: both patients' matches
     plus the late-start candidate removed by finalization. *)
  let accept = Automaton.accept (Automaton.of_pattern query_q1) in
  Alcotest.(check (option int)) "accept entered thrice" (Some 3)
    (List.assoc_opt accept r.Explain.entered);
  (* Every transition's fire count sums to transitions_fired. *)
  let fired_total =
    List.fold_left (fun acc ts -> acc + ts.Explain.fired) 0 r.Explain.transitions
  in
  Alcotest.(check bool) "some fired" true (fired_total > 0)

let test_unmatchable_variable_detected () =
  (* Pattern over a label that never occurs: the report pinpoints it. *)
  let p =
    pattern ~within:10
      [ [ v "a" ]; [ v "z" ] ]
      ~where:[ label "a" "a"; label "z" "nope" ]
  in
  let r =
    Explain.explain (Automaton.of_pattern p) (rel_l [ ("a", 0); ("b", 1) ])
  in
  Alcotest.(check int) "no matches" 0 r.Explain.matches;
  let z = Option.get (Ses_pattern.Pattern.var_id p "z") in
  Alcotest.(check (option int)) "z has no candidates" (Some 0)
    (List.assoc_opt z r.Explain.candidates_per_variable);
  (* The instance that bound a is reported stuck at state {a}. *)
  let a_state = Varset.singleton (Option.get (Ses_pattern.Pattern.var_id p "a")) in
  Alcotest.(check bool) "stuck at {a}" true
    (List.mem_assoc a_state r.Explain.stuck);
  let rendered = Format.asprintf "%a" Explain.pp r in
  Alcotest.(check bool) "narrative mentions never-fired" true
    (let needle = "never fired" in
     let nl = String.length needle and hl = String.length rendered in
     let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
     go 0)

let test_kills_reported () =
  let p =
    Ses_pattern.Pattern.make_full_exn ~schema:Helpers.schema
      ~sets:[ [ v "a" ]; [ v "b" ] ]
      ~negations:[ (0, v "x") ]
      ~where:[ label "a" "a"; label "b" "b"; label "x" "x" ]
      ~within:20
  in
  let r =
    Explain.explain (Automaton.of_pattern p)
      (rel_l [ ("a", 0); ("x", 2); ("b", 5) ])
  in
  Alcotest.(check int) "kill reported" 1 r.Explain.killed;
  Alcotest.(check int) "no match" 0 r.Explain.matches

let test_emission_lag () =
  (* Q1 on Figure 1 emits only at end of stream (the window spans all 14
     events): no expiry-based lag. *)
  let r = Explain.explain (Automaton.of_pattern query_q1) figure_1 in
  Alcotest.(check bool) "no expiry emissions" true (r.Explain.emission_lag = None);
  (* A short-window sequence that expires mid-stream reports its lag. *)
  let p =
    pattern ~within:5 [ [ v "x" ]; [ v "y" ] ]
      ~where:[ label "x" "x"; label "y" "y" ]
  in
  let rel = rel_l [ ("x", 0); ("y", 2); ("z", 50) ] in
  let r = Explain.explain (Automaton.of_pattern p) rel in
  match r.Explain.emission_lag with
  | Some (mean, worst) ->
      (* The match's last event is y@2; it is emitted when z@50 expires
         the instance: lag 48. *)
      Alcotest.(check int) "max lag" 48 worst;
      Alcotest.(check (float 0.01)) "mean lag" 48.0 mean
  | None -> Alcotest.fail "expected an emission lag"

let test_pruned_reported () =
  (* Q1 on Figure 1: P events of the other patient extend {p+}, and c
     must then equal two IDs. Each dropped successor is counted once, with
     c as the variable that can no longer bind. *)
  let r = Explain.explain (Automaton.of_pattern query_q1) figure_1 in
  let c = Option.get (Ses_pattern.Pattern.var_id query_q1 "c") in
  let dropped =
    List.fold_left (fun acc ps -> acc + ps.Explain.dropped) 0 r.Explain.pruned
  in
  Alcotest.(check int) "dropped successors" 3 dropped;
  Alcotest.(check int) "every pruned successor is attributed"
    (Engine.run_relation (Automaton.of_pattern query_q1) figure_1)
      .Engine.metrics.Metrics.instances_pruned dropped;
  Alcotest.(check bool) "c is the dead variable" true
    (List.for_all (fun ps -> ps.Explain.dead_var = c) r.Explain.pruned);
  let rendered = Format.asprintf "%a" Explain.pp r in
  let has needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i =
      i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "narrative gives the reason" true
    (has "were dropped: c's equality partners already disagree")

let test_explain_preserves_outcome () =
  let automaton = Automaton.of_pattern query_q1 in
  let direct = Engine.run_relation automaton figure_1 in
  let r = Explain.explain automaton figure_1 in
  Alcotest.(check int) "same matches"
    (List.length direct.Engine.matches)
    r.Explain.matches

let suite =
  [
    Alcotest.test_case "Figure 1 report" `Quick test_figure1_report;
    Alcotest.test_case "unmatchable variable" `Quick test_unmatchable_variable_detected;
    Alcotest.test_case "negation kills reported" `Quick test_kills_reported;
    Alcotest.test_case "emission lag" `Quick test_emission_lag;
    Alcotest.test_case "explain preserves outcome" `Quick test_explain_preserves_outcome;
    Alcotest.test_case "pruned successors reported" `Quick test_pruned_reported;
  ]
