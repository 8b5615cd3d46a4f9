(* Reproduction of Figure 6: the execution steps of the instance that
   produces patient 1's match of the running example. *)

open Ses_core
open Helpers

let steps, outcome = Trace.run (Automaton.of_pattern query_q1) figure_1

let p1_match =
  List.find
    (fun s ->
      subst_repr query_q1 s
      = List.sort compare_name_seq
          [ ("c", 1); ("d", 3); ("p+", 4); ("p+", 9); ("b", 12) ])
    outcome.Engine.matches

let p1_steps = Trace.for_buffer p1_match steps

let rendered =
  List.map
    (fun obs -> Format.asprintf "%a" (Trace.pp_observation query_q1) obs)
    p1_steps

let has needle =
  List.exists
    (fun line ->
      let nl = String.length needle and ll = String.length line in
      let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
      go 0)
    rendered

let test_figure6_b () =
  (* (b) Read e1, match starts: ∅ --c--> {c}. *)
  Alcotest.(check bool) "e1 starts" true (has "read e1: take")

let test_figure6_c () =
  (* (c) Read e2, ignored at {c}. *)
  Alcotest.(check bool) "e2 ignored" true (has "read e2: ignore at c,")

let test_figure6_d_e () =
  (* (d) e3 matched via ({c}, d); (e) e4 via ({c,d}, p+) — the step the
     paper illustrates in detail. *)
  Alcotest.(check bool) "e3 take d" true (has "read e3: take (c --d--> cd)");
  Alcotest.(check bool) "e4 take p+" true
    (has "read e4: take (cd --p+--> cp+d)")

let test_figure6_f () =
  (* (f) Read e6 (patient 2's P), ignored: the c.ID = p+.ID join fails. *)
  Alcotest.(check bool) "e6 ignored" true (has "read e6: ignore at cp+d")

let test_figure6_g () =
  (* (g) Read e9, repetition matched: the p+ loop. *)
  Alcotest.(check bool) "e9 loop" true (has "read e9: take (cp+d --p+--> cp+d)")

let test_figure6_h () =
  (* (h) Read e12, accepting state reached. *)
  Alcotest.(check bool) "e12 accept" true
    (has "read e12: take (cp+d --b--> cp+db)");
  Alcotest.(check bool) "emitted" true
    (has "emit {c/e1, d/e3, p+/e4, p+/e9, b/e12}")

let test_trace_is_complete () =
  (* A Created step per unfiltered event, and every emission recorded. *)
  let created =
    List.length
      (List.filter (function Engine.Created _ -> true | _ -> false) steps)
  in
  Alcotest.(check int) "one per event" 14 created;
  let emitted =
    List.length
      (List.filter (function Engine.Emitted _ -> true | _ -> false) steps)
  in
  Alcotest.(check int) "three raw emissions" 3 emitted;
  let pruned =
    List.length
      (List.filter (function Engine.Pruned _ -> true | _ -> false) steps)
  in
  Alcotest.(check int) "one step per pruned successor"
    outcome.Engine.metrics.Metrics.instances_pruned pruned;
  Alcotest.(check bool) "some pruned" true (pruned > 0)

let test_trace_outcome_matches_plain_run () =
  let plain = run query_q1 figure_1 in
  Alcotest.(check (list (list (pair string int))))
    "same matches"
    (substs_repr query_q1 plain.Engine.matches)
    (substs_repr query_q1 outcome.Engine.matches)

let test_observer_removal () =
  let st = Engine.create (Automaton.of_pattern query_q1) in
  let count = ref 0 in
  Engine.set_observer st (Some (fun _ -> incr count));
  ignore (Engine.feed st (Ses_event.Relation.get figure_1 0));
  let after_first = !count in
  Alcotest.(check bool) "observed" true (after_first > 0);
  Engine.set_observer st None;
  ignore (Engine.feed st (Ses_event.Relation.get figure_1 1));
  Alcotest.(check int) "silent after removal" after_first !count

let test_pp_full_trace () =
  let text = Format.asprintf "%a" (Trace.pp query_q1) p1_steps in
  Alcotest.(check bool) "renders" true (String.length text > 0)

let suite =
  [
    Alcotest.test_case "Figure 6(b): match starts" `Quick test_figure6_b;
    Alcotest.test_case "Figure 6(c): e2 ignored" `Quick test_figure6_c;
    Alcotest.test_case "Figure 6(d,e): d then p+" `Quick test_figure6_d_e;
    Alcotest.test_case "Figure 6(f): foreign P ignored" `Quick test_figure6_f;
    Alcotest.test_case "Figure 6(g): repetition" `Quick test_figure6_g;
    Alcotest.test_case "Figure 6(h): accept" `Quick test_figure6_h;
    Alcotest.test_case "trace completeness" `Quick test_trace_is_complete;
    Alcotest.test_case "trace preserves outcome" `Quick
      test_trace_outcome_matches_plain_run;
    Alcotest.test_case "observer removal" `Quick test_observer_removal;
    Alcotest.test_case "full trace rendering" `Quick test_pp_full_trace;
  ]
