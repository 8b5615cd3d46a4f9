(* Negation guards: forbidden events between consecutive event set
   patterns (the SASE-style extension). *)

open Ses_event
open Ses_pattern
open Ses_core
open Helpers

(* <{a}, NOT x, {b}>: a then b within 20, with no x event in between. *)
let neg_pattern ?(extra = []) () =
  Pattern.make_full_exn ~schema:Helpers.schema
    ~sets:[ [ v "a" ]; [ v "b" ] ]
    ~negations:[ (0, v "x") ]
    ~where:([ label "a" "a"; label "b" "b"; label "x" "x" ] @ extra)
    ~within:20

let test_validation () =
  let err ~sets ~negations ~where =
    Result.is_error
      (Pattern.make_full ~schema:Helpers.schema ~sets ~negations ~where
         ~within:10)
  in
  (* Boundary out of range. *)
  Alcotest.(check bool) "beyond the last set" true
    (err ~sets:[ [ v "a" ] ] ~negations:[ (1, v "x") ] ~where:[]);
  Alcotest.(check bool) "negative boundary" true
    (err ~sets:[ [ v "a" ]; [ v "b" ] ] ~negations:[ (-1, v "x") ] ~where:[]);
  (* Negated variables bind exactly one event. *)
  Alcotest.(check bool) "group negation rejected" true
    (err ~sets:[ [ v "a" ]; [ v "b" ] ] ~negations:[ (0, vplus "x") ] ~where:[]);
  (* Name clash with a positive variable. *)
  Alcotest.(check bool) "duplicate name" true
    (err ~sets:[ [ v "a" ]; [ v "b" ] ] ~negations:[ (0, v "a") ] ~where:[]);
  (* Conditions on the negation may not reference later sets. *)
  Alcotest.(check bool) "forward reference rejected" true
    (err
       ~sets:[ [ v "a" ]; [ v "b" ] ]
       ~negations:[ (0, v "x") ]
       ~where:[ Pattern.Spec.fields "x" "V" Predicate.Eq "b" "V" ]);
  (* Conditions between two negated variables are rejected. *)
  Alcotest.(check bool) "neg-neg condition rejected" true
    (err
       ~sets:[ [ v "a" ]; [ v "b" ]; [ v "c" ] ]
       ~negations:[ (0, v "x"); (1, v "y") ]
       ~where:[ Pattern.Spec.fields "x" "V" Predicate.Eq "y" "V" ]);
  (* Backward references are fine. *)
  Alcotest.(check bool) "backward reference accepted" false
    (err
       ~sets:[ [ v "a" ]; [ v "b" ] ]
       ~negations:[ (0, v "x") ]
       ~where:[ Pattern.Spec.fields "x" "ID" Predicate.Eq "a" "ID" ])

let test_accessors () =
  let p = neg_pattern () in
  Alcotest.(check int) "positive vars" 2 (Pattern.n_vars p);
  let x = Option.get (Pattern.var_id p "x") in
  Alcotest.(check bool) "negated id beyond n_vars" true (x >= Pattern.n_vars p);
  Alcotest.(check bool) "is_negated" true (Pattern.is_negated p x);
  Alcotest.(check bool) "positives are not" false (Pattern.is_negated p 0);
  Alcotest.(check (option int)) "boundary" (Some 0) (Pattern.negation_boundary p x);
  Alcotest.(check (list (pair int int))) "negations" [ (0, x) ] (Pattern.negations p);
  Alcotest.(check string) "display name" "!x" (Pattern.var_name p x);
  Alcotest.(check int) "theta proper excludes guard" 2
    (List.length (Pattern.positive_conditions p));
  Alcotest.(check int) "all conditions" 3 (List.length (Pattern.conditions p))

let test_kill_between_sets () =
  let p = neg_pattern () in
  (* Without the forbidden event: match. *)
  check_substs p
    [ [ ("a", 1); ("b", 2) ] ]
    (run p (rel_l [ ("a", 0); ("b", 5) ])).Engine.matches;
  (* An x strictly between kills the instance. *)
  let outcome = run p (rel_l [ ("a", 0); ("x", 2); ("b", 5) ]) in
  check_substs p [] outcome.Engine.matches;
  Alcotest.(check int) "killed counted" 1
    outcome.Engine.metrics.Metrics.instances_killed

let test_not_killed_outside_boundary () =
  let p = neg_pattern () in
  (* x before a or after b is harmless. *)
  check_substs p
    [ [ ("a", 2); ("b", 3) ] ]
    (run p (rel_l [ ("x", 0); ("a", 1); ("b", 5) ])).Engine.matches;
  check_substs p
    [ [ ("a", 1); ("b", 2) ] ]
    (run p (rel_l [ ("a", 0); ("b", 5); ("x", 8) ])).Engine.matches

let test_join_condition_on_guard () =
  (* Forbidden only when the x event belongs to the same entity as a. *)
  let p =
    neg_pattern ~extra:[ Pattern.Spec.fields "x" "ID" Predicate.Eq "a" "ID" ] ()
  in
  (* Foreign-entity x does not kill. *)
  check_substs p
    [ [ ("a", 1); ("b", 3) ] ]
    (run p (rel [ (1, "a", 0, 0); (2, "x", 0, 2); (1, "b", 0, 5) ])).Engine.matches;
  (* Same-entity x does. *)
  check_substs p []
    (run p (rel [ (1, "a", 0, 0); (1, "x", 0, 2); (1, "b", 0, 5) ])).Engine.matches

let test_bind_takes_precedence () =
  (* An event that fires a transition is a binding, not a forbidden
     in-between event — guards only kill instances the event ignores. *)
  let p =
    Pattern.make_full_exn ~schema:Helpers.schema
      ~sets:[ [ v "a" ]; [ v "b" ] ]
      ~negations:[ (0, v "x") ]
      ~where:
        [
          label "a" "a";
          (* b and the forbidden x share the label 'b'. *)
          label "b" "b";
          label "x" "b";
        ]
      ~within:20
  in
  check_substs p
    [ [ ("a", 1); ("b", 2) ] ]
    (run p (rel_l [ ("a", 0); ("b", 3) ])).Engine.matches

let test_second_chance_after_kill () =
  (* A later a restarts the search after a kill. *)
  let p = neg_pattern () in
  check_substs p
    [ [ ("a", 4); ("b", 5) ] ]
    (run p (rel_l [ ("a", 0); ("x", 2); ("b", 5); ("a", 8); ("b", 11) ]))
      .Engine.matches

let test_filter_keeps_forbidden_events () =
  (* The event filter must keep events that can only trigger guards —
     otherwise filtering changes results. *)
  let p = neg_pattern () in
  let r = rel_l [ ("a", 0); ("x", 2); ("b", 5) ] in
  List.iter
    (fun mode ->
      let options = { Engine.default_options with Engine.filter = mode } in
      check_substs p [] (run ~options p r).Engine.matches)
    [ Event_filter.No_filter; Event_filter.Paper; Event_filter.Strong ]

let test_naive_agreement () =
  let p = neg_pattern () in
  let blocked = rel_l [ ("a", 0); ("x", 2); ("b", 5) ] in
  Alcotest.(check int) "oracle also rejects" 0
    (List.length (Naive.all_satisfying_1_3 p blocked));
  let open_rel = rel_l [ ("a", 0); ("y", 2); ("b", 5) ] in
  Alcotest.(check int) "oracle accepts" 1
    (List.length (Naive.all_satisfying_1_3 p open_rel))

let test_brute_force_agreement () =
  let p =
    Pattern.make_full_exn ~schema:Helpers.schema
      ~sets:[ [ v "a"; v "c" ]; [ v "b" ] ]
      ~negations:[ (0, v "x") ]
      ~where:[ label "a" "a"; label "c" "c"; label "b" "b"; label "x" "x" ]
      ~within:30
  in
  let check r =
    let ses = run p r in
    let bf = Ses_baseline.Brute_force.run_relation p r in
    Alcotest.(check (list (list (pair string int))))
      "BF = SES"
      (substs_repr p ses.Engine.matches)
      (substs_repr p bf.Ses_baseline.Brute_force.matches)
  in
  check (rel_l [ ("c", 0); ("a", 1); ("b", 3) ]);
  check (rel_l [ ("c", 0); ("a", 1); ("x", 2); ("b", 3) ]);
  check (rel_l [ ("a", 0); ("x", 1); ("c", 2); ("b", 3) ])

let test_lang_not_groups () =
  let p =
    Ses_lang.Lang.parse_pattern_exn Helpers.schema
      "PATTERN (a) -> NOT (x) -> (b)\n\
       WHERE a.L = 'a' AND b.L = 'b' AND x.L = 'x'\n\
       WITHIN 20"
  in
  Alcotest.(check int) "two positive sets" 2 (Pattern.n_sets p);
  Alcotest.(check int) "one negation" 1 (List.length (Pattern.negations p));
  check_substs p []
    (run p (rel_l [ ("a", 0); ("x", 2); ("b", 5) ])).Engine.matches;
  (* Round trip through the unparser. *)
  let printed = Ses_lang.Lang.to_query p in
  let p' =
    match Ses_lang.Lang.parse_pattern Helpers.schema printed with
    | Ok p' -> p'
    | Error msg -> Alcotest.failf "reparse of %S failed: %s" printed msg
  in
  Alcotest.(check int) "negation survives roundtrip" 1
    (List.length (Pattern.negations p'));
  (* NOT cannot open the chain; a trailing NOT is the after-match guard. *)
  Alcotest.(check bool) "NOT first" true
    (Result.is_error
       (Ses_lang.Lang.parse_pattern Helpers.schema
          "PATTERN NOT (x) -> (a) WITHIN 5"));
  Alcotest.(check bool) "NOT last accepted" true
    (Result.is_ok
       (Ses_lang.Lang.parse_pattern Helpers.schema
          "PATTERN (a) -> NOT (x) WITHIN 5"))

(* Trailing guard: "a then b, with no x afterwards while the window is
   open". *)
let trailing =
  Pattern.make_full_exn ~schema:Helpers.schema
    ~sets:[ [ v "a" ]; [ v "b" ] ]
    ~negations:[ (1, v "x") ]
    ~where:[ label "a" "a"; label "b" "b"; label "x" "x" ]
    ~within:10

let test_trailing_guard_kills () =
  (* x after b and inside the window suppresses the match. *)
  check_substs trailing []
    (run trailing (rel_l [ ("a", 0); ("b", 2); ("x", 5) ])).Engine.matches;
  (* x outside the window arrives after the instance expired: match. *)
  check_substs trailing
    [ [ ("a", 1); ("b", 2) ] ]
    (run trailing (rel_l [ ("a", 0); ("b", 2); ("x", 15) ])).Engine.matches;
  (* No x at all: end-of-stream flush emits. *)
  check_substs trailing
    [ [ ("a", 1); ("b", 2) ] ]
    (run trailing (rel_l [ ("a", 0); ("b", 2) ])).Engine.matches

let test_trailing_guard_oracle () =
  let blocked = rel_l [ ("a", 0); ("b", 2); ("x", 5) ] in
  Alcotest.(check int) "oracle rejects" 0
    (List.length (Naive.all_satisfying_1_3 trailing blocked));
  let late = rel_l [ ("a", 0); ("b", 2); ("x", 15) ] in
  Alcotest.(check int) "oracle accepts outside window" 1
    (List.length (Naive.all_satisfying_1_3 trailing late))

let test_dot_guard () =
  let p = neg_pattern () in
  let dot = Dot.of_automaton (Automaton.of_pattern p) in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "guard node" true (contains "octagon" dot);
  Alcotest.(check bool) "guard label" true (contains "!x" dot)

let test_trace_kill () =
  let p = neg_pattern () in
  let steps, _ =
    Trace.run (Automaton.of_pattern p) (rel_l [ ("a", 0); ("x", 2); ("b", 5) ])
  in
  Alcotest.(check bool) "kill observed" true
    (List.exists
       (function Engine.Killed _ -> true | _ -> false)
       steps)

let engine_respects_negations =
  QCheck.Test.make ~count:60 ~name:"engine matches satisfy negations (random)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Ses_gen.Prng.create (Int64.of_int seed) in
      let r =
        Ses_gen.Random_workload.relation rng
          Ses_gen.Random_workload.default_relation
      in
      let p =
        Pattern.make_full_exn ~schema:Helpers.schema
          ~sets:[ [ v "a" ]; [ v "b" ] ]
          ~negations:[ (0, v "x") ]
          ~where:
            [
              label "a" "a";
              label "b" "b";
              label "x" (String.make 1 (Char.chr (Char.code 'a' + Ses_gen.Prng.int rng 3)));
            ]
          ~within:(5 + Ses_gen.Prng.int rng 20)
      in
      let outcome = run p r in
      let events = Ses_event.Relation.events r in
      List.for_all
        (fun s ->
          Substitution.satisfies_1_3 p s
          && Substitution.satisfies_negations p events s)
        outcome.Engine.raw)

let suite =
  [
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "kill between sets" `Quick test_kill_between_sets;
    Alcotest.test_case "harmless outside boundary" `Quick
      test_not_killed_outside_boundary;
    Alcotest.test_case "join condition on guard" `Quick test_join_condition_on_guard;
    Alcotest.test_case "binding beats killing" `Quick test_bind_takes_precedence;
    Alcotest.test_case "second chance after kill" `Quick test_second_chance_after_kill;
    Alcotest.test_case "filter keeps forbidden events" `Quick
      test_filter_keeps_forbidden_events;
    Alcotest.test_case "naive oracle agreement" `Quick test_naive_agreement;
    Alcotest.test_case "brute force agreement" `Quick test_brute_force_agreement;
    Alcotest.test_case "language NOT groups" `Quick test_lang_not_groups;
    Alcotest.test_case "trailing guard" `Quick test_trailing_guard_kills;
    Alcotest.test_case "trailing guard oracle" `Quick test_trailing_guard_oracle;
    Alcotest.test_case "dot renders guards" `Quick test_dot_guard;
    Alcotest.test_case "trace records kills" `Quick test_trace_kill;
    QCheck_alcotest.to_alcotest engine_respects_negations;
  ]
