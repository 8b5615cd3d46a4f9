open Ses_event
open Ses_pattern
open Ses_core
open Helpers

let key_of p = Partitioned.partition_key (Automaton.of_pattern p)

(* Q1 with singleton p and a syntactically complete ID-join graph: the one
   shape of the running example that is partitionable. *)
let q1_singleton_complete =
  Pattern.make_exn ~schema:chemo_schema
    ~sets:[ [ v "c"; v "p"; v "d" ]; [ v "b" ] ]
    ~where:
      ([ clabel "c" "C"; clabel "p" "P"; clabel "d" "D"; clabel "b" "B" ]
      @ Pattern.Spec.
          [
            fields "c" "ID" Predicate.Eq "p" "ID";
            fields "c" "ID" Predicate.Eq "d" "ID";
            fields "c" "ID" Predicate.Eq "b" "ID";
            fields "p" "ID" Predicate.Eq "d" "ID";
            fields "p" "ID" Predicate.Eq "b" "ID";
            fields "d" "ID" Predicate.Eq "b" "ID";
          ])
    ~within:264

(* The same with a p+ group variable: its loop at state {p+} carries no
   join (no partner is bound), so a foreign P event can extend the group
   — not partitionable. *)
let q1_group_complete =
  Pattern.make_exn ~schema:chemo_schema
    ~sets:[ [ v "c"; vplus "p"; v "d" ]; [ v "b" ] ]
    ~where:
      ([ clabel "c" "C"; clabel "p" "P"; clabel "d" "D"; clabel "b" "B" ]
      @ Pattern.Spec.
          [
            fields "c" "ID" Predicate.Eq "p" "ID";
            fields "c" "ID" Predicate.Eq "d" "ID";
            fields "c" "ID" Predicate.Eq "b" "ID";
            fields "p" "ID" Predicate.Eq "d" "ID";
            fields "p" "ID" Predicate.Eq "b" "ID";
            fields "d" "ID" Predicate.Eq "b" "ID";
          ])
    ~within:264

let test_partition_key_complete () =
  match key_of q1_singleton_complete with
  | Some (Schema.Field.Attr 0) -> ()
  | Some _ -> Alcotest.fail "expected the ID attribute"
  | None -> Alcotest.fail "expected a partition key"

let test_partition_key_star_insufficient () =
  (* Q1's joins form a star (c-p, c-d, d-b): connected but not complete,
     so some transition lacks a pin — see the poisoned-branch test. *)
  Alcotest.(check bool) "star-joined Q1 has no key" true
    (key_of query_q1 = None);
  Alcotest.(check bool) "singleton star Q1 has no key" true
    (key_of query_q1_singleton = None)

let test_partition_key_group_loop () =
  Alcotest.(check bool) "unpinned group loop blocks partitioning" true
    (key_of q1_group_complete = None)

let test_partition_key_absent () =
  let p = pattern ~within:10 [ [ v "a"; v "b" ] ] ~where:[ label "a" "x" ] in
  Alcotest.(check bool) "no joins, no key" true (key_of p = None)

let test_partition_key_inequality_ignored () =
  let p =
    pattern ~within:10
      [ [ v "a"; v "b" ] ]
      ~where:[ Pattern.Spec.fields "a" "ID" Predicate.Lt "b" "ID" ]
  in
  Alcotest.(check bool) "inequality does not partition" true (key_of p = None)

let test_partition_key_timestamp_ignored () =
  let p =
    pattern ~within:10
      [ [ v "a"; v "b" ] ]
      ~where:[ Pattern.Spec.fields "a" "T" Predicate.Eq "b" "T" ]
  in
  Alcotest.(check bool) "timestamp never partitions" true (key_of p = None)

let test_mixed_field_joins () =
  (* a.ID = b.V relates different fields: not a partitioning join. *)
  let p =
    pattern ~within:10
      [ [ v "a"; v "b" ] ]
      ~where:[ Pattern.Spec.fields "a" "ID" Predicate.Eq "b" "V" ]
  in
  Alcotest.(check bool) "cross-field join ignored" true (key_of p = None)

let test_two_joined_variables () =
  (* The minimal positive case: two variables, one join. *)
  let p =
    pattern ~within:10
      [ [ v "a" ]; [ v "b" ] ]
      ~where:
        [
          label "a" "x";
          label "b" "y";
          Pattern.Spec.fields "a" "ID" Predicate.Eq "b" "ID";
        ]
  in
  Alcotest.(check bool) "key found" true (key_of p <> None)

let same_outcome (a : Engine.outcome) (b : Engine.outcome) pat =
  Alcotest.(check (list (list (pair string int))))
    "matches agree" (substs_repr pat a.Engine.matches)
    (substs_repr pat b.Engine.matches)

let test_run_equals_direct_on_figure1 () =
  let automaton = Automaton.of_pattern q1_singleton_complete in
  let direct = Engine.run_relation automaton figure_1 in
  let part = Partitioned.run_relation automaton figure_1 in
  same_outcome direct part q1_singleton_complete;
  (* Without the group variable the late-start patient-2 candidate
     {d/e7, c/e8, p/e10, b/e13} binds a different p event than
     {p/e6, d/e7, c/e8, b/e13}; the two are incomparable, so both survive
     — three matches, not the paper's two (which rely on p+ absorbing
     both P administrations). *)
  Alcotest.(check int) "three matches" 3 (List.length part.Engine.matches);
  Alcotest.(check bool) "peak population tracked" true
    (part.Engine.metrics.Metrics.max_simultaneous_instances > 0);
  Alcotest.(check int) "same events seen"
    direct.Engine.metrics.Metrics.events_seen
    part.Engine.metrics.Metrics.events_seen

let test_fallback_without_key () =
  let p =
    pattern ~within:10 [ [ v "a" ]; [ v "b" ] ]
      ~where:[ label "a" "x"; label "b" "y" ]
  in
  let automaton = Automaton.of_pattern p in
  let r = rel_l [ ("x", 0); ("y", 1) ] in
  let part = Partitioned.run_relation automaton r in
  let direct = Engine.run_relation automaton r in
  same_outcome direct part p

(* The poisoned-branch phenomenon behind the completeness requirement:
   with only the star joins a-b and a-c, an instance that bound b first
   has an unpinned c transition; a foreign-entity z event fires it and
   kills the instance's chance to bind its own entity's later z event. *)
let test_poisoned_branch () =
  let star =
    pattern ~within:100
      [ [ v "a"; v "b"; v "c" ] ]
      ~where:
        ([ label "a" "x"; label "b" "y"; label "c" "z" ]
        @ [
            Pattern.Spec.fields "a" "ID" Predicate.Eq "b" "ID";
            Pattern.Spec.fields "a" "ID" Predicate.Eq "c" "ID";
          ])
  in
  let r =
    rel [ (1, "y", 0, 0); (2, "z", 0, 1); (1, "z", 0, 2); (1, "x", 0, 3) ]
  in
  (* Direct run with the star pattern: the entity-1 match is lost. *)
  check_substs star [] (run star r).Engine.matches;
  (* Completing the join graph (adding b-c) prevents the foreign firing
     and recovers the match. *)
  let complete =
    pattern ~within:100
      [ [ v "a"; v "b"; v "c" ] ]
      ~where:
        ([ label "a" "x"; label "b" "y"; label "c" "z" ]
        @ [
            Pattern.Spec.fields "a" "ID" Predicate.Eq "b" "ID";
            Pattern.Spec.fields "a" "ID" Predicate.Eq "c" "ID";
            Pattern.Spec.fields "b" "ID" Predicate.Eq "c" "ID";
          ])
  in
  check_substs complete
    [ [ ("a", 4); ("b", 1); ("c", 3) ] ]
    (run complete r).Engine.matches;
  (* The partitioned runner applies to the complete pattern and agrees. *)
  let part = Partitioned.run_relation (Automaton.of_pattern complete) r in
  check_substs complete [ [ ("a", 4); ("b", 1); ("c", 3) ] ] part.Engine.matches

let canon substs = List.map Substitution.canonical substs

let canon_sorted substs =
  List.sort Substitution.compare_canonical (canon substs)

(* The counters compared by equality. The other two follow lazy expiry:
   the plain engine collects τ-expired instances whenever any event
   advances time, while a per-key pool only scans when one of its own
   key's events arrives. Instances that linger unscanned are enforced as
   expired (they never fire) but stay in the population and, if still
   there at close, are not counted — so the keyed peak may read higher
   and [instances_expired] lower than the engine's. *)
let invariant (m : Metrics.snapshot) =
  {
    m with
    Metrics.max_simultaneous_instances = 0;
    Metrics.instances_expired = 0;
  }

let same_run (direct : Engine.outcome) (part : Engine.outcome) =
  canon direct.Engine.matches = canon part.Engine.matches
  && canon_sorted direct.Engine.raw = canon_sorted part.Engine.raw
  && invariant direct.Engine.metrics = invariant part.Engine.metrics
  && part.Engine.metrics.Metrics.instances_expired
     <= direct.Engine.metrics.Metrics.instances_expired

(* Finalize sorts by (min timestamp, canonical form), so the match lists
   agree element by element, not just as sets; raw emission order
   differs between the layouts. *)
let partitioned_equals_direct =
  QCheck.Test.make ~count:75 ~name:"partitioned = direct when applicable"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Ses_gen.Prng.create (Int64.of_int seed) in
      let spec =
        {
          Ses_gen.Random_workload.default_pattern with
          Ses_gen.Random_workload.p_id_join = 1.0;
          allow_groups = false;
        }
      in
      let pat = Ses_gen.Random_workload.pattern rng spec in
      let r =
        Ses_gen.Random_workload.relation rng
          Ses_gen.Random_workload.default_relation
      in
      let automaton = Automaton.of_pattern pat in
      same_run
        (Engine.run_relation automaton r)
        (Partitioned.run_relation automaton r))

(* An ID-pinned negation guard and a τ-expiring instance: id 2 is killed
   by its own x event, id 1's x arrives only after its match completed,
   and id 4's first a expires before its b shows up (30 - 3 > τ = 20)
   while its second a still matches. *)
let neg_pattern =
  Pattern.make_full_exn ~schema
    ~sets:[ [ v "a" ]; [ v "b" ] ]
    ~negations:[ (0, v "x") ]
    ~where:
      ([ label "a" "a"; label "b" "b"; label "x" "x" ]
      @ Pattern.Spec.
          [
            fields "a" "ID" Predicate.Eq "b" "ID";
            fields "x" "ID" Predicate.Eq "a" "ID";
          ])
    ~within:20

let neg_relation =
  rel
    [
      (1, "a", 0, 0);
      (2, "a", 0, 1);
      (3, "a", 0, 2);
      (4, "a", 0, 3);
      (2, "x", 0, 5);
      (1, "b", 0, 8);
      (2, "b", 0, 9);
      (3, "b", 0, 10);
      (4, "a", 0, 12);
      (1, "x", 0, 15);
      (4, "b", 0, 30);
    ]

let test_negation_and_expiry_keyed () =
  let automaton = Automaton.of_pattern neg_pattern in
  Alcotest.(check bool) "negation pattern is partitionable" true
    (Partitioned.partition_key automaton <> None);
  let direct = Engine.run_relation automaton neg_relation in
  check_substs neg_pattern
    [
      [ ("a", 1); ("b", 6) ];
      [ ("a", 3); ("b", 8) ];
      [ ("a", 9); ("b", 11) ];
    ]
    direct.Engine.matches;
  Alcotest.(check bool) "kill exercised" true
    (direct.Engine.metrics.Metrics.instances_killed >= 1);
  Alcotest.(check bool) "expiry exercised" true
    (direct.Engine.metrics.Metrics.instances_expired >= 1);
  (* The incremental interface, to also pin down that the keyed layout
     really engaged: one pool per ID. *)
  let st = Partitioned.create automaton in
  Seq.iter
    (fun e -> ignore (Partitioned.feed st e))
    (Relation.to_seq neg_relation);
  ignore (Partitioned.close st);
  Alcotest.(check int) "one pool per key" 4 (Partitioned.n_pools st);
  let raw = Partitioned.emitted st in
  Alcotest.(check bool) "keyed run agrees with the engine" true
    (same_run direct
       {
         Engine.matches = Substitution.finalize neg_pattern raw;
         raw;
         metrics = Partitioned.metrics st;
       })

let suite =
  [
    Alcotest.test_case "key of complete-join singleton Q1" `Quick
      test_partition_key_complete;
    Alcotest.test_case "star joins insufficient" `Quick
      test_partition_key_star_insufficient;
    Alcotest.test_case "group loops block partitioning" `Quick
      test_partition_key_group_loop;
    Alcotest.test_case "no key without joins" `Quick test_partition_key_absent;
    Alcotest.test_case "inequalities ignored" `Quick
      test_partition_key_inequality_ignored;
    Alcotest.test_case "timestamp ignored" `Quick test_partition_key_timestamp_ignored;
    Alcotest.test_case "cross-field joins ignored" `Quick test_mixed_field_joins;
    Alcotest.test_case "two joined variables" `Quick test_two_joined_variables;
    Alcotest.test_case "partitioned = direct on Figure 1" `Quick
      test_run_equals_direct_on_figure1;
    Alcotest.test_case "fallback without key" `Quick test_fallback_without_key;
    Alcotest.test_case "poisoned branch (skip-till-next-match)" `Quick
      test_poisoned_branch;
    Alcotest.test_case "negation + expiry, keyed" `Quick
      test_negation_and_expiry_keyed;
    QCheck_alcotest.to_alcotest partitioned_equals_direct;
  ]
