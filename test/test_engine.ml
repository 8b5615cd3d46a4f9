open Ses_event
open Ses_pattern
open Ses_core
open Helpers

(* Simple two-variable sequence <{x}, {y}>. *)
let seq_xy ~within =
  pattern ~within [ [ v "x" ]; [ v "y" ] ] ~where:[ label "x" "x"; label "y" "y" ]

let test_simple_sequence () =
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("x", 0); ("y", 3) ]) in
  check_substs p [ [ ("x", 1); ("y", 2) ] ] outcome.Engine.matches

let test_no_match () =
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("y", 0); ("x", 3) ]) in
  check_substs p [] outcome.Engine.matches

let test_empty_relation () =
  let p = seq_xy ~within:10 in
  let outcome = run p (Ses_event.Relation.of_rows_exn schema []) in
  check_substs p [] outcome.Engine.matches;
  Alcotest.(check int) "no events" 0 outcome.Engine.metrics.Metrics.events_seen

let test_window_expiry () =
  let p = seq_xy ~within:5 in
  (* y arrives 6 units after x: outside τ. *)
  let outcome = run p (rel_l [ ("x", 0); ("y", 6) ]) in
  check_substs p [] outcome.Engine.matches;
  (* A second x revives the search. *)
  let outcome2 = run p (rel_l [ ("x", 0); ("x", 4); ("y", 6) ]) in
  check_substs p [ [ ("x", 2); ("y", 3) ] ] outcome2.Engine.matches

let test_window_boundary_inclusive () =
  (* span exactly τ is allowed (condition 3 is ≤ τ). *)
  let p = seq_xy ~within:5 in
  let outcome = run p (rel_l [ ("x", 0); ("y", 5) ]) in
  check_substs p [ [ ("x", 1); ("y", 2) ] ] outcome.Engine.matches

let test_skip_till_next_match () =
  (* The first eligible y is bound; the later one is ignored. *)
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("x", 0); ("y", 2); ("y", 4) ]) in
  check_substs p [ [ ("x", 1); ("y", 2) ] ] outcome.Engine.matches

let test_emission_via_expiry () =
  (* A match completes, then the window closes long before the stream
     ends: the substitution must be emitted on expiry, not only at the
     final flush. *)
  let p = seq_xy ~within:5 in
  let st = Engine.create (Automaton.of_pattern p) in
  let mk = List.map (fun (l, ts) -> (l, ts)) in
  ignore mk;
  let events = rel_l [ ("x", 0); ("y", 2); ("z", 100); ("z", 200) ] in
  let collected = ref [] in
  Ses_event.Relation.iter
    (fun e -> collected := !collected @ Engine.feed st e)
    events;
  Alcotest.(check int) "emitted before close" 1 (List.length !collected);
  Alcotest.(check int) "nothing at close" 0 (List.length (Engine.close st))

let test_group_greedy_maximal () =
  let p =
    pattern ~within:20
      [ [ vplus "g" ]; [ v "z" ] ]
      ~where:[ label "g" "g"; label "z" "z" ]
  in
  let outcome = run p (rel_l [ ("g", 0); ("g", 1); ("g", 2); ("z", 3) ]) in
  (* MAXIMAL mode: only the largest substitution survives. *)
  check_substs p
    [ [ ("g+", 1); ("g+", 2); ("g+", 3); ("z", 4) ] ]
    outcome.Engine.matches

let test_permutation_within_set () =
  let p =
    pattern ~within:20
      [ [ v "a"; v "b" ]; [ v "z" ] ]
      ~where:[ label "a" "a"; label "b" "b"; label "z" "z" ]
  in
  (* Both orders of a and b match. *)
  let o1 = run p (rel_l [ ("a", 0); ("b", 1); ("z", 2) ]) in
  check_substs p [ [ ("a", 1); ("b", 2); ("z", 3) ] ] o1.Engine.matches;
  let o2 = run p (rel_l [ ("b", 0); ("a", 1); ("z", 2) ]) in
  check_substs p [ [ ("a", 2); ("b", 1); ("z", 3) ] ] o2.Engine.matches

let test_order_across_sets_strict () =
  (* An event of set 2 at the same timestamp as set 1's last event cannot
     match (strict <). Same-relation ties are ordered by sequence, but the
     concatenation's time constraint compares timestamps. *)
  let p = seq_xy ~within:10 in
  let outcome = run p (rel_l [ ("x", 5); ("y", 5) ]) in
  check_substs p [] outcome.Engine.matches

let test_single_set_pattern () =
  let p = pattern ~within:10 [ [ v "a"; v "b" ] ] ~where:[ label "a" "a"; label "b" "b" ] in
  let outcome = run p (rel_l [ ("b", 0); ("a", 1) ]) in
  check_substs p [ [ ("a", 2); ("b", 1) ] ] outcome.Engine.matches

let test_tau_zero_simultaneous () =
  (* τ = 0 requires all events at the same timestamp; within one set that
     is allowed. *)
  let p = pattern ~within:0 [ [ v "a"; v "b" ] ] ~where:[ label "a" "a"; label "b" "b" ] in
  let outcome = run p (rel [ (1, "a", 0, 7); (1, "b", 0, 7) ]) in
  check_substs p [ [ ("a", 1); ("b", 2) ] ] outcome.Engine.matches;
  let apart = run p (rel [ (1, "a", 0, 7); (1, "b", 0, 8) ]) in
  check_substs p [] apart.Engine.matches

let test_nondeterministic_branching () =
  (* Both variables accept label 'm'; one m event can start either
     branch. *)
  let p =
    pattern ~within:10
      [ [ v "a"; v "b" ] ]
      ~where:[ label "a" "m"; label "b" "m" ]
  in
  let outcome = run p (rel_l [ ("m", 0); ("m", 1) ]) in
  (* Two symmetric substitutions over the same events. *)
  check_substs p
    [
      [ ("a", 1); ("b", 2) ];
      [ ("a", 2); ("b", 1) ];
    ]
    outcome.Engine.matches;
  Alcotest.(check bool) "branching occurred" true
    (outcome.Engine.metrics.Metrics.instances_created > 3)

let test_condition_on_timestamp () =
  (* Explicit T conditions in Θ are honoured. *)
  let p =
    pattern ~within:100
      [ [ v "x" ]; [ v "y" ] ]
      ~where:
        [
          label "x" "x";
          label "y" "y";
          Ses_pattern.Pattern.Spec.const "y" "T" Ses_event.Predicate.Ge
            (Ses_event.Value.Int 50);
        ]
  in
  let outcome = run p (rel_l [ ("x", 0); ("y", 10); ("y", 60) ]) in
  (* y at t=10 fails y.T >= 50; the instance skips it and binds the later
     y. *)
  check_substs p [ [ ("x", 1); ("y", 3) ] ] outcome.Engine.matches

let test_value_join_condition () =
  let p =
    pattern ~within:100
      [ [ v "x" ]; [ v "y" ] ]
      ~where:
        [
          label "x" "x";
          label "y" "y";
          Ses_pattern.Pattern.Spec.fields "x" "V" Ses_event.Predicate.Lt "y" "V";
        ]
  in
  let outcome =
    run p (rel [ (1, "x", 5, 0); (1, "y", 3, 1); (1, "y", 9, 2) ])
  in
  check_substs p [ [ ("x", 1); ("y", 3) ] ] outcome.Engine.matches

let test_out_of_order_rejected () =
  let p = seq_xy ~within:10 in
  let st = Engine.create (Automaton.of_pattern p) in
  let e1 = Ses_event.Event.make ~seq:0 ~ts:5 [| Ses_event.Value.Int 1; Ses_event.Value.Str "x"; Ses_event.Value.Int 0 |] in
  let e2 = Ses_event.Event.make ~seq:1 ~ts:3 [| Ses_event.Value.Int 1; Ses_event.Value.Str "y"; Ses_event.Value.Int 0 |] in
  ignore (Engine.feed st e1);
  Alcotest.check_raises "rejects regression"
    (Invalid_argument "Engine.feed: events out of chronological order")
    (fun () -> ignore (Engine.feed st e2))

let test_streaming_equals_batch () =
  let p = query_q1 in
  let automaton = Automaton.of_pattern p in
  let batch = Engine.run_relation automaton figure_1 in
  let st = Engine.create automaton in
  Ses_event.Relation.iter (fun e -> ignore (Engine.feed st e)) figure_1;
  ignore (Engine.close st);
  Alcotest.(check int) "same raw emissions"
    (List.length batch.Engine.raw)
    (List.length (Engine.emitted st));
  Alcotest.(check bool) "same content" true
    (List.for_all2 Substitution.equal batch.Engine.raw (Engine.emitted st))

let test_population_tracking () =
  let p = seq_xy ~within:10 in
  let st = Engine.create (Automaton.of_pattern p) in
  Alcotest.(check int) "initially empty" 0 (Engine.population st);
  Ses_event.Relation.iter (fun e -> ignore (Engine.feed st e)) (rel_l [ ("x", 0) ]);
  Alcotest.(check int) "one live instance" 1 (Engine.population st);
  ignore (Engine.close st);
  Alcotest.(check int) "closed" 0 (Engine.population st)

let test_finalize_toggle () =
  let p = query_q1 in
  let options = { Engine.default_options with Engine.finalize = false } in
  let outcome = run ~options p figure_1 in
  Alcotest.(check int) "raw passthrough"
    (List.length outcome.Engine.raw)
    (List.length outcome.Engine.matches)

let test_precheck_equivalence () =
  (* The constant pre-check is a pure optimization: identical raw and
     finalized output on the running example. *)
  let base = { Engine.default_options with Engine.precheck_constants = false } in
  let opt = { Engine.default_options with Engine.precheck_constants = true } in
  let a = run ~options:base query_q1 figure_1 in
  let b = run ~options:opt query_q1 figure_1 in
  Alcotest.(check (list (list (pair string int))))
    "same raw"
    (substs_repr query_q1 a.Engine.raw)
    (substs_repr query_q1 b.Engine.raw);
  Alcotest.(check (list (list (pair string int))))
    "same matches"
    (substs_repr query_q1 a.Engine.matches)
    (substs_repr query_q1 b.Engine.matches);
  Alcotest.(check int) "same transitions fired"
    a.Engine.metrics.Metrics.transitions_fired
    b.Engine.metrics.Metrics.transitions_fired

let test_store_equivalence () =
  (* The flat reference pool and the indexed store are observationally
     identical on the running example: raw, matches, and every counter. *)
  let flat =
    run ~options:{ Engine.default_options with Engine.store = Engine.Flat }
      query_q1 figure_1
  in
  let idx =
    run ~options:{ Engine.default_options with Engine.store = Engine.Indexed }
      query_q1 figure_1
  in
  let sorted o =
    List.sort
      (List.compare Helpers.compare_name_seq)
      (substs_repr query_q1 o)
  in
  Alcotest.(check (list (list (pair string int))))
    "same raw" (sorted flat.Engine.raw) (sorted idx.Engine.raw);
  Alcotest.(check (list (list (pair string int))))
    "same matches" (sorted flat.Engine.matches) (sorted idx.Engine.matches);
  Alcotest.(check bool) "same metrics" true
    (flat.Engine.metrics = idx.Engine.metrics)

let test_population_by_state_ordering () =
  (* Descending count; ties broken by state, so the histogram is
     reproducible run to run. *)
  let p = seq_xy ~within:100 in
  let st = Engine.create (Automaton.of_pattern p) in
  Ses_event.Relation.iter
    (fun e -> ignore (Engine.feed st e))
    (rel_l [ ("x", 0); ("x", 1); ("x", 2) ]);
  let h = Engine.population_by_state st in
  let counts = List.map snd h in
  Alcotest.(check (list int)) "descending counts"
    (List.sort (fun a b -> Int.compare b a) counts)
    counts;
  let rec ties_ordered = function
    | (qa, a) :: ((qb, b) :: _ as rest) ->
        (a <> b || Ses_core.Varset.compare qa qb < 0) && ties_ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "ties in state order" true (ties_ordered h);
  Alcotest.(check int) "sums to population" (Engine.population st)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 h)

let test_metrics_consistency () =
  let outcome = run query_q1 figure_1 in
  let m = outcome.Engine.metrics in
  Alcotest.(check int) "events" 14 m.Metrics.events_seen;
  Alcotest.(check int) "none filtered" 0 m.Metrics.events_filtered;
  Alcotest.(check bool) "max tracked" true (m.Metrics.max_simultaneous_instances > 0);
  Alcotest.(check int) "raw = emitted counter" (List.length outcome.Engine.raw)
    m.Metrics.matches_emitted

(* Dead-instance pruning. [run_pruning p r] runs [p] over [r] with
   pruning on and off and checks that the two give the same raw
   multiset and the same matches; it returns the pruned run. *)
let run_pruning p r =
  let with_prune prune_dead =
    run ~options:{ Engine.default_options with Engine.prune_dead } p r
  in
  let on = with_prune true and off = with_prune false in
  Alcotest.(check (list (list (pair string int))))
    "same raw" (substs_repr p off.Engine.raw) (substs_repr p on.Engine.raw);
  Alcotest.(check (list (list (pair string int))))
    "same matches"
    (substs_repr p off.Engine.matches)
    (substs_repr p on.Engine.matches);
  Alcotest.(check int) "nothing pruned when off" 0
    off.Engine.metrics.Metrics.instances_pruned;
  on

let test_prune_q1 () =
  (* Q1's p+ loop in {p} carries no join (no partner is bound yet), so it
     binds P events of any patient; once p holds two patient IDs the
     unbound c can never satisfy c.ID = p.ID. The same holds for {p, d}
     when p and d are different patients: Q1 has no p.ID = d.ID, but c
     must equal both. *)
  let r =
    Ses_gen.Chemo.generate
      { Ses_gen.Chemo.default with Ses_gen.Chemo.patients = 4; horizon_days = 42 }
  in
  let on = run_pruning query_q1 r in
  Alcotest.(check int) "pruned successors" 39
    on.Engine.metrics.Metrics.instances_pruned;
  Alcotest.(check bool) "some matches" true (on.Engine.matches <> [])

let test_prune_mixed_numeric_types () =
  (* Equality does not chain across Int and Float: Int 2^53 and
     Int 2^53 + 1 both equal Float 2^53. So u.F = x.I and u.F = y.I hold
     together although x.I <> y.I, and the successor binding the second
     of x, y must survive. *)
  let schema =
    Ses_event.Schema.make_exn
      Ses_event.Value.[ ("I", Tint); ("F", Tfloat); ("L", Tstr) ]
  in
  let big = 1 lsl 53 in
  let r =
    Ses_event.Relation.of_rows_exn schema
      Ses_event.Value.
        [
          ([| Int big; Float 0.; Str "x" |], 0);
          ([| Int (big + 1); Float 0.; Str "y" |], 1);
          ([| Int 0; Float (float_of_int big); Str "u" |], 2);
        ]
  in
  let label name l =
    Ses_pattern.Pattern.Spec.const name "L" Ses_event.Predicate.Eq
      (Ses_event.Value.Str l)
  in
  let p =
    Ses_pattern.Pattern.make_exn ~schema
      ~sets:[ [ v "x"; v "y" ]; [ v "u" ] ]
      ~where:
        [
          label "x" "x";
          label "y" "y";
          label "u" "u";
          Ses_pattern.Pattern.Spec.fields "u" "F" Ses_event.Predicate.Eq "x" "I";
          Ses_pattern.Pattern.Spec.fields "u" "F" Ses_event.Predicate.Eq "y" "I";
        ]
      ~within:10
  in
  let on = run_pruning p r in
  check_substs p [ [ ("u", 3); ("x", 1); ("y", 2) ] ] on.Engine.matches;
  Alcotest.(check int) "nothing pruned" 0
    on.Engine.metrics.Metrics.instances_pruned

let test_prune_ignores_negation () =
  (* A negated variable is never required: the only join, h.ID = x.ID,
     guards NOT (x), so h+ may bind two IDs — the guard can then no
     longer fire, which is not death. *)
  let p =
    Ses_pattern.Pattern.make_full_exn ~schema
      ~sets:[ [ vplus "h" ]; [ v "i" ] ]
      ~negations:[ (0, v "x") ]
      ~where:
        [
          label "h" "h";
          label "i" "i";
          label "x" "x";
          Ses_pattern.Pattern.Spec.fields "h" "ID" Ses_event.Predicate.Eq "x"
            "ID";
        ]
      ~within:10
  in
  let on =
    run_pruning p (rel [ (1, "h", 0, 0); (2, "h", 0, 1); (3, "x", 0, 2); (1, "i", 0, 3) ])
  in
  check_substs p [ [ ("h+", 1); ("h+", 2); ("i", 4) ] ] on.Engine.matches;
  Alcotest.(check int) "nothing pruned" 0
    on.Engine.metrics.Metrics.instances_pruned

(* Key-indexed sub-buckets. A state's instances are grouped by the value
   their join class holds, and an event walks one group only when every
   transition and guard that could fire is pinned to that value. *)

let flat_options = { Engine.default_options with Engine.store = Engine.Flat }

(* Keyed run, flat run and the Definition 2 oracle agree. *)
let check_keyed_agrees p r =
  let keyed = run p r and flat = run ~options:flat_options p r in
  Alcotest.(check (list (list (pair string int))))
    "keyed raw = flat raw"
    (substs_repr p flat.Engine.raw)
    (substs_repr p keyed.Engine.raw);
  Alcotest.(check bool) "keyed metrics = flat metrics" true
    (flat.Engine.metrics = keyed.Engine.metrics);
  Alcotest.(check (list (list (pair string int))))
    "keyed matches = oracle matches"
    (substs_repr p (Naive.matches p r))
    (substs_repr p keyed.Engine.matches);
  keyed

(* The poisoned-branch phenomenon: with only the star joins a-b and a-c,
   an instance that bound b first has an unpinned c transition; a
   foreign-entity z event fires it and kills the instance's chance to
   bind its own entity's later z event. The engine must walk that
   state whole, or it would find a match the paper's algorithm does
   not. *)
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
  let star_run = run star r in
  check_substs star [] star_run.Engine.matches;
  Alcotest.(check bool) "star metrics = flat metrics" true
    ((run ~options:flat_options star r).Engine.metrics
    = star_run.Engine.metrics);
  (* Completing the join graph (adding b-c) pins the c transition, so
     the foreign z is skipped and the match recovered. *)
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
    (check_keyed_agrees complete r).Engine.matches

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
  let keyed = check_keyed_agrees neg_pattern neg_relation in
  check_substs neg_pattern
    [
      [ ("a", 1); ("b", 6) ];
      [ ("a", 3); ("b", 8) ];
      [ ("a", 9); ("b", 11) ];
    ]
    keyed.Engine.matches;
  Alcotest.(check bool) "kill exercised" true
    (keyed.Engine.metrics.Metrics.instances_killed >= 1);
  Alcotest.(check bool) "expiry exercised" true
    (keyed.Engine.metrics.Metrics.instances_expired >= 1)

let float_schema =
  Schema.make_exn Value.[ ("I", Tint); ("F", Tfloat); ("L", Tstr) ]

let float_rel rows =
  Relation.of_rows_exn float_schema
    (List.map
       (fun (i, f, l, ts) -> ([| Value.Int i; Value.Float f; Value.Str l |], ts))
       rows)

let test_float_keys () =
  (* -0.0 = 0.0 and NaN = NaN under [Predicate.eval Eq]; the sub-bucket
     keyed by one must be found by a probe with the other. *)
  let p =
    Pattern.make_exn ~schema:float_schema
      ~sets:[ [ v "a" ]; [ v "b" ] ]
      ~where:
        [
          label "a" "a";
          label "b" "b";
          Pattern.Spec.fields "a" "F" Predicate.Eq "b" "F";
        ]
      ~within:10
  in
  let r =
    float_rel
      [
        (0, -0.0, "a", 0);
        (0, Float.nan, "a", 1);
        (0, 1.0, "a", 2);
        (0, 0.0, "b", 3);
        (0, Float.nan, "b", 4);
      ]
  in
  check_substs p
    [ [ ("a", 1); ("b", 4) ]; [ ("a", 2); ("b", 5) ] ]
    (check_keyed_agrees p r).Engine.matches

let test_int_float_join_unkeyed () =
  (* Int 1 = Float 1.0 under [Predicate.eval Eq], but the two hash
     apart: the mixed-type join a.I = b.F must not key {a}, while the
     same-type b.I = c.I keys {a, b}. *)
  let p =
    Pattern.make_exn ~schema:float_schema
      ~sets:[ [ v "a" ]; [ v "b" ]; [ v "c" ] ]
      ~where:
        [
          label "a" "a";
          label "b" "b";
          label "c" "c";
          Pattern.Spec.fields "a" "I" Predicate.Eq "b" "F";
          Pattern.Spec.fields "b" "I" Predicate.Eq "c" "I";
        ]
      ~within:20
  in
  let rows l ts0 = List.init 8 (fun k -> (k + 1, float_of_int (k + 1), l, ts0 + k)) in
  let r = float_rel (rows "a" 0 @ rows "b" 8 @ rows "c" 16) in
  check_substs p
    (List.init 8 (fun k -> [ ("a", k + 1); ("b", k + 9); ("c", k + 17) ]))
    (check_keyed_agrees p r).Engine.matches

let test_idle_keys_drop () =
  (* 100 keys, each seen once, one of them completed by a b of its key
     (its sub-bucket empties by a walk), then the clock passes τ — by one
     more event, or by [advance] alone: every window has closed, and no
     emptied sub-bucket may stay behind. *)
  let p =
    pattern ~within:10
      [ [ v "a" ]; [ v "b" ] ]
      ~where:
        [
          label "a" "a";
          label "b" "b";
          Pattern.Spec.fields "a" "ID" Predicate.Eq "b" "ID";
        ]
  in
  let idle = List.init 100 (fun k -> (k + 1, "a", 0, k / 10)) in
  let late = [ (1, "b", 0, 9); (0, "z", 0, 30) ] in
  let events = Array.of_seq (Relation.to_seq (rel (idle @ late))) in
  let per_event st es = List.concat_map (Engine.feed st) (Array.to_list es) in
  let check_feed name feed_all pass =
    let st = Engine.create (Automaton.of_pattern p) in
    ignore (feed_all st (Array.sub events 0 101));
    Alcotest.(check int) (name ^ ": one sub-bucket per waiting key") 99
      (Engine.sub_buckets st);
    Alcotest.(check int)
      (name ^ ": the completed key emits")
      1
      (List.length (pass st));
    Alcotest.(check int) (name ^ ": population") 0 (Engine.population st);
    Alcotest.(check int) (name ^ ": sub-buckets") 0 (Engine.sub_buckets st);
    Alcotest.(check int) (name ^ ": expired") 100
      (Engine.metrics st).Metrics.instances_expired
  in
  check_feed "per event" per_event (fun st -> per_event st [| events.(101) |]);
  check_feed "batched" Engine.feed_batch (fun st ->
      Engine.feed_batch st [| events.(101) |]);
  check_feed "advance" Engine.feed_batch (fun st -> Engine.advance st 30)

(* A quiet clock costs nothing: moving the clock, or feeding an event
   that fires nothing, allocates no word beyond the result list (empty
   here). [Gc.minor_words] boxes its own result; [words] subtracts what
   a call of nothing measures. *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let words f = minor_words_of f -. minor_words_of ignore

let test_quiet_clock () =
  (* State {a} is keyed by ID, and b's value condition reads the
     buffer. *)
  let p =
    pattern ~within:10
      [ [ v "a" ]; [ v "b" ] ]
      ~where:
        [
          label "a" "a";
          label "b" "b";
          Pattern.Spec.fields "a" "ID" Predicate.Eq "b" "ID";
          Pattern.Spec.fields "b" "V" Predicate.Gt "a" "V";
        ]
  in
  let events =
    Array.of_seq
      (Relation.to_seq
         (rel
            [
              (1, "a", 5, 0);
              (2, "a", 5, 1);
              (3, "a", 5, 2);
              (1, "z", 0, 6);
              (1, "b", 1, 7);
              (4, "b", 9, 8);
            ]))
  in
  let check_quiet name options =
    let st = Engine.create ~options (Automaton.of_pattern p) in
    ignore (Engine.feed_batch st (Array.sub events 0 3));
    let quiet what f =
      Alcotest.(check (float 0.)) (name ^ ": " ^ what) 0. (words f)
    in
    let out = ref [ [] ] in
    quiet "advance expiring nothing" (fun () -> out := Engine.advance st 5);
    let batch i =
      let chunk = [| events.(i) |] in
      fun () -> out := Engine.feed_batch st chunk
    in
    quiet "an event no transition takes" (batch 3);
    quiet "a walk that fires nothing" (batch 4);
    quiet "a key with no instance" (batch 5);
    Alcotest.(check int) (name ^ ": nothing emitted") 0 (List.length !out);
    Alcotest.(check int) (name ^ ": population") 3 (Engine.population st)
  in
  check_quiet "default" Engine.default_options;
  check_quiet "strong filter"
    { Engine.default_options with Engine.filter = Event_filter.Strong }

let suite =
  [
    Alcotest.test_case "simple sequence" `Quick test_simple_sequence;
    Alcotest.test_case "no match" `Quick test_no_match;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    Alcotest.test_case "window expiry" `Quick test_window_expiry;
    Alcotest.test_case "window boundary inclusive" `Quick test_window_boundary_inclusive;
    Alcotest.test_case "skip-till-next-match" `Quick test_skip_till_next_match;
    Alcotest.test_case "emission via expiry" `Quick test_emission_via_expiry;
    Alcotest.test_case "greedy maximal group" `Quick test_group_greedy_maximal;
    Alcotest.test_case "permutations within a set" `Quick test_permutation_within_set;
    Alcotest.test_case "strict order across sets" `Quick test_order_across_sets_strict;
    Alcotest.test_case "single-set pattern" `Quick test_single_set_pattern;
    Alcotest.test_case "tau = 0" `Quick test_tau_zero_simultaneous;
    Alcotest.test_case "nondeterministic branching" `Quick test_nondeterministic_branching;
    Alcotest.test_case "condition on T" `Quick test_condition_on_timestamp;
    Alcotest.test_case "value join" `Quick test_value_join_condition;
    Alcotest.test_case "out-of-order input rejected" `Quick test_out_of_order_rejected;
    Alcotest.test_case "streaming = batch" `Quick test_streaming_equals_batch;
    Alcotest.test_case "population tracking" `Quick test_population_tracking;
    Alcotest.test_case "finalize toggle" `Quick test_finalize_toggle;
    Alcotest.test_case "constant pre-check equivalence" `Quick
      test_precheck_equivalence;
    Alcotest.test_case "flat = indexed store" `Quick test_store_equivalence;
    Alcotest.test_case "population histogram ordering" `Quick
      test_population_by_state_ordering;
    Alcotest.test_case "metrics consistency" `Quick test_metrics_consistency;
    Alcotest.test_case "prune: Q1 drops dead successors" `Quick test_prune_q1;
    Alcotest.test_case "prune: no chaining across Int and Float" `Quick
      test_prune_mixed_numeric_types;
    Alcotest.test_case "prune: negated variables are never required" `Quick
      test_prune_ignores_negation;
    Alcotest.test_case "poisoned branch (skip-till-next-match)" `Quick
      test_poisoned_branch;
    Alcotest.test_case "negation + expiry, keyed" `Quick
      test_negation_and_expiry_keyed;
    Alcotest.test_case "keys: -0.0 = 0.0 and NaN = NaN" `Quick test_float_keys;
    Alcotest.test_case "keys: an int-float join does not key" `Quick
      test_int_float_join_unkeyed;
    Alcotest.test_case "keys: idle keys leave no sub-bucket" `Quick
      test_idle_keys_drop;
    Alcotest.test_case "a quiet clock allocates nothing" `Quick
      test_quiet_clock;
  ]
