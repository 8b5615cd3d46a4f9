open Ses_event
open Ses_core
open Helpers

(* Pattern <{a, g+}, {z}> over the test schema, with label conditions. *)
let p =
  pattern ~within:10
    [ [ v "a"; vplus "g" ]; [ v "z" ] ]
    ~where:[ label "a" "a"; label "g" "g"; label "z" "z" ]

let a = Option.get (Ses_pattern.Pattern.var_id p "a")

let g = Option.get (Ses_pattern.Pattern.var_id p "g")

let z = Option.get (Ses_pattern.Pattern.var_id p "z")

let ev seq l ts =
  Event.make ~seq ~ts [| Value.Int 1; Value.Str l; Value.Int 0 |]

let e_a = ev 0 "a" 0

let e_g1 = ev 1 "g" 1

let e_g2 = ev 2 "g" 2

let e_z = ev 3 "z" 5

let full = [ (a, e_a); (g, e_g1); (g, e_g2); (z, e_z) ]

let test_canonical () =
  Alcotest.(check (list (pair int int)))
    "sorted pairs"
    [ (a, 0); (g, 1); (g, 2); (z, 3) ]
    (Substitution.canonical full);
  Alcotest.(check bool) "order irrelevant" true
    (Substitution.equal full (List.rev full));
  Alcotest.(check bool) "different" false
    (Substitution.equal full [ (a, e_a) ])

let test_subset () =
  let small = [ (a, e_a); (g, e_g1); (z, e_z) ] in
  Alcotest.(check bool) "subset" true (Substitution.subset small full);
  Alcotest.(check bool) "proper" true (Substitution.proper_subset small full);
  Alcotest.(check bool) "not proper of self" false
    (Substitution.proper_subset full full);
  Alcotest.(check bool) "not superset" false (Substitution.subset full small)

let test_bindings_accessors () =
  Alcotest.(check int) "g has two" 2 (List.length (Substitution.bindings_of full g));
  Alcotest.(check int) "a has one" 1 (List.length (Substitution.bindings_of full a));
  Alcotest.(check int) "events" 4 (List.length (Substitution.events full));
  (match Substitution.min_binding full with
  | Some (var, e) ->
      Alcotest.(check int) "min var" a var;
      Alcotest.(check int) "min seq" 0 (Event.seq e)
  | None -> Alcotest.fail "expected a binding");
  Alcotest.(check (option int)) "min_ts" (Some 0) (Substitution.min_ts full);
  Alcotest.(check int) "span" 5 (Substitution.span full);
  Alcotest.(check (option int)) "empty min" None (Substitution.min_ts []);
  Alcotest.(check int) "empty span" 0 (Substitution.span [])

let test_min_binding_tie () =
  (* Equal timestamps: the event with the smaller sequence number wins. *)
  let x = ev 5 "a" 3 and y = ev 4 "g" 3 in
  match Substitution.min_binding [ (a, x); (g, y) ] with
  | Some (_, e) -> Alcotest.(check int) "tie by seq" 4 (Event.seq e)
  | None -> Alcotest.fail "expected a binding"

let test_well_formed () =
  Alcotest.(check bool) "full ok" true (Substitution.well_formed p full);
  Alcotest.(check bool) "missing z" false
    (Substitution.well_formed p [ (a, e_a); (g, e_g1) ]);
  Alcotest.(check bool) "duplicate singleton" false
    (Substitution.well_formed p ((a, ev 9 "a" 4) :: full));
  Alcotest.(check bool) "group needs >= 1" false
    (Substitution.well_formed p [ (a, e_a); (z, e_z) ]);
  Alcotest.(check bool) "duplicate event" false
    (Substitution.well_formed p [ (a, e_a); (g, e_a); (z, e_z) ])

let test_conditions_1_3 () =
  Alcotest.(check bool) "theta ok" true (Substitution.satisfies_theta p full);
  Alcotest.(check bool) "theta violated" false
    (Substitution.satisfies_theta p [ (a, e_g1); (g, e_g2); (z, e_z) ]);
  Alcotest.(check bool) "order ok" true (Substitution.satisfies_order p full);
  (* z before the group events violates condition 2. *)
  let early_z = ev 9 "z" 0 in
  Alcotest.(check bool) "order violated" false
    (Substitution.satisfies_order p [ (a, e_a); (g, e_g1); (z, early_z) ]);
  (* Equal timestamps across sets are not strictly ordered. *)
  let z_tie = ev 9 "z" 2 in
  Alcotest.(check bool) "strictness" false
    (Substitution.satisfies_order p [ (a, e_a); (g, e_g2); (z, z_tie) ]);
  Alcotest.(check bool) "window ok" true (Substitution.satisfies_window p full);
  let late_z = ev 9 "z" 100 in
  Alcotest.(check bool) "window violated" false
    (Substitution.satisfies_window p [ (a, e_a); (g, e_g1); (z, late_z) ]);
  Alcotest.(check bool) "1-3 conjunction" true (Substitution.satisfies_1_3 p full)

let test_finalize_dedup () =
  let out = Substitution.finalize p [ full; List.rev full; full ] in
  Alcotest.(check int) "one survivor" 1 (List.length out)

let test_finalize_operational_subsumption () =
  let small = [ (a, e_a); (g, e_g1); (z, e_z) ] in
  let out = Substitution.finalize p [ small; full ] in
  check_substs p
    [ [ ("a", 1); ("g+", 2); ("g+", 3); ("z", 4) ] ]
    out;
  (* Incomparable substitutions both survive. *)
  let other = [ (a, ev 9 "a" 1); (g, e_g2); (z, e_z) ] in
  let out2 = Substitution.finalize p [ full; other ] in
  Alcotest.(check int) "both kept" 2 (List.length out2)

let test_finalize_literal_minT_restriction () =
  (* Under the literal policy a strict subset with a different minT
     binding survives condition 5 — the late-start anomaly discussed in
     the interface documentation. *)
  let suffix = [ (g, e_g1); (g, e_g2); (z, e_z); (a, ev 9 "a" 1) ] in
  ignore suffix;
  let small_diff_start = [ (a, ev 9 "a" 1); (g, e_g2); (z, e_z) ] in
  let out =
    Substitution.finalize ~policy:Substitution.Literal p
      [ full; small_diff_start ]
  in
  Alcotest.(check int) "literal keeps both" 2 (List.length out);
  (* Same minT binding: the subset is dropped under both policies. *)
  let small_same_start = [ (a, e_a); (g, e_g1); (z, e_z) ] in
  let out2 =
    Substitution.finalize ~policy:Substitution.Literal p
      [ full; small_same_start ]
  in
  Alcotest.(check int) "literal drops same-start subset" 1 (List.length out2)

let test_finalize_sorted () =
  let later = [ (a, ev 9 "a" 3); (g, ev 10 "g" 4); (z, e_z) ] in
  let out = Substitution.finalize p [ later; full ] in
  Alcotest.(check (option int)) "earliest first" (Some 0)
    (Substitution.min_ts (List.hd out))

(* Finalize lays every binding out as the key var * base + seq, with
   base one past the largest sequence number, in one array of per-
   candidate slices. *)
let test_finalize_key_boundary () =
  (* Sequence numbers 0..3, so base = 4: a holding the last event keys
     to one below g (= a + 1) holding the first. Two one-binding
     candidates, distinct, in minT order. *)
  let last = [ (a, ev 3 "a" 5) ] and first = [ (a + 1, ev 0 "g" 0) ] in
  check_substs p [ [ ("a", 4) ]; [ ("g+", 1) ] ]
    (Substitution.finalize p [ last; first ]);
  Alcotest.(check (list (option int)))
    "minT order" [ Some 0; Some 5 ]
    (List.map Substitution.min_ts (Substitution.finalize p [ last; first ]));
  (* A one-binding candidate inside a larger one is dropped. *)
  check_substs p
    [ [ ("a", 1); ("g+", 2); ("g+", 3); ("z", 4) ] ]
    (Substitution.finalize p [ [ (g, e_g1) ]; full ]);
  (* A candidate that repeats a binding is its set of bindings: it
     deduplicates against the set written once (the first in the input
     is returned), and only a strict superset drops it. *)
  let repeated = [ (a, e_a); (z, e_z); (a, e_a) ] in
  let once = [ (a, e_a); (z, e_z) ] in
  List.iter
    (fun policy ->
      Alcotest.(check int) "repeat deduplicated" 3
        (List.length
           (List.hd (Substitution.finalize ~policy p [ repeated; once ])));
      check_substs p
        [ [ ("a", 1); ("g+", 2); ("g+", 3); ("z", 4) ] ]
        (Substitution.finalize ~policy p [ repeated; full ]))
    [ Substitution.Operational; Substitution.Literal ]

(* Finalize reuses its int arrays from call to call, and keeps none
   longer than a bound: a call after larger ones, whose arrays hold
   stale keys, returns what it returned first, and a call past the bound
   (24,000 keys) is exact too. *)
let test_finalize_reuse () =
  let small = [ [ (g, e_g1) ]; full; [ (a, e_a); (z, e_z) ] ] in
  let pairs k =
    List.init k (fun i ->
        [ (a, ev (2 * i) "a" (2 * i)); (z, ev ((2 * i) + 1) "z" ((2 * i) + 1)) ])
  in
  List.iter
    (fun policy ->
      let first = Substitution.finalize ~policy p small in
      List.iter
        (fun k ->
          let out = Substitution.finalize ~policy p (pairs k) in
          Alcotest.(check int) "pairwise distinct, all kept" k (List.length out);
          Alcotest.(check (option int))
            "latest last"
            (Some (2 * (k - 1)))
            (Substitution.min_ts (List.nth out (k - 1)));
          Alcotest.(check bool) "small again" true
            (List.equal Substitution.equal first
               (Substitution.finalize ~policy p small)))
        [ 3_000; 12_000; 50 ])
    [ Substitution.Operational; Substitution.Literal ]

let test_pp () =
  Alcotest.(check string) "rendering" "{a/e1, g+/e2, g+/e3, z/e4}"
    (Format.asprintf "%a" (Substitution.pp p) full)

let suite =
  [
    Alcotest.test_case "canonical/equal" `Quick test_canonical;
    Alcotest.test_case "subset" `Quick test_subset;
    Alcotest.test_case "accessors" `Quick test_bindings_accessors;
    Alcotest.test_case "min_binding tie" `Quick test_min_binding_tie;
    Alcotest.test_case "well_formed" `Quick test_well_formed;
    Alcotest.test_case "conditions 1-3" `Quick test_conditions_1_3;
    Alcotest.test_case "finalize: dedup" `Quick test_finalize_dedup;
    Alcotest.test_case "finalize: operational subsumption" `Quick
      test_finalize_operational_subsumption;
    Alcotest.test_case "finalize: literal minT restriction" `Quick
      test_finalize_literal_minT_restriction;
    Alcotest.test_case "finalize: deterministic order" `Quick test_finalize_sorted;
    Alcotest.test_case "finalize: flat key boundary" `Quick
      test_finalize_key_boundary;
    Alcotest.test_case "finalize: arrays reused across calls" `Quick
      test_finalize_reuse;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
