(* Cross-implementation property tests: the SES automaton engine against
   the formal conditions of Definition 2 and against the brute-force
   baseline, on randomly generated patterns and relations. *)

open Ses_core
open Ses_gen

let with_workload seed f =
  let rng = Prng.create (Int64.of_int seed) in
  let pat = Random_workload.pattern rng Random_workload.default_pattern in
  let r = Random_workload.relation rng Random_workload.default_relation in
  f pat r

let singleton_spec =
  { Random_workload.default_pattern with Random_workload.allow_groups = false }

(* The SES-within-BF inclusion only holds on relations with strictly
   increasing timestamps (the paper's Sec. 3.1 assumption): with ties, a
   brute-force chain imposes a strict order between same-set variables
   that the set pattern does not. *)
let tie_free =
  { Random_workload.default_relation with Random_workload.min_gap = 1 }

let with_singleton_workload seed f =
  let rng = Prng.create (Int64.of_int seed) in
  let pat = Random_workload.pattern rng singleton_spec in
  let r = Random_workload.relation rng tie_free in
  f pat r

(* Every raw emission of the engine is a matching substitution in the sense
   of conditions 1-3. *)
let raw_satisfies_def2 =
  QCheck.Test.make ~count:150 ~name:"engine emissions satisfy Def. 2 (1-3)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let outcome = Engine.run_relation (Automaton.of_pattern pat) r in
          List.for_all (Substitution.satisfies_1_3 pat) outcome.Engine.raw))

(* Finalized matches are pairwise non-subsumed (MAXIMAL mode). *)
let matches_maximal =
  QCheck.Test.make ~count:150 ~name:"finalized matches are non-subsumed"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let ms =
            (Engine.run_relation (Automaton.of_pattern pat) r).Engine.matches
          in
          List.for_all
            (fun a ->
              List.for_all
                (fun b ->
                  Substitution.equal a b
                  || not (Substitution.proper_subset a b))
                ms)
            ms))

(* Finalized matches have pairwise distinct canonical forms. *)
let matches_distinct =
  QCheck.Test.make ~count:150 ~name:"finalized matches are distinct"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let cs =
            List.map Substitution.canonical
              (Engine.run_relation (Automaton.of_pattern pat) r).Engine.matches
          in
          List.length cs
          = List.length (List.sort_uniq Substitution.compare_canonical cs)))

(* For singleton-only patterns the brute force explores every ordering, so
   its raw output contains everything the SES automaton emits. *)
let ses_raw_subset_of_bf =
  QCheck.Test.make ~count:75 ~name:"SES raw within BF raw (singleton-only)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_singleton_workload seed (fun pat r ->
          let ses = Engine.run_relation (Automaton.of_pattern pat) r in
          let bf = Ses_baseline.Brute_force.run_relation pat r in
          let bf_raw =
            List.map Substitution.canonical bf.Ses_baseline.Brute_force.raw
          in
          List.for_all
            (fun s -> List.mem (Substitution.canonical s) bf_raw)
            ses.Engine.raw))

(* The brute force's raw output also satisfies conditions 1-3. *)
let bf_raw_satisfies_def2 =
  QCheck.Test.make ~count:75 ~name:"BF emissions satisfy Def. 2 (1-3)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_singleton_workload seed (fun pat r ->
          let bf = Ses_baseline.Brute_force.run_relation pat r in
          List.for_all (Substitution.satisfies_1_3 pat)
            bf.Ses_baseline.Brute_force.raw))

(* Group-variable bindings are chronologically inside the window: the span
   of every match respects tau. *)
let matches_within_window =
  QCheck.Test.make ~count:150 ~name:"match span within tau"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let ms =
            (Engine.run_relation (Automaton.of_pattern pat) r).Engine.matches
          in
          List.for_all
            (fun s -> Substitution.span s <= Ses_pattern.Pattern.tau pat)
            ms))

(* Feeding the same relation twice through a fresh stream gives identical
   output: the engine is deterministic. *)
let engine_deterministic =
  QCheck.Test.make ~count:75 ~name:"engine is deterministic"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let a = Automaton.of_pattern pat in
          let run () =
            List.map Substitution.canonical (Engine.run_relation a r).Engine.matches
          in
          run () = run ()))

(* Every ID-join shape, so that bound join partners need not be joined
   to each other (Q1's star) and dead-instance pruning has work to do. *)
let shaped_spec =
  {
    Random_workload.default_pattern with
    Random_workload.join_shapes = Random_workload.[ Complete; Star; Chain ];
  }

(* Neither the constant pre-check nor dead-instance pruning changes the
   raw emissions, in order, or the finalized matches: every combination
   agrees with the paper's verbatim loop. A pruned successor never
   emits and the survivors keep their relative ids, so emission order
   holds too. *)
let precheck_transparent =
  QCheck.Test.make ~count:75
    ~name:"constant pre-check is transparent, and so is dead-instance pruning"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat = Random_workload.pattern rng shaped_spec in
      let r = Random_workload.relation rng Random_workload.default_relation in
      let automaton = Automaton.of_pattern pat in
      let run precheck prune =
        let options =
          {
            Engine.default_options with
            Engine.precheck_constants = precheck;
            prune_dead = prune;
          }
        in
        let o = Engine.run_relation ~options automaton r in
        ( List.map Substitution.canonical o.Engine.raw,
          List.map Substitution.canonical o.Engine.matches )
      in
      let verbatim = run false false in
      List.for_all
        (fun (precheck, prune) -> run precheck prune = verbatim)
        [ (true, false); (false, true); (true, true) ])

(* The literal finalize policy never fails and always returns a subset of
   the deduplicated candidates. *)
let literal_policy_sane =
  QCheck.Test.make ~count:75 ~name:"literal policy output within candidates"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let options =
            { Engine.default_options with Engine.policy = Substitution.Literal }
          in
          let outcome = Engine.run_relation ~options automaton r in
          let raw = List.map Substitution.canonical outcome.Engine.raw in
          List.for_all
            (fun m -> List.mem (Substitution.canonical m) raw)
            outcome.Engine.matches))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      raw_satisfies_def2;
      precheck_transparent;
      literal_policy_sane;
      matches_maximal;
      matches_distinct;
      ses_raw_subset_of_bf;
      bf_raw_satisfies_def2;
      matches_within_window;
      engine_deterministic;
    ]
