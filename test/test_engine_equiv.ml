(* Store-equivalence property tests: the state-indexed instance store
   must be observationally identical to the flat reference pool — same
   raw emissions, same finalized matches, same metrics — across the
   option grid (constant pre-check on/off, both finalize policies), on
   the default random workloads and on keyed ones, whose joins split
   states into per-key sub-buckets. The packed finalize pipeline is
   likewise checked against a direct transcription of Definition 2's
   conditions 4-5. *)

open Ses_core
open Ses_gen

let with_workload seed f =
  let rng = Prng.create (Int64.of_int seed) in
  let pat = Random_workload.pattern rng Random_workload.default_pattern in
  let r = Random_workload.relation rng Random_workload.default_relation in
  f pat r

let canon_sorted substs =
  List.sort Substitution.compare_canonical
    (List.map Substitution.canonical substs)

let run ~store ~precheck ~policy automaton r =
  let options =
    {
      Engine.default_options with
      Engine.store;
      precheck_constants = precheck;
      policy;
    }
  in
  Engine.run_relation ~options automaton r

(* The option grid shared by the parity properties below. *)
let grid =
  [
    (true, Substitution.Operational);
    (false, Substitution.Operational);
    (true, Substitution.Literal);
    (false, Substitution.Literal);
  ]

(* Raw emissions and finalized matches agree between the two stores for
   every option combination. Raw output is compared as a multiset-free
   sorted list of canonical forms: the indexed store visits states in
   bucket order, so within-event emission order may differ, but the set
   of emissions may not. *)
let stores_agree_on_output ~name workload =
  QCheck.Test.make ~count:120 ~name
    QCheck.(int_bound 100_000)
    (fun seed ->
      workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          List.for_all
            (fun (precheck, policy) ->
              let flat = run ~store:Engine.Flat ~precheck ~policy automaton r in
              let idx =
                run ~store:Engine.Indexed ~precheck ~policy automaton r
              in
              canon_sorted flat.Engine.raw = canon_sorted idx.Engine.raw
              && canon_sorted flat.Engine.matches
                 = canon_sorted idx.Engine.matches)
            grid))

(* The runtime counters agree as well: bucket skipping and key probes
   only ever avoid work the flat scan would not have recorded (states
   with no candidate transitions fire nothing, and instances of another
   key can neither fire a pinned transition nor be killed by a pinned
   guard), so every counter — including max |Ω| — must be
   bit-identical. *)
let stores_agree_on_metrics ~name workload =
  QCheck.Test.make ~count:120 ~name
    QCheck.(int_bound 100_000)
    (fun seed ->
      workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          List.for_all
            (fun (precheck, policy) ->
              let flat = run ~store:Engine.Flat ~precheck ~policy automaton r in
              let idx =
                run ~store:Engine.Indexed ~precheck ~policy automaton r
              in
              flat.Engine.metrics = idx.Engine.metrics)
            grid))

(* The batched path probes the same sub-buckets, with expiry fused into
   the walk and swept at chunk end: against the per-event run, the same
   raw multiset, the same matches and the same expiry count. *)
let keyed_batches_agree =
  QCheck.Test.make ~count:60 ~name:"keyed batches = per-event keyed run"
    QCheck.(int_bound 100_000)
    (fun seed ->
      Helpers.with_keyed_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let per_event = Engine.run_relation automaton r in
          List.for_all
            (fun batch_size ->
              let batched =
                Executor.run_relation
                  ~options:{ Engine.default_options with Engine.batch_size }
                  `Plain automaton r
              in
              canon_sorted per_event.Engine.raw
              = canon_sorted batched.Engine.raw
              && List.map Substitution.canonical per_event.Engine.matches
                 = List.map Substitution.canonical batched.Engine.matches
              && per_event.Engine.metrics.Metrics.instances_expired
                 = batched.Engine.metrics.Metrics.instances_expired)
            [ 1; 7; 64 ]))

(* Direct transcription of finalize: dedup by canonical form, apply
   Definition 2's conditions 4-5 pair by pair, sort. Each candidate's
   canonical form and minT binding are computed once, so the quadratic
   pass stays well under a second on the case-3 input below. *)
let reference_finalize policy substs =
  let seen = Hashtbl.create 64 in
  let candidates =
    List.filter_map
      (fun s ->
        let c = Substitution.canonical s in
        if Hashtbl.mem seen c then None
        else begin
          Hashtbl.add seen c ();
          let min_key =
            Option.map
              (fun (v, e) -> (v, Ses_event.Event.seq e))
              (Substitution.min_binding s)
          in
          Some (s, c, min_key)
        end)
      substs
  in
  let proper_subset c c' =
    List.length c < List.length c' && List.for_all (fun x -> List.mem x c') c
  in
  let keep =
    match policy with
    | Substitution.Operational ->
        fun (_, c, _) ->
          not (List.exists (fun (_, c', _) -> proper_subset c c') candidates)
    | Substitution.Literal ->
        (* Condition 4 asks only which (variable, event) bindings some
           candidate holds: list each one once. *)
        let held = Hashtbl.create 64 in
        List.iter
          (fun (s, _, _) ->
            List.iter
              (fun (v, e) ->
                Hashtbl.replace held
                  (v, Ses_event.Event.seq e)
                  (Ses_event.Event.ts e))
              s)
          candidates;
        let held =
          Hashtbl.fold (fun (v, seq) ts acc -> (v, ts, seq) :: acc) held []
        in
        fun (s, c, min_key) ->
          (* Condition 5: no candidate with the same minT binding strictly
             contains γ. *)
          (not
             (List.exists
                (fun (_, c', min_key') ->
                  Option.equal
                    (fun (v, q) (v', q') -> v = v' && q = q')
                    min_key min_key'
                  && proper_subset c c')
                candidates))
          (* Condition 4: no pair v/e, v'/e' of γ with a held binding
             v'/e'' such that e.T < e''.T < e'.T and v'/e'' ∉ γ. *)
          && List.for_all
               (fun (_, e) ->
                 List.for_all
                   (fun (v', e') ->
                     List.for_all
                       (fun (v'', ts, seq) ->
                         v'' <> v'
                         || (not
                               (Ses_event.Time.( <. ) (Ses_event.Event.ts e) ts
                               && Ses_event.Time.( <. ) ts
                                    (Ses_event.Event.ts e')))
                         || List.mem (v', seq) c)
                       held)
                   s)
               s
  in
  List.map
    (fun (s, _, _) -> s)
    (List.sort
       (fun (a, ca, _) (b, cb, _) ->
         let c =
           Option.compare Ses_event.Time.compare (Substitution.min_ts a)
             (Substitution.min_ts b)
         in
         if c <> 0 then c else Substitution.compare_canonical ca cb)
       (List.filter keep candidates))

let policies = [ Substitution.Operational; Substitution.Literal ]

let agrees_with_reference pat raw =
  List.for_all
    (fun policy ->
      List.map Substitution.canonical (Substitution.finalize ~policy pat raw)
      = List.map Substitution.canonical (reference_finalize policy raw))
    policies

let finalize_matches_reference =
  QCheck.Test.make ~count:120 ~name:"finalize = reference finalize"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let raw =
            (Engine.run_relation (Automaton.of_pattern pat) r).Engine.raw
          in
          agrees_with_reference pat raw))

(* Raw emissions arrive in one order, each substitution's bindings in
   chronological order, and without the empty substitution. Finalize must
   not depend on any of that: shuffle the list, repeat some candidates
   (half of the repeats with their bindings reversed), and add the empty
   substitution. *)
let finalize_ignores_input_order =
  QCheck.Test.make ~count:120 ~name:"finalize ignores input order and shape"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let rng = Prng.create (Int64.of_int (seed + 1)) in
          let raw =
            (Engine.run_relation (Automaton.of_pattern pat) r).Engine.raw
          in
          let repeats =
            List.filter_map
              (fun s ->
                if Prng.chance rng 0.3 then
                  Some (if Prng.bool rng then List.rev s else s)
                else None)
              raw
          in
          agrees_with_reference pat
            (Prng.shuffle rng (([] :: raw) @ repeats))))

(* The case-3 overlapping group pattern P3 builds long posting lists:
   every candidate holding a binding lies within τ of that event, and at
   seed 7 two patients give 1,312 raw candidates for 376 matches. *)
let finalize_case3_matches_reference () =
  let r =
    Chemo.generate { Chemo.default with Chemo.seed = 7L; patients = 2 }
  in
  let pat = Ses_harness.Queries.p3 in
  let options = { Engine.default_options with Engine.finalize = false } in
  let raw =
    (Engine.run_relation ~options (Automaton.of_pattern pat) r).Engine.raw
  in
  Alcotest.(check int) "raw candidates" 1312 (List.length raw);
  List.iter
    (fun policy ->
      let got = Substitution.finalize ~policy pat raw in
      let want = reference_finalize policy raw in
      Alcotest.(check int) "match count" (List.length want) (List.length got);
      List.iter2
        (fun g w ->
          Alcotest.(check (list (pair int int)))
            "match" (Substitution.canonical w) (Substitution.canonical g))
        got want)
    policies;
  Alcotest.(check int) "operational matches" 376
    (List.length (Substitution.finalize pat raw))

(* The O(1) population counter of the indexed store never drifts from
   the actual pool: after every event the counter equals the length of
   the instance dump, and the per-state histogram sums to it. *)
let population_counter_consistent =
  QCheck.Test.make ~count:75 ~name:"population counter matches the pool"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let st = Engine.create automaton in
          Seq.for_all
            (fun e ->
              ignore (Engine.feed st e);
              let by_state = Engine.population_by_state st in
              Engine.population st
              = List.fold_left (fun acc (_, n) -> acc + n) 0 by_state)
            (Ses_event.Relation.to_seq r)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      stores_agree_on_output ~name:"indexed store output = flat store output"
        with_workload;
      stores_agree_on_metrics
        ~name:"indexed store metrics = flat store metrics" with_workload;
      finalize_matches_reference;
      finalize_ignores_input_order;
      population_counter_consistent;
    ]
  @ [
      Alcotest.test_case "case 3 finalize = reference" `Quick
        finalize_case3_matches_reference;
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        stores_agree_on_output ~name:"keyed store output = flat store output"
          Helpers.with_keyed_workload;
        stores_agree_on_metrics
          ~name:"keyed store metrics = flat store metrics"
          Helpers.with_keyed_workload;
        keyed_batches_agree;
      ]
