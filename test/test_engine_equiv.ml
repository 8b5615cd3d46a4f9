(* Store-equivalence property tests: the state-indexed instance store
   must be observationally identical to the flat reference pool — same
   raw emissions, same finalized matches, same metrics — across the
   option grid (constant pre-check on/off, both finalize policies), on
   the default random workloads and on keyed ones, whose joins split
   states into per-key sub-buckets. Run-class streams are checked
   against the per-instance path, and the flat-array finalize pipeline
   against a direct transcription of Definition 2's conditions 4-5. *)

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

(* ---- Run classes ----

   A run-class stream must read exactly like the per-instance path: per
   step (an event, or a chunk), the same multiset of raw emissions and
   the same whole [Metrics.snapshot] — [instances_expired] and the
   sampled [max_simultaneous_instances] included. The per-instance
   reference turns the constant pre-check off, which rules classes out;
   the flat pool is a second reference for the per-event feed, whose
   population is sampled per event on both sides. *)

let parse text = Ses_lang.Lang.parse_pattern_exn Random_workload.schema text

let class_pattern_spec =
  { Random_workload.default_pattern with Random_workload.p_id_join = 0.0 }

(* min_gap = 0 puts equal timestamps on set boundaries, where the order
   constraint v.T > u.T fails for some cohorts and not others. *)
let tied_relation_spec =
  { Random_workload.default_relation with min_gap = 0; max_gap = 3 }

let event_list r = List.of_seq (Ses_event.Relation.to_seq r)

(* Feeds [events] one by one ([None]) or in chunks of [k], then advances
   the clock past the last event and closes: each step's raw emissions
   (canonical, sorted) with the metrics after it. *)
let drive st tau events chunking =
  let steps =
    match chunking with
    | None -> List.map (fun e -> `Event e) events
    | Some k ->
        let rec cut = function
          | [] -> []
          | es ->
              let chunk = List.filteri (fun i _ -> i < k) es in
              `Chunk (Array.of_list chunk)
              :: cut (List.filteri (fun i _ -> i >= k) es)
        in
        cut events
  in
  let last =
    List.fold_left (fun _ e -> Ses_event.Event.ts e) 0 events
  in
  let observe raw =
    let raw = canon_sorted raw in
    (raw, Engine.metrics st)
  in
  let fed =
    List.map
      (function
        | `Event e -> observe (Engine.feed st e)
        | `Chunk c -> observe (Engine.feed_batch st c))
      steps
  in
  let advanced = observe (Engine.advance st (last + (tau / 2))) in
  fed @ [ advanced; observe (Engine.close st) ]

let per_instance = { Engine.default_options with Engine.precheck_constants = false }

let flat = { Engine.default_options with Engine.store = Engine.Flat }

let chunkings = [ None; Some 1; Some 7; Some 64 ]

(* [pat] with a reflexive condition x.ID = x.ID on its first variable.
   It holds on every event, pins nothing and arms no dead check, so every
   walk decision stays as it was; but it is not constant, so the twin
   runs per instance with the constant pre-check on. A batch pops only
   the states its events walk, and with the pre-check off it walks more
   of them, so the twin is the per-instance stream whose batched
   population peak the class stream must match. *)
let per_instance_twin pat =
  let text = Ses_lang.Lang.to_query pat in
  let x = (Ses_pattern.Pattern.variable pat 0).Ses_pattern.Variable.name in
  (* [to_query] ends with a line "WITHIN n". *)
  let within = String.rindex text '\n' in
  let join =
    Printf.sprintf "%s %s.ID = %s.ID"
      (if Ses_pattern.Pattern.conditions pat = [] then "\nWHERE" else " AND")
      x x
  in
  parse
    (String.sub text 0 within ^ join
    ^ String.sub text within (String.length text - within))

(* The invariants of a batched run against any chunking of the same
   events: each step's raw multiset, and the expiries at its end. *)
let invariants steps =
  List.map (fun (raw, m) -> (raw, m.Metrics.instances_expired)) steps

(* The class stream against its per-instance twin at every chunking,
   against the pre-check-off path in its invariants at every chunking
   and whole per event, and against the flat pool per event. *)
let classes_agree pat events =
  let automaton = Automaton.of_pattern pat in
  let twin = Automaton.of_pattern (per_instance_twin pat) in
  let tau = Automaton.tau automaton in
  let run ?(automaton = automaton) options chunking =
    drive (Engine.create ~options automaton) tau events chunking
  in
  Engine.runs_classes automaton
  && (not (Engine.runs_classes twin))
  && List.for_all
       (fun chunking ->
         let classes = run Engine.default_options chunking in
         let unchecked = run per_instance chunking in
         classes = run ~automaton:twin Engine.default_options chunking
         && invariants classes = invariants unchecked
         &&
         match chunking with
         | None -> classes = unchecked && classes = run flat chunking
         | Some _ -> true)
       chunkings

let classes_agree_on_random_patterns =
  QCheck.Test.make ~count:120 ~name:"run classes = per-instance path"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat = Random_workload.pattern rng class_pattern_spec in
      let r = Random_workload.relation rng tied_relation_spec in
      classes_agree pat (event_list r))

(* Constant NOT guards: between sets, trailing, and both. *)
let guarded_patterns =
  List.map parse
    [
      "PATTERN (x, y+) -> NOT (n) -> (z) WHERE x.L = 'a' AND y.L = 'b' \
       AND n.L = 'c' AND z.L = 'a' WITHIN 14";
      "PATTERN (x) -> (y+) -> NOT (n) WHERE x.L = 'a' AND y.L = 'b' \
       AND n.L = 'c' AND n.V >= 2 WITHIN 10";
      "PATTERN (x) -> NOT (n) -> (y, z+) -> NOT (m) WHERE x.L = 'a' \
       AND n.V = 5 AND y.L = 'b' AND z.L <> 'b' AND m.L = 'a' WITHIN 16";
    ]

let classes_agree_on_guards =
  QCheck.Test.make ~count:90 ~name:"run classes = per-instance path (NOT guards)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat =
        List.nth guarded_patterns (seed mod List.length guarded_patterns)
      in
      let r = Random_workload.relation rng tied_relation_spec in
      classes_agree pat (event_list r))

(* What some condition or quantifier can tell apart stays per instance,
   and so does every stream whose options rule classes out. *)
let classes_eligibility () =
  let runs ?options text =
    Engine.runs_classes ?options (Automaton.of_pattern (parse text))
  in
  let p3_like =
    "PATTERN (c, d, p+) -> (b) WHERE c.L = 'a' AND d.L = 'a' AND p.L = 'a' \
     AND b.L = 'b' WITHIN 10"
  in
  Alcotest.(check bool) "constants only" true (runs p3_like);
  Alcotest.(check bool) "no constant pre-check" false
    (runs ~options:per_instance p3_like);
  Alcotest.(check bool) "flat pool" false (runs ~options:flat p3_like);
  List.iter
    (fun (name, text) -> Alcotest.(check bool) name false (runs text))
    [
      ("quantifier maximum", "PATTERN (x{1,3}) -> (y) WHERE x.L = 'a' WITHIN 10");
      ("minimum above 1", "PATTERN (x{2,}) -> (y) WHERE x.L = 'a' WITHIN 10");
      ("var-var V", "PATTERN (x) -> (y) WHERE x.V > y.V WITHIN 10");
      ("ID join", "PATTERN (x, y) WHERE x.ID = y.ID WITHIN 10");
      ( "guard join",
        "PATTERN (x) -> NOT (n) -> (y) WHERE n.ID = x.ID WITHIN 10" );
    ]

(* An observer installed on a class stream that holds members turns it
   into a per-instance stream: its members become instances, and from
   then on it narrates, emits and counts exactly what the per-instance
   path does. *)
let observation_repr obs =
  let buffer b = List.map (fun (v, e) -> (v, Ses_event.Event.seq e)) b in
  let seq = Ses_event.Event.seq in
  match obs with
  | Engine.Created e -> ("created", seq e, [])
  | Engine.Took { event; buffer = b; _ } -> ("took", seq event, buffer b)
  | Engine.Pruned { event; buffer = b; _ } -> ("pruned", seq event, buffer b)
  | Engine.Ignored { event; buffer = b; _ } -> ("ignored", seq event, buffer b)
  | Engine.Expired { event; buffer = b; _ } -> ("expired", seq event, buffer b)
  | Engine.Killed { event; buffer = b; _ } -> ("killed", seq event, buffer b)
  | Engine.Emitted b -> ("emitted", -1, buffer b)

let observer_switches_classes =
  QCheck.Test.make ~count:60 ~name:"an observer turns a class stream per-instance"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat =
        if seed mod 3 = 0 then
          List.nth guarded_patterns (seed mod List.length guarded_patterns)
        else Random_workload.pattern rng class_pattern_spec
      in
      let automaton = Automaton.of_pattern pat in
      let events = event_list (Random_workload.relation rng tied_relation_spec) in
      let half = List.length events / 2 in
      let run options =
        let st = Engine.create ~options automaton in
        let seen = ref [] in
        List.iteri
          (fun i e ->
            if i = half then begin
              let before = Engine.population_by_state st in
              Engine.set_observer st
                (Some (fun obs -> seen := observation_repr obs :: !seen));
              assert (before = Engine.population_by_state st)
            end;
            ignore (Engine.feed st e))
          events;
        ignore (Engine.close st);
        (List.rev !seen, canon_sorted (Engine.emitted st), Engine.metrics st)
      in
      Engine.runs_classes automaton
      && run Engine.default_options = run per_instance)

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
        classes_agree_on_random_patterns;
        classes_agree_on_guards;
        observer_switches_classes;
      ]
  @ [ Alcotest.test_case "run-class eligibility" `Quick classes_eligibility ]
