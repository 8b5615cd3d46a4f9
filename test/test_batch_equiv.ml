(* Batch-equivalence properties: for every execution strategy,
   [Executor.feed_batch] must be observationally identical to feeding
   the same events one at a time — same finalized matches (in order),
   same raw emissions (as a multiset), and the same layout-invariant
   metrics — at every chunking of the input, including the degenerate
   batch of one, an awkward prime that never divides the input evenly,
   and a batch larger than any test relation. The deterministic fixture
   pins the two semantically delicate spots: a negation kill and a
   τ-expiry landing exactly on a batch boundary. *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_gen
open Helpers

let () = Ses_baseline.Brute_force.register ()

let batch_grid = [ 1; 2; 7; 64; 4096 ]

let canon substs = List.map Substitution.canonical substs
let canon_sorted substs =
  List.sort Substitution.compare_canonical (canon substs)

(* The one layout-variant counter: the batched loop samples the
   population before its batch-end sweep pops the instances whose
   window closed mid-batch, so the sampled peak can legitimately exceed
   the per-event schedule's. Everything else — [instances_expired]
   included — must agree exactly. *)
let invariant (m : Metrics.snapshot) =
  { m with Metrics.max_simultaneous_instances = 0 }

type observed = {
  o_matches : (int * int) list list;
  o_raw : (int * int) list list;
  o_metrics : Metrics.snapshot;
}

let events_of r = Array.of_seq (Relation.to_seq r)

(* Run [strategy] over [r], delivering the input per event when
   [batch = None] and in [Array.sub] chunks of the given size
   otherwise, and collect everything equivalence is judged on. *)
let observe ?(options = Engine.default_options) ~batch strategy pat r =
  let exec = Executor.create ~options strategy (Automaton.of_pattern pat) in
  let events = events_of r in
  (match batch with
  | None -> Array.iter (fun e -> ignore (Executor.feed exec e)) events
  | Some b ->
      let n = Array.length events in
      let i = ref 0 in
      while !i < n do
        let len = min b (n - !i) in
        ignore (Executor.feed_batch exec (Array.sub events !i len));
        i := !i + len
      done);
  ignore (Executor.close exec);
  let raw = Executor.emitted exec in
  {
    o_matches =
      canon (Substitution.finalize ~policy:options.Engine.policy pat raw);
    o_raw = canon_sorted raw;
    o_metrics = Executor.metrics exec;
  }

let equivalent reference batched =
  reference.o_matches = batched.o_matches
  && reference.o_raw = batched.o_raw
  && invariant reference.o_metrics = invariant batched.o_metrics

(* The random workload: group variables and τ-expiry are exercised by
   the default spec; the naive oracle is excluded here (its exhaustive
   enumeration is exponential in the 40-event relation) and covered by
   the deterministic fixture below instead. *)
let strategies = [ `Plain; `Auto; `Brute_force ]

let with_workload seed f =
  let rng = Prng.create (Int64.of_int seed) in
  let pat = Random_workload.pattern rng Random_workload.default_pattern in
  let r = Random_workload.relation rng Random_workload.default_relation in
  f pat r

let batched_equals_per_event =
  QCheck.Test.make ~count:40
    ~name:"feed_batch = per-event feed (all strategies, all chunkings)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          List.for_all
            (fun strategy ->
              let reference = observe ~batch:None strategy pat r in
              List.for_all
                (fun b ->
                  equivalent reference (observe ~batch:(Some b) strategy pat r))
                batch_grid)
            strategies))

(* Feeds [events] in chunks of 1 to 16 events, their lengths drawn
   from [cuts], through two executors: [step] hands one chunk to one of
   them and returns the raw emissions. True when every chunk returns
   the same multiset on both, [instances_expired] agrees at every chunk
   boundary, and the close-time flushes agree too. *)
let agree_chunk_by_chunk cuts events (a, step_a) (b, step_b) =
  let expired exec = (Executor.metrics exec).Metrics.instances_expired in
  let n = Array.length events in
  let ok = ref true and i = ref 0 in
  while !ok && !i < n do
    let len = min (1 + Prng.int cuts 16) (n - !i) in
    let chunk = Array.sub events !i len in
    ok :=
      canon_sorted (step_a chunk) = canon_sorted (step_b chunk)
      && expired a = expired b;
    i := !i + len
  done;
  !ok
  && canon_sorted (Executor.close a) = canon_sorted (Executor.close b)
  && expired a = expired b

(* Chunk by chunk, not just in total: the batched engine sweeps τ-expiry
   at the end of every chunk, so each [feed_batch] call returns the same
   multiset of raw emissions as feeding that chunk's events one by one —
   an instance is emitted in the chunk whose event closed its window —
   and the expiry count agrees at every boundary. Chunk lengths are
   drawn at random, ten chunkings per workload. *)
let chunk_emissions_equal_per_event =
  QCheck.Test.make ~count:40
    ~name:"each feed_batch chunk = per-event feed over it (1 domain)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      with_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let events = events_of r in
          let cuts = Prng.create (Int64.of_int (seed + 1)) in
          let agrees strategy =
            let reference = Executor.create strategy automaton in
            let batched = Executor.create strategy automaton in
            let one_by_one chunk =
              List.concat_map (Executor.feed reference) (Array.to_list chunk)
            in
            agree_chunk_by_chunk cuts events (reference, one_by_one)
              (batched, Executor.feed_batch batched)
          in
          let rec chunkings strategy k =
            k = 0 || (agrees strategy && chunkings strategy (k - 1))
          in
          List.for_all
            (fun strategy -> chunkings strategy 10)
            [ `Plain; `Auto ]))

(* The clock. An executor fed only the events its strong filter keeps —
   what the shared plan routes to a query — and advanced to each chunk's
   last timestamp returns, chunk by chunk, the raw emissions of the full
   feed and counts the same expiries: a skipped event can only close
   windows, and the advance closes them. The keyed workloads join IDs in
   every shape, with group variables and pinned and unpinned negation
   guards; the skipping executor runs on both pool layouts. *)
let routed_advance_equals_full_feed =
  QCheck.Test.make ~count:40
    ~name:"routed subsequence + advance = full feed (chunk by chunk)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      Helpers.with_keyed_workload seed (fun pat r ->
          match Event_filter.strong_clauses pat with
          | None -> true
          | Some clauses ->
              let routed e =
                List.exists
                  (List.for_all (Event_filter.satisfies_atom e))
                  clauses
              in
              let automaton = Automaton.of_pattern pat in
              let events = events_of r in
              let cuts = Prng.create (Int64.of_int (seed + 1)) in
              List.for_all
                (fun store ->
                  let full = Executor.create `Plain automaton in
                  let skipping =
                    Executor.create
                      ~options:{ Engine.default_options with Engine.store }
                      `Plain automaton
                  in
                  agree_chunk_by_chunk cuts events
                    (full, Executor.feed_batch full)
                    ( skipping,
                      fun chunk ->
                        let last = Event.ts chunk.(Array.length chunk - 1) in
                        let fed =
                          Executor.feed_batch skipping
                            (Array.of_list
                               (List.filter routed (Array.to_list chunk)))
                        in
                        fed @ Executor.advance skipping last ))
                [ Engine.Indexed; Engine.Flat ]))

(* The filter never delays an emission: under the strong filter the
   engine returns, chunk by chunk, the raw emissions of the unfiltered
   engine and counts the same expiries, fed per event or in batches —
   an event the filter drops still sweeps the pool to its timestamp. *)
let strong_equals_no_filter =
  QCheck.Test.make ~count:40 ~name:"strong filter = no filter (chunk by chunk)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      Helpers.with_keyed_workload seed (fun pat r ->
          let automaton = Automaton.of_pattern pat in
          let events = events_of r in
          let cuts = Prng.create (Int64.of_int (seed + 1)) in
          let make filter =
            Executor.create
              ~options:{ Engine.default_options with Engine.filter }
              `Plain automaton
          in
          List.for_all
            (fun per_event ->
              let step exec chunk =
                if per_event then
                  List.concat_map (Executor.feed exec) (Array.to_list chunk)
                else Executor.feed_batch exec chunk
              in
              let unfiltered = make Event_filter.No_filter in
              let strong = make Event_filter.Strong in
              agree_chunk_by_chunk cuts events
                (unfiltered, step unfiltered)
                (strong, step strong))
            [ true; false ]))

(* Complete ID joins key every state that binds a variable, so this
   property drives the engine's key-indexed sub-buckets: an event walks
   only its key's instances, and instances of other keys whose window
   closed mid-chunk wait for the chunk-end sweep. *)
let keyed_batched_equals_per_event =
  QCheck.Test.make ~count:25 ~name:"keyed feed_batch = per-event"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat =
        Random_workload.pattern rng
          {
            Random_workload.default_pattern with
            Random_workload.p_id_join = 1.0;
          }
      in
      let r =
        Random_workload.relation rng
          { Random_workload.default_relation with Random_workload.n_ids = 4 }
      in
      let reference = observe ~batch:None `Plain pat r in
      List.for_all
        (fun b -> equivalent reference (observe ~batch:(Some b) `Plain pat r))
        batch_grid)

(* Dead-instance pruning never shows in the output: with it on and off,
   each strategy gives the same raw multiset and the same finalized
   matches at every chunking, under both finalize policies and every
   event filter. The patterns mix ID-join shapes, so a star or a chain
   leaves bound partners unjoined and successors do get pruned; with
   pruning off none may be. *)
let prune_on_equals_off =
  QCheck.Test.make ~count:60
    ~name:"prune on = off (strategies, chunkings, policies, filters)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let pat =
        Random_workload.pattern rng
          {
            Random_workload.default_pattern with
            Random_workload.p_id_join = 1.0;
            join_shapes = Random_workload.[ Complete; Star; Chain ];
          }
      in
      let r = Random_workload.relation rng Random_workload.default_relation in
      let agrees strategy b policy filter =
        let run prune_dead =
          let options =
            { Engine.default_options with Engine.policy; filter; prune_dead }
          in
          observe ~options ~batch:(Some b) strategy pat r
        in
        let on = run true and off = run false in
        on.o_raw = off.o_raw
        && on.o_matches = off.o_matches
        && off.o_metrics.Metrics.instances_pruned = 0
      in
      List.for_all
        (fun strategy ->
          List.for_all
            (fun b ->
              List.for_all
                (fun policy ->
                  List.for_all
                    (agrees strategy b policy)
                    Event_filter.[ No_filter; Paper; Strong ])
                Substitution.[ Operational; Literal ])
            [ 1; 7; 64; 4096 ])
        [ `Plain; `Auto ])

(* Deterministic fixture: an ID-pinned negation kill (id 2), a match
   completing before its kill event arrives (id 1), and a τ-expiry
   inside a later chunk — at batch 7, events 1..7 arrive in one chunk
   and 8..11 in the next, so id 4's first [a] (ts 3) expires inside the
   second chunk, at its [b] (ts 30 is past τ = 20), while its second
   [a] (ts 12) still matches. *)
let neg_pattern =
  Pattern.make_full_exn ~schema:Helpers.schema
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

let test_negation_and_expiry_at_boundaries () =
  let expected =
    [ [ ("a", 1); ("b", 6) ]; [ ("a", 3); ("b", 8) ]; [ ("a", 9); ("b", 11) ] ]
  in
  List.iter
    (fun strategy ->
      let name = Executor.strategy_name strategy in
      let reference = observe ~batch:None strategy neg_pattern neg_relation in
      let repr canonical =
        List.sort Helpers.compare_name_seq
          (List.map
             (fun (var, seq) -> (Pattern.var_name neg_pattern var, seq + 1))
             canonical)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s per-event matches" name)
        true
        (List.map repr reference.o_matches = expected);
      List.iter
        (fun b ->
          let batched =
            observe ~batch:(Some b) strategy neg_pattern neg_relation
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s at batch %d" name b)
            true
            (equivalent reference batched))
        batch_grid)
    (`Naive :: strategies)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      batched_equals_per_event;
      chunk_emissions_equal_per_event;
      routed_advance_equals_full_feed;
      strong_equals_no_filter;
      keyed_batched_equals_per_event;
      prune_on_equals_off;
    ]
  @ [
      Alcotest.test_case "negation + expiry at batch boundaries" `Quick
        test_negation_and_expiry_at_boundaries;
    ]
