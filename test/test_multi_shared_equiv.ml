(* Shared-plan differential properties: {!Multi} (predicate-index
   routing in front of one executor per query) must be observationally
   identical to the reference — one isolated {!Executor} per query, fed
   every event in the same chunks — for every query: same finalized
   matches (in order), same raw emissions (as a multiset), and the same
   metrics. Metrics are compared bit-for-bit on the per-event path;
   batched delivery zeroes the population peak, which depends on which
   events the engine walks. The deterministic fixture runs queries that
   agree on a leading run of event sets, with negation guards at two
   boundaries, a query that is exactly the common prefix (emitting on
   τ-expiry), and a byte-identical re-registration — and asserts that
   routing actually engaged. *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_gen

let canon substs = List.map Substitution.canonical substs
let canon_sorted substs =
  List.sort Substitution.compare_canonical (canon substs)

(* Batched runs are compared modulo the population peak: a routed
   query's engine samples it only at the events it is fed. The expiry
   count must agree: every member's clock reaches each chunk's last
   timestamp, fed or advanced. *)
let invariant (m : Metrics.snapshot) =
  { m with Metrics.max_simultaneous_instances = 0 }

type observed = {
  o_matches : (int * int) list list;
  o_raw : (int * int) list list;
  o_metrics : Metrics.snapshot;
}

(* Feed [events] one at a time, or in chunks of [batch]. *)
let feed_in ~batch ~feed ~feed_batch events =
  match batch with
  | None -> Array.iter (fun e -> ignore (feed e)) events
  | Some b ->
      let n = Array.length events in
      let i = ref 0 in
      while !i < n do
        let len = min b (n - !i) in
        ignore (feed_batch (Array.sub events !i len));
        i := !i + len
      done

let observed (o : Engine.outcome) =
  {
    o_matches = canon o.Engine.matches;
    o_raw = canon_sorted o.Engine.raw;
    o_metrics = o.Engine.metrics;
  }

let observe ?(options = Engine.default_options) ~domains ~batch queries r =
  let options = { options with Engine.domains } in
  let t = Multi.create_mixed ~options queries in
  feed_in ~batch ~feed:(Multi.feed t) ~feed_batch:(Multi.feed_batch t)
    (Array.of_seq (Relation.to_seq r));
  ignore (Multi.close t);
  List.map (fun (name, o) -> (name, observed o)) (Multi.outcomes t)

(* The reference: one isolated executor per query over the whole feed. *)
let reference ?(options = Engine.default_options) ~batch queries r =
  let events = Array.of_seq (Relation.to_seq r) in
  List.map
    (fun (name, automaton, strategy) ->
      let exec = Executor.create ~options strategy automaton in
      feed_in ~batch ~feed:(Executor.feed exec)
        ~feed_batch:(Executor.feed_batch exec) events;
      ignore (Executor.close exec);
      let raw = Executor.emitted exec in
      let matches =
        Substitution.finalize ~policy:options.Engine.policy
          (Automaton.pattern automaton) raw
      in
      (name, observed { Engine.matches; raw; metrics = Executor.metrics exec }))
    queries

(* [exact_metrics] on the per-event path; batched delivery compares
   modulo the layout-variant counters. *)
let equivalent ~exact_metrics reference shared =
  List.length reference = List.length shared
  && List.for_all2
       (fun (n1, a) (n2, b) ->
         n1 = n2
         && a.o_matches = b.o_matches
         && a.o_raw = b.o_raw
         &&
         if exact_metrics then a.o_metrics = b.o_metrics
         else invariant a.o_metrics = invariant b.o_metrics)
       reference shared

let batch_grid = [ None; Some 1; Some 64; Some 4096 ]
let domain_grid = [ 1; 2; 4 ]

let check_all_layouts ?options name queries r =
  List.iter
    (fun batch ->
      let reference = reference ?options ~batch queries r in
      List.iter
        (fun domains ->
          let shared = observe ?options ~domains ~batch queries r in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d domains, batch %s" name domains
               (match batch with None -> "per-event" | Some b -> string_of_int b))
            true
            (equivalent ~exact_metrics:(batch = None) reference shared))
        domain_grid)
    batch_grid

(* ---- deterministic common-prefix fixture ---- *)

let schema = Random_workload.schema

let v = Variable.singleton

let label name l = Pattern.Spec.const name "L" Predicate.Eq (Value.Str l)

let mk ?(negations = []) ~within sets where =
  Automaton.of_pattern
    (Pattern.make_full_exn ~schema ~sets ~negations ~where ~within)

(* Five queries over the common two-set prefix a-then-b, one of them
   exactly the prefix; plus an unrelated query and a byte-identical
   re-registration. *)
let fixture_queries () =
  let prefix = [ [ v "p" ]; [ v "q" ] ] in
  let pw = [ label "p" "a"; label "q" "b" ] in
  let ender = mk ~within:12 prefix pw in
  let cont_c = mk ~within:12 (prefix @ [ [ v "r" ] ]) (pw @ [ label "r" "c" ]) in
  let cont_d = mk ~within:12 (prefix @ [ [ v "r" ] ]) (pw @ [ label "r" "d" ]) in
  let neg_shared =
    (* boundary 0: the guard arms inside the common prefix *)
    mk ~within:12 ~negations:[ (0, v "x") ]
      (prefix @ [ [ v "r" ] ])
      (pw @ [ label "r" "c"; label "x" "e" ])
  in
  let neg_merge =
    (* boundary 1: the guard arms where the queries diverge *)
    mk ~within:12 ~negations:[ (1, v "y") ]
      (prefix @ [ [ v "r" ] ])
      (pw @ [ label "r" "d"; label "y" "e" ])
  in
  let solo = mk ~within:12 [ [ v "m" ]; [ v "n" ] ] [ label "m" "c"; label "n" "d" ] in
  [
    ("pfx-end", ender, `Plain);
    ("pfx-c", cont_c, `Plain);
    ("pfx-d", cont_d, `Plain);
    ("pfx-neg-shared", neg_shared, `Plain);
    ("pfx-neg-merge", neg_merge, `Plain);
    ("solo", solo, `Plain);
    ("pfx-c-alias", cont_c, `Plain);
  ]

(* Labels chosen so every delicate path fires: kills at both guard
   boundaries (the "e" at 1 lands while an instance sits at the armed
   prefix state, the ones at 3 and 42 at the full-prefix state), matches
   for the continuations, a τ-expiry landing while instances sit at the
   full-prefix state (gap 2 → 40), and a tail that expires everything
   before close. *)
let fixture_relation =
  Relation.of_rows_exn schema
    (List.map
       (fun (l, ts) -> ([| Value.Int 1; Value.Str l; Value.Int 0 |], ts))
       [
         ("a", 0);
         ("e", 1);
         ("b", 2);
         ("e", 3);
         ("c", 4);
         ("d", 5);
         ("a", 7);
         ("b", 8);
         ("c", 10);
         ("a", 40);
         ("b", 41);
         ("e", 42);
         ("d", 44);
         ("b", 100);
       ])

let test_fixture_equivalence () =
  check_all_layouts "fixture" (fixture_queries ()) fixture_relation

let test_fixture_strong_filter () =
  (* Gated routing: with the strong filter on, non-routed events are
     never fed at all; metrics must still equal the independent runs
     (whose engines drop the same events via their own filter pass). *)
  let options = { Engine.default_options with Engine.filter = Event_filter.Strong } in
  check_all_layouts ~options "fixture+strong" (fixture_queries ()) fixture_relation

let test_fixture_sharing_engaged () =
  let t = Multi.create_mixed (fixture_queries ()) in
  (match Multi.shared_stats t with
  | [ stats ] ->
      Alcotest.(check (list string))
        "every plain query routed"
        (List.map (fun (n, _, _) -> n) (fixture_queries ()))
        stats.Shared_plan.st_routed;
      Alcotest.(check int) "nothing merged" 0 stats.Shared_plan.st_merged_queries;
      Alcotest.(check int) "nothing aliased" 0 stats.Shared_plan.st_aliased_queries;
      Alcotest.(check bool)
        "index holds atoms" true
        (stats.Shared_plan.st_index_atoms > 0)
  | l -> Alcotest.failf "expected one plan, got %d" (List.length l));
  ignore (Multi.close t)

let test_fixture_kill_and_expiry_exercised () =
  (* The fixture is only a good differential witness if the delicate
     paths actually run: both negation queries kill, and the ender emits
     at least one match surfaced by τ-expiry. *)
  let outcomes =
    Multi.run (List.map (fun (n, a, _) -> (n, a)) (fixture_queries ()))
      (Relation.to_seq fixture_relation)
  in
  let metrics name =
    (List.assoc name outcomes).Engine.metrics
  in
  Alcotest.(check bool)
    "shared-boundary guard killed" true
    ((metrics "pfx-neg-shared").Metrics.instances_killed >= 1);
  Alcotest.(check bool)
    "merge-boundary guard killed" true
    ((metrics "pfx-neg-merge").Metrics.instances_killed >= 1);
  Alcotest.(check bool)
    "ender matched" true
    ((metrics "pfx-end").Metrics.matches_emitted >= 1);
  Alcotest.(check bool)
    "expiry exercised" true
    ((metrics "pfx-end").Metrics.instances_expired >= 1)

(* ---- the clock: a row no query can bind closes a window ---- *)

(* (c) -> (d) within 8: C@2 and D@4 of id 1 complete a match whose
   window the row X@50 closes. No variable can bind X, so neither the
   strong filter nor the shared plan's routing lets the engine see it.
   The match must still come back from the X@50 chunk, under both
   strategies and both filters, through the shared plan and through a
   lone executor, and not wait for C@60, the query's next routed row. *)
let test_unrouted_row_closes_window () =
  let automaton =
    mk ~within:8
      [ [ v "c" ]; [ v "d" ] ]
      [
        label "c" "C";
        label "d" "D";
        Pattern.Spec.fields "c" "ID" Predicate.Eq "d" "ID";
      ]
  in
  let events =
    Array.of_seq
      (Relation.to_seq
         (Relation.of_rows_exn schema
            (List.map
               (fun (id, l, ts) ->
                 ([| Value.Int id; Value.Str l; Value.Int 0 |], ts))
               [ (1, "C", 2); (1, "D", 4); (9, "X", 50); (9, "C", 60) ])))
  in
  let chunks = [ Array.sub events 0 2; [| events.(2) |]; [| events.(3) |] ] in
  let per_chunk feed_batch =
    List.map (fun c -> List.length (feed_batch c)) chunks
  in
  List.iter
    (fun (strategy, filter) ->
      let options = { Engine.default_options with Engine.filter } in
      let name =
        Format.asprintf "%s, %a"
          (Executor.strategy_name strategy)
          Event_filter.pp_mode filter
      in
      let exec = Executor.create ~options strategy automaton in
      Alcotest.(check (list int))
        (name ^ ": executor emits in the X@50 chunk")
        [ 0; 1; 0 ]
        (per_chunk (Executor.feed_batch exec));
      let t = Multi.create_mixed ~options [ ("probe", automaton, strategy) ] in
      Alcotest.(check (list int))
        (name ^ ": shared plan emits in the X@50 chunk")
        [ 0; 1; 0 ]
        (per_chunk (fun c -> List.concat_map snd (Multi.feed_batch t c))))
    Event_filter.
      [
        (`Plain, No_filter);
        (`Plain, Strong);
        (`Auto, No_filter);
        (`Auto, Strong);
      ]

(* ---- random workloads ---- *)

(* A random family sharing a first event set (same label constant, same
   τ), so most events route to several queries at once; plus a fully
   random pattern under a rotating strategy and a byte-identical
   re-registration of the first family member. *)
let random_queries rng =
  let labels = [ "a"; "b"; "c"; "d" ] in
  let l0 = Prng.pick rng labels in
  let within = 6 + Prng.int rng 10 in
  let family_size = 2 + Prng.int rng 3 in
  let member i =
    let cont = Prng.pick rng labels in
    let sets = [ [ v "p" ]; [ v "s" ] ] in
    let where = [ label "p" l0; label "s" cont ] in
    if Prng.chance rng 0.3 then
      ( Printf.sprintf "fam%d" i,
        mk ~negations:[ (0, v "x") ] ~within sets
          (where @ [ label "x" (Prng.pick rng labels) ]),
        `Plain )
    else (Printf.sprintf "fam%d" i, mk ~within sets where, `Plain)
  in
  let family = List.init family_size member in
  let ender = ("fam-end", mk ~within [ [ v "p" ] ] [ label "p" l0 ], `Plain) in
  let rand_strategy = Prng.pick rng [ `Plain; `Auto ] in
  let rand =
    ( "rand",
      Automaton.of_pattern
        (Random_workload.pattern rng Random_workload.default_pattern),
      rand_strategy )
  in
  let _, a0, s0 = List.hd family in
  family @ [ ender; rand; ("fam0-alias", a0, s0) ]

let shared_equals_independent =
  QCheck.Test.make ~count:25 ~name:"shared multi = independent multi"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let queries = random_queries rng in
      let r = Random_workload.relation rng Random_workload.default_relation in
      List.for_all
        (fun batch ->
          let reference = reference ~batch queries r in
          List.for_all
            (fun domains ->
              equivalent ~exact_metrics:(batch = None) reference
                (observe ~domains ~batch queries r))
            domain_grid)
        batch_grid)

let shared_equals_independent_strong =
  QCheck.Test.make ~count:15 ~name:"shared multi = independent multi (strong filter)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Prng.create (Int64.of_int seed) in
      let queries = random_queries rng in
      let r = Random_workload.relation rng Random_workload.default_relation in
      let options =
        { Engine.default_options with Engine.filter = Event_filter.Strong }
      in
      List.for_all
        (fun batch ->
          equivalent ~exact_metrics:(batch = None)
            (reference ~options ~batch queries r)
            (observe ~options ~domains:1 ~batch queries r))
        batch_grid)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ shared_equals_independent; shared_equals_independent_strong ]
  @ [
      Alcotest.test_case "fixture: shared = independent" `Quick
        test_fixture_equivalence;
      Alcotest.test_case "fixture: shared = independent under strong filter"
        `Quick test_fixture_strong_filter;
      Alcotest.test_case "fixture: sharing engaged" `Quick
        test_fixture_sharing_engaged;
      Alcotest.test_case "fixture: kills and expiry exercised" `Quick
        test_fixture_kill_and_expiry_exercised;
      Alcotest.test_case "an unrouted row closes a window" `Quick
        test_unrouted_row_closes_window;
    ]
