(* Runtime query add/remove on a live {!Multi}. The load-bearing
   properties (the server depends on them): after [Multi.unregister],
   the surviving queries' matches, raw emissions and metrics — including
   [instances_expired] — are exactly those of a fresh Multi built
   without the removed query and fed the same stream; the removed
   query's returned outcome is that of an offline run over the events
   fed before its removal; and a query registered mid-stream is routed
   like any other and equals an offline run over the events fed after
   it. Checked over a deterministic fixture with byte-identical
   registrations and over random workloads, with the registration and
   removal points swept across the stream. *)

open Ses_event
open Ses_pattern
open Ses_core
open Ses_gen

let canon substs = List.map Substitution.canonical substs
let canon_sorted substs =
  List.sort Substitution.compare_canonical (canon substs)

type observed = {
  o_matches : (int * int) list list;
  o_raw : (int * int) list list;
  o_metrics : Metrics.snapshot;
}

let observe_outcomes outs =
  List.map
    (fun (name, (o : Engine.outcome)) ->
      ( name,
        {
          o_matches = canon o.Engine.matches;
          o_raw = canon_sorted o.Engine.raw;
          o_metrics = o.Engine.metrics;
        } ))
    outs

(* Feed [events] one at a time, removing [victim] after [at] events. *)
let run_with_unregister ?(options = Engine.default_options) ~victim ~at
    queries events =
  let t = Multi.create_mixed ~options queries in
  let removed = ref None in
  Array.iteri
    (fun i e ->
      if i = at then removed := Some (Multi.unregister t victim);
      ignore (Multi.feed t e))
    events;
  if !removed = None then removed := Some (Multi.unregister t victim);
  ignore (Multi.close t);
  (observe_outcomes (Multi.outcomes t), Option.get !removed)

let run_plain ?(options = Engine.default_options) queries events =
  let t = Multi.create_mixed ~options queries in
  Array.iter (fun e -> ignore (Multi.feed t e)) events;
  ignore (Multi.close t);
  observe_outcomes (Multi.outcomes t)

let check_observed name expected got =
  Alcotest.(check int)
    (name ^ ": query count") (List.length expected) (List.length got);
  List.iter2
    (fun (n1, a) (n2, b) ->
      Alcotest.(check string) (name ^ ": name") n1 n2;
      Alcotest.(check bool) (name ^ ": " ^ n1 ^ " matches") true
        (a.o_matches = b.o_matches);
      Alcotest.(check bool) (name ^ ": " ^ n1 ^ " raw") true
        (a.o_raw = b.o_raw);
      Alcotest.(check bool) (name ^ ": " ^ n1 ^ " metrics") true
        (a.o_metrics = b.o_metrics))
    expected got

(* ---- deterministic fixture (as the shared-equiv suite) ---- *)

let schema = Random_workload.schema
let v = Variable.singleton
let label name l = Pattern.Spec.const name "L" Predicate.Eq (Value.Str l)

let mk ?(negations = []) ~within sets where =
  Automaton.of_pattern
    (Pattern.make_full_exn ~schema ~sets ~negations ~where ~within)

let fixture_queries () =
  let prefix = [ [ v "p" ]; [ v "q" ] ] in
  let pw = [ label "p" "a"; label "q" "b" ] in
  let ender = mk ~within:12 prefix pw in
  let cont_c = mk ~within:12 (prefix @ [ [ v "r" ] ]) (pw @ [ label "r" "c" ]) in
  let cont_d = mk ~within:12 (prefix @ [ [ v "r" ] ]) (pw @ [ label "r" "d" ]) in
  let neg_merge =
    mk ~within:12 ~negations:[ (1, v "y") ]
      (prefix @ [ [ v "r" ] ])
      (pw @ [ label "r" "d"; label "y" "e" ])
  in
  let solo =
    mk ~within:12 [ [ v "m" ]; [ v "n" ] ] [ label "m" "c"; label "n" "d" ]
  in
  [
    ("pfx-end", ender, `Plain);
    ("pfx-c", cont_c, `Plain);
    ("pfx-d", cont_d, `Plain);
    ("pfx-neg-merge", neg_merge, `Plain);
    ("solo", solo, `Plain);
    ("pfx-c-alias", cont_c, `Plain);
  ]

let fixture_events =
  Array.of_seq
    (Relation.to_seq
       (Relation.of_rows_exn schema
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
             ])))

let fixture_victims =
  [ "pfx-end"; "pfx-c"; "pfx-d"; "pfx-neg-merge"; "solo"; "pfx-c-alias" ]

let without victim queries =
  List.filter (fun (n, _, _) -> n <> victim) queries

let test_fixture_survivors () =
  List.iter
    (fun victim ->
      List.iter
        (fun at ->
          let queries = fixture_queries () in
          let live, _ = run_with_unregister ~victim ~at queries fixture_events in
          let fresh = run_plain (without victim queries) fixture_events in
          check_observed
            (Printf.sprintf "victim %s at %d" victim at)
            fresh live)
        (* before anything; mid-prefix instances alive; after expiries *)
        [ 0; 8; 12 ])
    fixture_victims

let test_fixture_expiry_exercised () =
  (* The equality above only proves something about [instances_expired]
     if survivors actually expire instances after the removal point. *)
  let queries = fixture_queries () in
  let live, _ =
    run_with_unregister ~victim:"pfx-c" ~at:8 queries fixture_events
  in
  let m = (List.assoc "pfx-end" live).o_metrics in
  Alcotest.(check bool) "survivor expiries" true
    (m.Metrics.instances_expired >= 1)

let test_retiree_outcome () =
  (* The removed query's returned outcome = running it alone over the
     prefix of the stream fed so far, closed there. *)
  List.iter
    (fun victim ->
      List.iter
        (fun at ->
          let queries = fixture_queries () in
          let _, out = run_with_unregister ~victim ~at queries fixture_events in
          let offline =
            Multi.run
              (List.filter_map
                 (fun (n, a, _) -> if n = victim then Some (n, a) else None)
                 queries)
              (Array.to_seq (Array.sub fixture_events 0 at))
          in
          let expected = List.assoc victim offline in
          Alcotest.(check bool)
            (Printf.sprintf "retiree %s at %d matches" victim at)
            true
            (canon expected.Engine.matches = canon out.Engine.matches);
          Alcotest.(check bool)
            (Printf.sprintf "retiree %s at %d raw" victim at)
            true
            (canon_sorted expected.Engine.raw = canon_sorted out.Engine.raw))
        [ 0; 8; 12 ])
    fixture_victims

let test_registered_before_feed_routed () =
  (* Registering one query at a time before the first event gives the
     same results and the same routing as creation-time registration. *)
  let queries = fixture_queries () in
  let t = Multi.create_mixed [ List.hd queries ] in
  List.iter (Multi.register t) (List.tl queries);
  Array.iter (fun e -> ignore (Multi.feed t e)) fixture_events;
  ignore (Multi.close t);
  let live = observe_outcomes (Multi.outcomes t) in
  let fresh = run_plain queries fixture_events in
  check_observed "register-then-feed" fresh live;
  match Multi.shared_stats t with
  | [ stats ] ->
      Alcotest.(check (list string))
        "every plain query routed"
        (List.map (fun (n, _, _) -> n) queries)
        stats.Shared_plan.st_routed;
      Alcotest.(check bool) "index holds atoms" true
        (stats.Shared_plan.st_index_atoms > 0);
      Alcotest.(check int) "nothing merged" 0
        stats.Shared_plan.st_merged_queries;
      Alcotest.(check int) "nothing aliased" 0
        stats.Shared_plan.st_aliased_queries
  | l -> Alcotest.failf "expected one plan, got %d" (List.length l)

let the_plan t =
  match Multi.shared_stats t with
  | [ stats ] -> stats
  | l -> Alcotest.failf "expected one plan, got %d" (List.length l)

(* One isolated executor fed [events] one at a time, finalized: the
   per-event reference for a single query. *)
let offline (_, automaton, strategy) events =
  let exec = Executor.create strategy automaton in
  Array.iter (fun e -> ignore (Executor.feed exec e)) events;
  ignore (Executor.close exec);
  let raw = Executor.emitted exec in
  {
    o_matches =
      canon
        (Substitution.finalize ~policy:Engine.default_options.Engine.policy
           (Automaton.pattern automaton) raw);
    o_raw = canon_sorted raw;
    o_metrics = Executor.metrics exec;
  }

let test_register_mid_stream_routed () =
  (* A query registered after events have been fed is routed like any
     other, and must not observe those events: its matches, raw
     emissions and metrics equal an isolated run over the suffix. *)
  let at = 6 in
  let queries = fixture_queries () in
  let t = Multi.create_mixed [ List.hd queries ] in
  let late = List.nth queries 1 in
  let late_name, _, _ = late in
  Array.iteri
    (fun i e ->
      if i = at then Multi.register t late;
      ignore (Multi.feed t e))
    fixture_events;
  Alcotest.(check (list string))
    "late query routed" [ "pfx-end"; late_name ]
    (the_plan t).Shared_plan.st_routed;
  ignore (Multi.close t);
  let outs = observe_outcomes (Multi.outcomes t) in
  Alcotest.(check (list string))
    "registration order kept"
    [ "pfx-end"; late_name ]
    (List.map fst outs);
  let suffix = Array.sub fixture_events at (Array.length fixture_events - at) in
  check_observed "late query = isolated run over the suffix"
    [ (late_name, offline late suffix) ]
    [ (late_name, List.assoc late_name outs) ];
  (* ... and can itself be re-removed. *)
  let t2 = Multi.create_mixed [ List.hd queries ] in
  ignore (Multi.feed t2 fixture_events.(0));
  Multi.register t2 late;
  ignore (Multi.unregister t2 late_name);
  Alcotest.(check (list string))
    "late query removed" [ "pfx-end" ] (Multi.names t2);
  ignore (Multi.close t2)

let test_retire_frees_index_slot () =
  (* Two queries over disjoint labels: once one is retired, the index
     holds exactly the survivor's atoms, and its evaluation count stays
     cumulative across the rebuild. *)
  let two name l1 l2 =
    ( name,
      mk ~within:12 [ [ v "m" ]; [ v "n" ] ] [ label "m" l1; label "n" l2 ],
      `Plain )
  in
  let ab = two "ab" "a" "b" and cd = two "cd" "c" "d" in
  let t = Multi.create_mixed [ ab; cd ] in
  ignore (Multi.feed t fixture_events.(0));
  let before = (the_plan t).Shared_plan.st_index_evaluated in
  ignore (Multi.unregister t "cd");
  ignore (Multi.feed t fixture_events.(1));
  let after = the_plan t in
  let alone = the_plan (Multi.create_mixed [ ab ]) in
  Alcotest.(check int) "index atoms = the survivor's alone"
    alone.Shared_plan.st_index_atoms after.Shared_plan.st_index_atoms;
  Alcotest.(check (list string)) "only the survivor routed" [ "ab" ]
    after.Shared_plan.st_routed;
  Alcotest.(check bool) "evaluations stay cumulative" true
    (after.Shared_plan.st_index_evaluated > before);
  ignore (Multi.close t)

let test_invalid_arguments () =
  let queries = fixture_queries () in
  let t = Multi.create_mixed queries in
  Alcotest.check_raises "unknown name"
    (Invalid_argument "Multi.unregister: unknown query nope") (fun () ->
      ignore (Multi.unregister t "nope"));
  Alcotest.check_raises "duplicate register"
    (Invalid_argument "Multi.register: duplicate query name solo") (fun () ->
      Multi.register t ("solo", (fun (_, a, _) -> a) (List.hd queries), `Plain));
  Alcotest.check_raises "empty register"
    (Invalid_argument "Multi.register: empty query name") (fun () ->
      Multi.register t ("", (fun (_, a, _) -> a) (List.hd queries), `Plain));
  ignore (Multi.close t);
  (* a name freed by unregister can be reused *)
  let t2 = Multi.create_mixed queries in
  ignore (Multi.unregister t2 "solo");
  Multi.register t2 ("solo", (fun (_, a, _) -> a) (List.hd queries), `Plain);
  Alcotest.(check int) "reuse after unregister" (List.length queries)
    (List.length (Multi.names t2));
  ignore (Multi.close t2);
  (* a closed query set takes no query, retires none and is fed nothing *)
  Alcotest.check_raises "register after close"
    (Invalid_argument "Multi.register: query set is closed") (fun () ->
      Multi.register t2 ("extra", (fun (_, a, _) -> a) (List.hd queries), `Plain));
  Alcotest.check_raises "unregister after close"
    (Invalid_argument "Multi.unregister: query set is closed") (fun () ->
      ignore (Multi.unregister t2 "solo"));
  Alcotest.check_raises "feed after close"
    (Invalid_argument "Multi.feed: query set is closed") (fun () ->
      ignore (Multi.feed t2 fixture_events.(0)));
  Alcotest.check_raises "feed_batch after close"
    (Invalid_argument "Multi.feed_batch: query set is closed") (fun () ->
      ignore (Multi.feed_batch t2 [| fixture_events.(0) |]));
  Alcotest.(check int) "a second close flushes nothing" 0
    (List.length (Multi.close t2))

(* ---- random differential ---- *)

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
  let _, a0, s0 = List.hd family in
  family @ [ ender; ("fam0-alias", a0, s0) ]

(* The victim is any registration — the byte-identical [fam0-alias]
   included; its returned outcome must equal an offline plain run over
   the events fed before its removal, close-time flush included. *)
let unregister_equals_fresh =
  QCheck.Test.make ~count:30
    ~name:"unregister: survivors = fresh multi without the victim"
    QCheck.(pair (int_bound 100_000) (int_bound 1000))
    (fun (seed, pick) ->
      let rng = Prng.create (Int64.of_int seed) in
      let queries = random_queries rng in
      let events =
        Array.of_seq
          (Relation.to_seq
             (Random_workload.relation rng Random_workload.default_relation))
      in
      let victim =
        let n, _, _ = List.nth queries (pick mod List.length queries) in
        n
      in
      let at = Prng.int rng (Array.length events + 1) in
      let live, out = run_with_unregister ~victim ~at queries events in
      let fresh = run_plain (without victim queries) events in
      let offline =
        let _, automaton, _ = List.find (fun (n, _, _) -> n = victim) queries in
        Executor.run `Plain automaton (Array.to_seq (Array.sub events 0 at))
      in
      canon offline.Engine.matches = canon out.Engine.matches
      && canon_sorted offline.Engine.raw = canon_sorted out.Engine.raw
      && List.length live = List.length fresh
      && List.for_all2
           (fun (n1, a) (n2, b) ->
             n1 = n2
             && a.o_matches = b.o_matches
             && a.o_raw = b.o_raw
             && a.o_metrics = b.o_metrics)
           fresh live)

(* Queries join and leave at random chunk boundaries while the stream
   is fed in chunks of 1–64 events. Each query's outcome — returned by
   [unregister], or read at the end of the stream — must equal an
   isolated [Executor.run] over exactly the events fed while it was
   registered: matches in order, the raw multiset, and the metrics
   modulo the two layout-variant counters (the chunkings differ). Late
   members' metrics count from their registration, so this checks the
   plan's per-member compensation. *)
let runtime_registration_differential =
  let invariant (m : Metrics.snapshot) =
    { m with Metrics.max_simultaneous_instances = 0; instances_expired = 0 }
  in
  QCheck.Test.make ~count:40
    ~name:"runtime register/unregister = isolated runs over each lifetime"
    QCheck.(pair (int_bound 100_000) bool)
    (fun (seed, strong) ->
      let rng = Prng.create (Int64.of_int seed) in
      let options =
        if strong then
          { Engine.default_options with Engine.filter = Event_filter.Strong }
        else Engine.default_options
      in
      let events =
        Array.of_seq
          (Relation.to_seq
             (Random_workload.relation rng
                { Random_workload.default_relation with n_events = 300 }))
      in
      let n = Array.length events in
      let pool =
        List.init 6 (fun i ->
            ( Printf.sprintf "q%d" i,
              Automaton.of_pattern
                (Random_workload.pattern rng Random_workload.default_pattern),
              Prng.pick rng [ `Plain; `Auto ] ))
      in
      let t = Multi.create_mixed ~options [] in
      let live = ref [] (* name -> first event index *) and lifetimes = ref [] in
      let pos = ref 0 in
      while !pos < n do
        List.iter
          (fun ((name, _, _) as q) ->
            if Prng.chance rng 0.2 then
              match List.assoc_opt name !live with
              | None ->
                  Multi.register t q;
                  live := (name, !pos) :: !live
              | Some from ->
                  let o = Multi.unregister t name in
                  lifetimes := (q, from, !pos, o) :: !lifetimes;
                  live := List.remove_assoc name !live)
          pool;
        let len = min (1 + Prng.int rng 64) (n - !pos) in
        ignore (Multi.feed_batch t (Array.sub events !pos len));
        pos := !pos + len
      done;
      ignore (Multi.close t);
      let at_end = Multi.outcomes t in
      List.iter
        (fun ((name, _, _) as q) ->
          match List.assoc_opt name !live with
          | None -> ()
          | Some from ->
              lifetimes := (q, from, n, List.assoc name at_end) :: !lifetimes)
        pool;
      List.for_all
        (fun ((_, automaton, strategy), from, until, (got : Engine.outcome)) ->
          let expected =
            Executor.run ~options strategy automaton
              (Array.to_seq (Array.sub events from (until - from)))
          in
          canon expected.Engine.matches = canon got.Engine.matches
          && canon_sorted expected.Engine.raw = canon_sorted got.Engine.raw
          && invariant expected.Engine.metrics = invariant got.Engine.metrics)
        !lifetimes)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ unregister_equals_fresh; runtime_registration_differential ]
  @ [
      Alcotest.test_case "fixture: survivors = fresh (shared)" `Quick
        test_fixture_survivors;
      Alcotest.test_case "fixture: survivor expiries exercised" `Quick
        test_fixture_expiry_exercised;
      Alcotest.test_case "retiree outcome = offline prefix run" `Quick
        test_retiree_outcome;
      Alcotest.test_case "registered before feed is routed" `Quick
        test_registered_before_feed_routed;
      Alcotest.test_case "register mid-stream is routed and exact" `Quick
        test_register_mid_stream_routed;
      Alcotest.test_case "retiring frees the index slot" `Quick
        test_retire_frees_index_slot;
      Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
    ]
