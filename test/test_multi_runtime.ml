(* Runtime query add/remove on a live {!Multi}. The load-bearing
   properties (the server depends on them): after [Multi.unregister],
   the surviving queries' matches, raw emissions and metrics — including
   [instances_expired] — are exactly those of a fresh Multi built
   without the removed query and fed the same stream; and the removed
   query's returned outcome is that of an offline run over the events
   fed before its removal. Checked on the shared (routed) backend and
   the independent backend, over a deterministic fixture with
   byte-identical registrations and random workloads, with the removal
   point swept across the stream. *)

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
let run_with_unregister ?(options = Engine.default_options) ~shared ~victim
    ~at queries events =
  let t = Multi.create_mixed ~options ~shared queries in
  let removed = ref None in
  Array.iteri
    (fun i e ->
      if i = at then removed := Some (Multi.unregister t victim);
      ignore (Multi.feed t e))
    events;
  if !removed = None then removed := Some (Multi.unregister t victim);
  ignore (Multi.close t);
  (observe_outcomes (Multi.outcomes t), Option.get !removed)

let run_plain ?(options = Engine.default_options) ~shared queries events =
  let t = Multi.create_mixed ~options ~shared queries in
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

let test_fixture_survivors shared () =
  List.iter
    (fun victim ->
      List.iter
        (fun at ->
          let queries = fixture_queries () in
          let live, _ =
            run_with_unregister ~shared ~victim ~at queries fixture_events
          in
          let fresh = run_plain ~shared (without victim queries) fixture_events in
          check_observed
            (Printf.sprintf "victim %s at %d (shared=%b)" victim at shared)
            fresh live)
        (* before anything; mid-prefix instances alive; after expiries *)
        [ 0; 8; 12 ])
    fixture_victims

let test_fixture_expiry_exercised () =
  (* The equality above only proves something about [instances_expired]
     if survivors actually expire instances after the removal point. *)
  let queries = fixture_queries () in
  let live, _ =
    run_with_unregister ~shared:true ~victim:"pfx-c" ~at:8 queries
      fixture_events
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
          let _, out =
            run_with_unregister ~shared:true ~victim ~at queries fixture_events
          in
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

let test_register_before_feed_shares () =
  (* Registering before the first event rebuilds the plan: same results
     and the same routing as creation-time registration. *)
  let queries = fixture_queries () in
  let t = Multi.create_mixed [ List.hd queries ] in
  List.iter (Multi.register t) (List.tl queries);
  Array.iter (fun e -> ignore (Multi.feed t e)) fixture_events;
  ignore (Multi.close t);
  let live = observe_outcomes (Multi.outcomes t) in
  let fresh = run_plain ~shared:true queries fixture_events in
  check_observed "register-then-feed" fresh live;
  match Multi.shared_stats t with
  | [ stats ] ->
      Alcotest.(check (list string))
        "every plain query routed after rebuild"
        (List.map (fun (n, _, _) -> n) queries)
        stats.Shared_plan.st_routed;
      Alcotest.(check bool) "index holds atoms after rebuild" true
        (stats.Shared_plan.st_index_atoms > 0);
      Alcotest.(check int) "nothing merged after rebuild" 0
        stats.Shared_plan.st_merged_queries;
      Alcotest.(check int) "nothing aliased after rebuild" 0
        stats.Shared_plan.st_aliased_queries
  | l -> Alcotest.failf "expected one plan, got %d" (List.length l)

let test_register_mid_stream_extra () =
  (* A query registered after events have been fed must not observe
     them: it runs beside the plan and equals an offline run over the
     suffix. *)
  let at = 6 in
  let queries = fixture_queries () in
  let t = Multi.create_mixed [ List.hd queries ] in
  let late_name, late_auto, late_strat = List.nth queries 1 in
  Array.iteri
    (fun i e ->
      if i = at then Multi.register t (late_name, late_auto, late_strat);
      ignore (Multi.feed t e))
    fixture_events;
  ignore (Multi.close t);
  let outs = Multi.outcomes t in
  Alcotest.(check (list string))
    "registration order kept"
    [ "pfx-end"; late_name ]
    (List.map fst outs);
  let suffix = Array.sub fixture_events at (Array.length fixture_events - at) in
  let offline =
    List.assoc late_name
      (Multi.run [ (late_name, late_auto) ] (Array.to_seq suffix))
  in
  let got = List.assoc late_name outs in
  Alcotest.(check bool) "late query sees only the suffix" true
    (canon offline.Engine.matches = canon got.Engine.matches
    && canon_sorted offline.Engine.raw = canon_sorted got.Engine.raw);
  (* ... and can itself be re-removed. *)
  let t2 = Multi.create_mixed [ List.hd queries ] in
  ignore (Multi.feed t2 fixture_events.(0));
  Multi.register t2 (late_name, late_auto, late_strat);
  ignore (Multi.unregister t2 late_name);
  Alcotest.(check (list string)) "extra removed" [ "pfx-end" ] (Multi.names t2);
  ignore (Multi.close t2)

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
  let par_options = { Engine.default_options with Engine.domains = 2 } in
  let tp = Multi.create_mixed ~options:par_options queries in
  Alcotest.check_raises "parallel register"
    (Invalid_argument
       "Multi.register: domain-parallel query sets are fixed at creation")
    (fun () ->
      Multi.register tp ("extra", (fun (_, a, _) -> a) (List.hd queries), `Plain));
  Alcotest.check_raises "parallel unregister"
    (Invalid_argument
       "Multi.unregister: domain-parallel query sets are fixed at creation")
    (fun () -> ignore (Multi.unregister tp "solo"));
  ignore (Multi.close tp)

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
    QCheck.(triple (int_bound 100_000) (int_bound 1000) bool)
    (fun (seed, pick, shared) ->
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
      let live, out = run_with_unregister ~shared ~victim ~at queries events in
      let fresh = run_plain ~shared (without victim queries) events in
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

let suite =
  List.map QCheck_alcotest.to_alcotest [ unregister_equals_fresh ]
  @ [
      Alcotest.test_case "fixture: survivors = fresh (shared)" `Quick
        (test_fixture_survivors true);
      Alcotest.test_case "fixture: survivors = fresh (independent)" `Quick
        (test_fixture_survivors false);
      Alcotest.test_case "fixture: survivor expiries exercised" `Quick
        test_fixture_expiry_exercised;
      Alcotest.test_case "retiree outcome = offline prefix run" `Quick
        test_retiree_outcome;
      Alcotest.test_case "register before feed rebuilds the plan" `Quick
        test_register_before_feed_shares;
      Alcotest.test_case "register mid-stream runs beside the plan" `Quick
        test_register_mid_stream_extra;
      Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
    ]
