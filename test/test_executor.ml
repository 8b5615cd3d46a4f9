(* The unified Executor interface: all five strategies behind one
   signature, producing identical finalized matches.

   Dataset discipline matters here. The strategies are only equivalent
   where their documented semantic gaps don't bite: the naive oracle
   also reports non-greedy variants the engine's skip-till-next-match
   strategy never reaches, and the brute-force chains miss matches whose
   group-variable events interleave other bindings. The relations below
   use orderly per-entity flows (C < P* < D < B, one B per window) so
   every maximal substitution is greedily reachable and the finalized
   sets coincide — which is exactly the regime the equivalence claim is
   about. *)

open Ses_event
open Helpers

let () = Ses_baseline.Brute_force.register ()

let all_strategies = Ses_core.Executor.strategies

(* Two patients, strictly sequential per-patient flows. *)
let orderly_chemo =
  let row id l ts = ([| Value.Int id; Value.Str l; Value.Float 0.; Value.Str "u" |], ts) in
  Relation.of_rows_exn chemo_schema
    [
      row 1 "C" 10;
      row 1 "P" 20;
      row 1 "P" 30;
      row 1 "D" 40;
      row 1 "B" 50;
      row 2 "C" 100;
      row 2 "P" 110;
      row 2 "P" 120;
      row 2 "D" 130;
      row 2 "B" 140;
    ]

(* Exactly three same-type events plus one B — the regime where P3/P4
   have the same 6 matches under every strategy. *)
let three_p_one_b =
  Relation.of_rows_exn Ses_gen.Chemo.schema
    (List.map
       (fun (l, ts) -> ([| Value.Int 1; Value.Str l; Value.Float 0.; Value.Str "u" |], ts))
       [ ("P", 10); ("P", 20); ("P", 30); ("B", 40) ])

let matches_of strategy pattern relation =
  let automaton = Ses_core.Automaton.of_pattern pattern in
  let outcome = Ses_core.Executor.run_relation strategy automaton relation in
  substs_repr pattern outcome.Ses_core.Engine.matches

let check_equivalent ~expected_count pattern relation () =
  let reference = matches_of `Plain pattern relation in
  Alcotest.(check int) "plain match count" expected_count (List.length reference);
  List.iter
    (fun strategy ->
      Alcotest.(check (list (list (pair string int))))
        (Ses_core.Executor.strategy_name strategy)
        reference
        (matches_of strategy pattern relation))
    all_strategies

let test_q1_equivalence =
  check_equivalent ~expected_count:2 Ses_harness.Queries.q1 orderly_chemo

let test_p3_equivalence =
  check_equivalent ~expected_count:6 Ses_harness.Queries.p3 three_p_one_b

let test_p4_equivalence =
  check_equivalent ~expected_count:6 Ses_harness.Queries.p4 three_p_one_b

(* The push-based contract itself. *)

let mk_event seq ts l =
  Event.make ~seq ~ts [| Value.Int 1; Value.Str l; Value.Float 0.; Value.Str "u" |]

let test_feed_out_of_order () =
  List.iter
    (fun strategy ->
      let exec =
        Ses_core.Executor.create strategy
          (Ses_core.Automaton.of_pattern Ses_harness.Queries.q1)
      in
      ignore (Ses_core.Executor.feed exec (mk_event 0 100 "C"));
      Alcotest.check_raises
        (Ses_core.Executor.strategy_name strategy ^ " rejects out-of-order")
        (Invalid_argument
           (match strategy with
           | `Naive -> "Naive.feed: events out of chronological order"
           | _ -> "Engine.feed: events out of chronological order"))
        (fun () -> ignore (Ses_core.Executor.feed exec (mk_event 1 50 "P"))))
    all_strategies

let test_close_idempotent () =
  List.iter
    (fun strategy ->
      let exec =
        Ses_core.Executor.create strategy
          (Ses_core.Automaton.of_pattern Ses_harness.Queries.p4)
      in
      List.iteri
        (fun i (l, ts) -> ignore (Ses_core.Executor.feed exec (mk_event i ts l)))
        [ ("P", 10); ("P", 20); ("P", 30); ("B", 40) ];
      ignore (Ses_core.Executor.close exec);
      let emitted_once = Ses_core.Executor.emitted exec in
      Alcotest.(check (list pass))
        (Ses_core.Executor.strategy_name strategy ^ " close is idempotent")
        [] (Ses_core.Executor.close exec);
      Alcotest.(check int)
        (Ses_core.Executor.strategy_name strategy ^ " emitted is stable")
        (List.length emitted_once)
        (List.length (Ses_core.Executor.emitted exec)))
    all_strategies

let test_strategy_names () =
  List.iter
    (fun strategy ->
      let name = Ses_core.Executor.strategy_name strategy in
      match Ses_core.Executor.strategy_of_string name with
      | Ok s ->
          Alcotest.(check string)
            "round-trip" name
            (Ses_core.Executor.strategy_name s)
      | Error msg -> Alcotest.fail msg)
    all_strategies;
  (match Ses_core.Executor.strategy_of_string "Brute-Force" with
  | Ok s ->
      Alcotest.(check string) "case-insensitive" "brute-force"
        (Ses_core.Executor.strategy_name s)
  | Error msg -> Alcotest.fail msg);
  (* one name per strategy: no aliases *)
  List.iter
    (fun name ->
      match Ses_core.Executor.strategy_of_string name with
      | Ok _ -> Alcotest.failf "strategy %S accepted" name
      | Error _ -> ())
    [ "bogus"; "engine"; "brute_force"; "bf" ];
  List.iter
    (fun strategy ->
      let (module E : Ses_core.Executor.EXECUTOR) =
        Ses_core.Executor.of_strategy strategy
      in
      Alcotest.(check string)
        "module name matches strategy"
        (Ses_core.Executor.strategy_name strategy)
        E.name)
    all_strategies

(* Minimal substring check without extra deps. *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Metrics flow through the shared interface uniformly. *)
let test_metrics_uniform () =
  List.iter
    (fun strategy ->
      let automaton = Ses_core.Automaton.of_pattern Ses_harness.Queries.q1 in
      let outcome =
        Ses_core.Executor.run_relation strategy automaton orderly_chemo
      in
      let m = outcome.Ses_core.Engine.metrics in
      let n = Relation.cardinality orderly_chemo in
      (* Brute force accounts per chain (the paper's Sec. 5.2 bookkeeping),
         so its counters are a multiple of the input size. *)
      (match strategy with
      | `Brute_force ->
          Alcotest.(check bool)
            "brute-force events_seen is a positive multiple of the input"
            true
            (m.Ses_core.Metrics.events_seen > 0
            && m.Ses_core.Metrics.events_seen mod n = 0)
      | _ ->
          Alcotest.(check int)
            (Ses_core.Executor.strategy_name strategy ^ " events_seen")
            n m.Ses_core.Metrics.events_seen);
      let json = Ses_core.Metrics.to_json m in
      Alcotest.(check bool)
        "json mentions events_seen" true
        (String.length json > 0
        && String.sub json 0 1 = "{"
        && contains json "\"events_seen\""))
    all_strategies

(* Mixed-strategy Multi: one registration per strategy over the same
   query must agree. *)
let test_multi_mixed () =
  let automaton = Ses_core.Automaton.of_pattern Ses_harness.Queries.q1 in
  let multi =
    Ses_core.Multi.create_mixed
      (List.map
         (fun s -> (Ses_core.Executor.strategy_name s, automaton, s))
         all_strategies)
  in
  Relation.iter (fun e -> ignore (Ses_core.Multi.feed multi e)) orderly_chemo;
  ignore (Ses_core.Multi.close multi);
  let outcomes = Ses_core.Multi.outcomes multi in
  let reference = matches_of `Plain Ses_harness.Queries.q1 orderly_chemo in
  List.iter
    (fun (name, outcome) ->
      Alcotest.(check (list (list (pair string int))))
        ("multi " ^ name) reference
        (substs_repr Ses_harness.Queries.q1 outcome.Ses_core.Engine.matches))
    outcomes

let suite =
  [
    Alcotest.test_case "q1: five strategies agree" `Quick test_q1_equivalence;
    Alcotest.test_case "p3: five strategies agree" `Quick test_p3_equivalence;
    Alcotest.test_case "p4: five strategies agree" `Quick test_p4_equivalence;
    Alcotest.test_case "feed rejects out-of-order" `Quick test_feed_out_of_order;
    Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
    Alcotest.test_case "strategy names round-trip" `Quick test_strategy_names;
    Alcotest.test_case "metrics are uniform" `Quick test_metrics_uniform;
    Alcotest.test_case "mixed-strategy multi agrees" `Quick test_multi_mixed;
  ]
