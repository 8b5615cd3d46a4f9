(* The streaming CSV source: parity with the materialized reader, error
   reporting with row numbers, ordering enforcement, and the store-side
   filter pushdown — including the end-to-end guarantee that a streamed
   query never builds a Relation.t yet finds the same matches. *)

open Ses_event

let write_tmp content =
  let path = Filename.temp_file "ses_test" ".csv" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let with_tmp content f =
  let path = write_tmp content in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let header = "ID:int,L:string,V:float,U:string,T\n"

let orderly_csv =
  header
  ^ String.concat "\n"
      [
        "1,C,0,u,10";
        "1,P,0,u,20";
        "1,P,0,u,30";
        "1,D,0,u,40";
        "1,B,0,u,50";
        "2,C,0,u,100";
        "2,P,0,u,110";
        "2,P,0,u,120";
        "2,D,0,u,130";
        "2,B,0,u,140";
      ]
  ^ "\n"

let or_fail = function Ok x -> x | Error msg -> Alcotest.fail msg

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Parity: the stream yields exactly the events Csv.load materializes. *)
let test_count_parity () =
  with_tmp orderly_csv (fun path ->
      let relation = or_fail (Ses_store.Csv.load path) in
      let n = or_fail (Ses_store.Csv_stream.count path) in
      Alcotest.(check int) "count" (Relation.cardinality relation) n;
      let _, streamed =
        or_fail
          (Ses_store.Csv_stream.fold path ~init:[] ~f:(fun acc e -> e :: acc))
      in
      let streamed = List.rev streamed in
      let materialized = Array.to_list (Relation.events relation) in
      Alcotest.(check int)
        "same length"
        (List.length materialized)
        (List.length streamed);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "same event" true (Event.equal a b);
          Alcotest.(check int) "same seq" (Event.seq a) (Event.seq b))
        materialized streamed)

let test_out_of_order_rejected () =
  let bad = header ^ "1,C,0,u,50\n1,P,0,u,40\n" in
  with_tmp bad (fun path ->
      match
        Ses_store.Csv_stream.fold path ~init:0 ~f:(fun acc _ -> acc + 1)
      with
      | Ok _ -> Alcotest.fail "out-of-order feed accepted"
      | Error msg ->
          Alcotest.(check bool)
            ("row number in " ^ msg)
            true (contains msg "row 2"))

let test_malformed_header () =
  with_tmp "ID:int,L:string\n1,C\n" (fun path ->
      match Ses_store.Csv_stream.open_source path with
      | Ok src ->
          Ses_store.Csv_stream.close_source src;
          Alcotest.fail "header without T column accepted"
      | Error _ -> ());
  with_tmp "ID:bogus,T\n1,10\n" (fun path ->
      match Ses_store.Csv_stream.open_source path with
      | Ok src ->
          Ses_store.Csv_stream.close_source src;
          Alcotest.fail "unknown type accepted"
      | Error _ -> ())

let test_malformed_row () =
  let bad = header ^ "1,C,0,u,10\nnot-an-int,C,0,u,20\n" in
  with_tmp bad (fun path ->
      match
        Ses_store.Csv_stream.fold path ~init:0 ~f:(fun acc _ -> acc + 1)
      with
      | Ok _ -> Alcotest.fail "malformed row accepted"
      | Error msg ->
          Alcotest.(check bool)
            ("row number in " ^ msg)
            true (contains msg "row 2"));
  let missing = header ^ "1,C,0,u\n" in
  with_tmp missing (fun path ->
      match
        Ses_store.Csv_stream.fold path ~init:0 ~f:(fun acc _ -> acc + 1)
      with
      | Ok _ -> Alcotest.fail "short row accepted"
      | Error _ -> ())

(* Pushdown: rejected rows are dropped store-side, sequence numbers keep
   their scan positions (gaps where rows were dropped). *)
let test_pushdown () =
  with_tmp orderly_csv (fun path ->
      let selection =
        Ses_store.Selection.attr "L" Ses_event.Predicate.Eq (Value.Str "P")
      in
      let result =
        Ses_store.Csv_stream.with_source ~selection path (fun src ->
            let rec drain acc =
              match Ses_store.Csv_stream.next src with
              | Error msg -> Alcotest.fail msg
              | Ok None -> List.rev acc
              | Ok (Some e) -> drain (e :: acc)
            in
            let events = drain [] in
            Alcotest.(check int) "scanned" 10 (Ses_store.Csv_stream.scanned src);
            Alcotest.(check int) "dropped" 6 (Ses_store.Csv_stream.dropped src);
            Ok events)
      in
      let events = or_fail result in
      Alcotest.(check (list int))
        "surviving sequence numbers keep their scan positions"
        [ 1; 2; 6; 7 ]
        (List.map Event.seq events))

let test_unknown_selection_attr () =
  with_tmp orderly_csv (fun path ->
      let selection =
        Ses_store.Selection.attr "NOPE" Ses_event.Predicate.Eq (Value.Str "x")
      in
      match Ses_store.Csv_stream.open_source ~selection path with
      | Ok src ->
          Ses_store.Csv_stream.close_source src;
          Alcotest.fail "unknown attribute accepted"
      | Error _ -> ())

(* Like orderly_csv but with noise rows ("X" labels) no query variable
   can bind — exactly what the pushed-down strong filter drops. *)
let noisy_csv =
  header
  ^ String.concat "\n"
      [
        "1,C,0,u,10";
        "1,P,0,u,20";
        "9,X,0,u,25";
        "1,P,0,u,30";
        "1,D,0,u,40";
        "1,B,0,u,50";
        "9,X,0,u,60";
        "2,C,0,u,100";
        "2,P,0,u,110";
        "2,P,0,u,120";
        "2,D,0,u,130";
        "2,B,0,u,140";
        "9,X,0,u,150";
      ]
  ^ "\n"

(* End to end: a streamed query (Csv_stream -> executor, no Relation.t
   ever built) produces exactly the matches of the materialized path. *)
let test_stream_matches_materialized () =
  let () = Ses_baseline.Brute_force.register () in
  with_tmp noisy_csv (fun path ->
      let pattern = Ses_harness.Queries.q1 in
      let automaton = Ses_core.Automaton.of_pattern pattern in
      let relation = or_fail (Ses_store.Csv.load path) in
      let materialized =
        Ses_core.Engine.run_relation automaton relation
      in
      List.iter
        (fun strategy ->
          let outcome =
            or_fail
              (Ses_harness.Stream_runner.run ~strategy
                 ~query:(fun _schema -> Ok automaton)
                 path)
          in
          Alcotest.(check (list (list (pair string int))))
            ("stream = materialized under "
            ^ Ses_core.Executor.strategy_name strategy)
            (Helpers.substs_repr pattern
               materialized.Ses_core.Engine.matches)
            (Helpers.substs_repr pattern
               outcome.Ses_harness.Stream_runner.matches);
          (* The strong filter was pushed into the scan: fewer events
             reached the executor than were scanned. *)
          Alcotest.(check bool)
            "pushdown engaged" true
            (outcome.Ses_harness.Stream_runner.pushed <> None
            && outcome.Ses_harness.Stream_runner.events_delivered
               < outcome.Ses_harness.Stream_runner.events_scanned))
        Ses_core.Executor.strategies)

let test_stream_no_pushdown_same_matches () =
  with_tmp orderly_csv (fun path ->
      let pattern = Ses_harness.Queries.q1 in
      let automaton = Ses_core.Automaton.of_pattern pattern in
      let with_push =
        or_fail
          (Ses_harness.Stream_runner.run
             ~query:(fun _ -> Ok automaton)
             path)
      in
      let without_push =
        or_fail
          (Ses_harness.Stream_runner.run ~push_filter:false
             ~query:(fun _ -> Ok automaton)
             path)
      in
      Alcotest.(check bool)
        "no filter pushed" true
        (without_push.Ses_harness.Stream_runner.pushed = None);
      Alcotest.(check int)
        "everything delivered"
        without_push.Ses_harness.Stream_runner.events_scanned
        without_push.Ses_harness.Stream_runner.events_delivered;
      Alcotest.(check (list (list (pair string int))))
        "same matches either way"
        (Helpers.substs_repr pattern
           with_push.Ses_harness.Stream_runner.matches)
        (Helpers.substs_repr pattern
           without_push.Ses_harness.Stream_runner.matches))

(* The pushed scan keeps the engine's clock. Rows the scan drops still
   close windows: between delivered rows by the engine's own sweeps, and
   after the last one by the advance to the last row scanned. So the
   pushed run counts what [Executor.run] counts over every row under the
   same filter — expiries included — and only the population peak,
   sampled at the events the engine sees, may differ. *)
let pushed_metrics_equal_full_run =
  QCheck.Test.make ~count:30
    ~name:"pushed scan metrics = Executor.run under the same filter"
    QCheck.(int_bound 100_000)
    (fun seed ->
      Helpers.with_keyed_workload seed (fun pat r ->
          let automaton = Ses_core.Automaton.of_pattern pat in
          let options =
            {
              Ses_core.Engine.default_options with
              Ses_core.Engine.filter = Ses_core.Event_filter.Strong;
              filter_extras =
                (match Ses_core.Planner.analyze automaton with
                | Some a -> a.Ses_core.Planner.filter_extras
                | None -> []);
              batch_size = 7;
            }
          in
          let peakless (m : Ses_core.Metrics.snapshot) =
            { m with Ses_core.Metrics.max_simultaneous_instances = 0 }
          in
          with_tmp (Ses_store.Csv.to_string r) (fun path ->
              List.for_all
                (fun strategy ->
                  let pushed =
                    or_fail
                      (Ses_harness.Stream_runner.run ~options ~strategy
                         ~query:(fun _ -> Ok automaton)
                         path)
                  in
                  let full =
                    Ses_core.Executor.run ~options strategy automaton
                      (Relation.to_seq r)
                  in
                  peakless pushed.Ses_harness.Stream_runner.metrics
                  = peakless full.Ses_core.Engine.metrics
                  && Helpers.substs_repr pat
                       pushed.Ses_harness.Stream_runner.matches
                     = Helpers.substs_repr pat full.Ses_core.Engine.matches)
                [ `Plain; `Auto ])))

let suite =
  [
    Alcotest.test_case "count/event parity with Csv.load" `Quick
      test_count_parity;
    Alcotest.test_case "out-of-order rows rejected" `Quick
      test_out_of_order_rejected;
    Alcotest.test_case "malformed header rejected" `Quick test_malformed_header;
    Alcotest.test_case "malformed rows carry row numbers" `Quick
      test_malformed_row;
    Alcotest.test_case "selection pushdown keeps seq numbers" `Quick
      test_pushdown;
    Alcotest.test_case "unknown selection attribute rejected" `Quick
      test_unknown_selection_attr;
    Alcotest.test_case "streamed matches = materialized matches" `Quick
      test_stream_matches_materialized;
    Alcotest.test_case "pushdown does not change matches" `Quick
      test_stream_no_pushdown_same_matches;
    QCheck_alcotest.to_alcotest pushed_metrics_equal_full_run;
  ]
