open Ses_harness

let test_report_render () =
  let t =
    Report.make ~title:"T" ~headers:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let rendered = Format.asprintf "%a" Report.pp t in
  Alcotest.(check bool) "title present" true
    (String.length rendered > 0 && rendered.[0] = 'T');
  Alcotest.(check string) "csv" "a,bb\n1,2\n333,4\n" (Report.to_csv t)

let test_report_cells () =
  Alcotest.(check string) "int" "42" (Report.int_cell 42);
  Alcotest.(check string) "float" "1.500" (Report.float_cell 1.5);
  Alcotest.(check string) "float decimals" "1.50" (Report.float_cell ~decimals:2 1.5);
  Alcotest.(check string) "huge goes scientific" "1.000e+12"
    (Report.float_cell 1e12);
  Alcotest.(check string) "ratio" "2.5" (Report.ratio_cell 5 2);
  Alcotest.(check string) "ratio by zero" "-" (Report.ratio_cell 5 0)

let test_report_csv_quoting () =
  let t = Report.make ~title:"q" ~headers:[ "h" ] [ [ "a,b" ] ] in
  Alcotest.(check string) "quoted" "h\n\"a,b\"\n" (Report.to_csv t)

let test_timer () =
  let x, elapsed = Timer.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (elapsed >= 0.0);
  let y, med = Timer.time_median ~repeats:3 (fun () -> 7) in
  Alcotest.(check int) "median result" 7 y;
  Alcotest.(check bool) "median non-negative" true (med >= 0.0)

let test_queries_structure () =
  let open Ses_pattern in
  Alcotest.(check int) "q1 vars" 4 (Pattern.n_vars Queries.q1);
  Alcotest.(check bool) "p3 has group" true (not (Pattern.singleton_only Queries.p3));
  Alcotest.(check bool) "p4 singleton-only" true (Pattern.singleton_only Queries.p4);
  (* p6 aliases p3 by construction; pointer identity is the point. *)
  Alcotest.(check bool) "p6 = p3" true
    ((Queries.p6 == Queries.p3) [@ses.allow "phys-equal"]);
  (* Classification drives the experiments: P5 is case 1, P4 case 2, P3
     case 3 with one group variable. *)
  Alcotest.(check bool) "p5 exclusive" true
    (Exclusivity.classify_set Queries.p5 0 = Exclusivity.Exclusive);
  Alcotest.(check bool) "p4 overlapping" true
    (Exclusivity.classify_set Queries.p4 0 = Exclusivity.Overlapping);
  Alcotest.(check bool) "p3 case 3" true
    (match Exclusivity.classify_set Queries.p3 0 with
    | Exclusivity.Overlapping_with_groups n -> n = 1
    | Exclusivity.Exclusive | Exclusivity.Overlapping -> false);
  (* Experiment 1 patterns. *)
  let p1 = Queries.exp1_exclusive 4 in
  Alcotest.(check int) "exp1 sizes" 5 (Pattern.n_vars p1);
  Alcotest.(check bool) "exp1 exclusive" true
    (Exclusivity.classify_set p1 0 = Exclusivity.Exclusive);
  let p2 = Queries.exp1_overlapping 4 in
  Alcotest.(check bool) "exp1 overlapping" true
    (Exclusivity.classify_set p2 0 = Exclusivity.Overlapping);
  Alcotest.check_raises "out of range" (Invalid_argument "Queries.exp1_exclusive")
    (fun () -> ignore (Queries.exp1_exclusive 7))

let cfg = Experiments.quick_config

let test_datasets_table () =
  let t = Experiments.datasets_table cfg in
  Alcotest.(check int) "one row per dataset" cfg.Experiments.n_datasets
    (List.length t.Report.rows)

let test_exp1_smoke () =
  let small = { cfg with Experiments.exp1_max_vars = 3 } in
  let fig11, table1 = Experiments.exp1 small in
  Alcotest.(check int) "fig11 rows" 2 (List.length fig11.Report.rows);
  Alcotest.(check int) "table1 rows" 2 (List.length table1.Report.rows);
  (* SES never exceeds BF on the exclusive pattern. *)
  List.iter
    (fun row ->
      match row with
      | [ _; ses_p1; bf_p1; ses_p2; bf_p2 ] ->
          Alcotest.(check bool) "SES P1 <= BF P1" true
            (int_of_string ses_p1 <= int_of_string bf_p1);
          Alcotest.(check bool) "SES P2 <= BF P2" true
            (int_of_string ses_p2 <= int_of_string bf_p2)
      | _ -> Alcotest.fail "unexpected row shape")
    fig11.Report.rows

let test_exp2_smoke () =
  let small = { cfg with Experiments.n_datasets = 2 } in
  let t = Experiments.exp2 small in
  Alcotest.(check int) "rows" 2 (List.length t.Report.rows);
  (* Instances grow with W, and case 3 dominates case 2. *)
  let parse row =
    match row with
    | [ _; w; p3; p4 ] -> (int_of_string w, int_of_string p3, int_of_string p4)
    | _ -> Alcotest.fail "unexpected row shape"
  in
  let rows = List.map parse t.Report.rows in
  (match rows with
  | [ (w1, p3_1, p4_1); (w2, p3_2, p4_2) ] ->
      Alcotest.(check bool) "W grows" true (w2 > w1);
      Alcotest.(check bool) "P3 grows" true (p3_2 > p3_1);
      Alcotest.(check bool) "P4 grows" true (p4_2 > p4_1);
      Alcotest.(check bool) "case 3 above case 2" true (p3_1 >= p4_1)
  | _ -> Alcotest.fail "expected two rows")

let test_exp3_smoke () =
  let small = { cfg with Experiments.n_datasets = 1 } in
  let t = Experiments.exp3 small in
  Alcotest.(check int) "one row" 1 (List.length t.Report.rows);
  match List.hd t.Report.rows with
  | [ _; _; t5_no; t5_f; t6_no; t6_f ] ->
      let f = float_of_string in
      Alcotest.(check bool) "times non-negative" true
        (f t5_no >= 0.0 && f t5_f >= 0.0 && f t6_no >= 0.0 && f t6_f >= 0.0)
  | _ -> Alcotest.fail "unexpected row shape"

let test_ablation_partition () =
  let t = Experiments.ablation_partition cfg in
  match t.Report.rows with
  | [ [ _; m1; i1; _ ]; [ _; m2; i2; _ ] ] ->
      Alcotest.(check string) "store partitions find the same matches" m1 m2;
      (* The store-partition peak is per-partition and cannot exceed the
         direct peak. *)
      Alcotest.(check bool) "store-partition peak not larger" true
        (int_of_string i2 <= int_of_string i1)
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_prune () =
  let t = Experiments.ablation_prune cfg in
  match t.Report.rows with
  | [ [ "off"; raw_off; created_off; pruned_off; peak_off; _ ];
      [ "on"; raw_on; created_on; pruned_on; peak_on; _ ] ] ->
      let n = int_of_string in
      Alcotest.(check string) "same raw matches" raw_off raw_on;
      Alcotest.(check string) "nothing pruned when off" "0" pruned_off;
      Alcotest.(check bool) "successors pruned when on" true (n pruned_on > 0);
      Alcotest.(check bool) "fewer instances" true
        (n created_on < n created_off);
      Alcotest.(check bool) "peak not larger" true (n peak_on <= n peak_off)
  | _ -> Alcotest.fail "expected an off and an on row"

let test_csv_save () =
  let t = Report.make ~title:"x" ~headers:[ "a" ] [ [ "1" ] ] in
  let path = Filename.temp_file "ses_report" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Report.save_csv path t with
      | Ok () ->
          let ic = open_in path in
          let content =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          Alcotest.(check string) "content" "a\n1\n" content
      | Error e -> Alcotest.fail e)

let suite =
  [
    Alcotest.test_case "report rendering" `Quick test_report_render;
    Alcotest.test_case "report cells" `Quick test_report_cells;
    Alcotest.test_case "report csv quoting" `Quick test_report_csv_quoting;
    Alcotest.test_case "timer" `Quick test_timer;
    Alcotest.test_case "experiment queries" `Quick test_queries_structure;
    Alcotest.test_case "datasets table" `Quick test_datasets_table;
    Alcotest.test_case "experiment 1 smoke" `Slow test_exp1_smoke;
    Alcotest.test_case "experiment 2 smoke" `Slow test_exp2_smoke;
    Alcotest.test_case "experiment 3 smoke" `Slow test_exp3_smoke;
    Alcotest.test_case "partition ablation" `Slow test_ablation_partition;
    Alcotest.test_case "pruning ablation" `Slow test_ablation_prune;
    Alcotest.test_case "report csv save" `Quick test_csv_save;
  ]
