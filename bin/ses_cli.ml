(* ses — command-line front end for the SES pattern-matching library.

   Subcommands:
     generate     synthesize a workload and store it as CSV
     match        run a pattern (textual language) over a CSV relation
     dot          export the SES automaton of a pattern as Graphviz
     window       report the window size W (Definition 5) of a relation
     analyze      classify a pattern and print the Theorem 1-3 bounds
     experiments  regenerate the paper's tables and figures *)

open Cmdliner

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let or_die = function
  | Ok x -> x
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

let load_relation path = or_die (Ses_store.Csv.load path)

let load_pattern schema query query_file =
  let text =
    match query, query_file with
    | Some q, None -> q
    | None, Some f -> read_file f
    | Some _, Some _ ->
        prerr_endline "error: pass either --query or --query-file, not both";
        exit 1
    | None, None ->
        prerr_endline "error: a query is required (--query or --query-file)";
        exit 1
  in
  or_die (Ses_lang.Lang.parse_pattern schema text)

(* generate *)

let generate kind out seed patients duplicate =
  let seed64 = Int64.of_int seed in
  let relation =
    match kind with
    | "chemo" ->
        Ses_gen.Chemo.generate
          { Ses_gen.Chemo.default with Ses_gen.Chemo.seed = seed64; patients }
    | "finance" ->
        Ses_gen.Finance.generate
          { Ses_gen.Finance.default with Ses_gen.Finance.seed = seed64 }
    | "rfid" ->
        Ses_gen.Rfid.generate
          { Ses_gen.Rfid.default with Ses_gen.Rfid.seed = seed64 }
    | other ->
        prerr_endline ("error: unknown workload kind " ^ other);
        exit 1
  in
  let relation =
    if duplicate > 1 then Ses_gen.Dataset.duplicate duplicate relation
    else relation
  in
  or_die (Ses_store.Csv.save out relation);
  Printf.printf "wrote %d events to %s\n"
    (Ses_event.Relation.cardinality relation)
    out

let kind_arg =
  Arg.(
    value
    & opt string "chemo"
    & info [ "kind" ] ~docv:"KIND" ~doc:"Workload: chemo, finance or rfid.")

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output CSV file.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let patients_arg =
  Arg.(
    value
    & opt int Ses_gen.Chemo.default.Ses_gen.Chemo.patients
    & info [ "patients" ] ~docv:"N" ~doc:"Number of patients (chemo only).")

let duplicate_arg =
  Arg.(
    value
    & opt int 1
    & info [ "duplicate" ] ~docv:"K"
        ~doc:"Replicate every event K times (the paper's D-series scaling).")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesize a workload and store it as CSV")
    Term.(const generate $ kind_arg $ out_arg $ seed_arg $ patients_arg
          $ duplicate_arg)

(* shared match/dot/analyze options *)

let data_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "d"; "data" ] ~docv:"FILE" ~doc:"Input relation (CSV).")

let query_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"QUERY" ~doc:"Pattern in the query language.")

let query_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "query-file" ] ~docv:"FILE" ~doc:"File containing the pattern.")

let filter_conv =
  Arg.enum
    [
      ("none", Ses_core.Event_filter.No_filter);
      ("paper", Ses_core.Event_filter.Paper);
      ("strong", Ses_core.Event_filter.Strong);
    ]

let filter_arg =
  Arg.(
    value
    & opt filter_conv Ses_core.Event_filter.No_filter
    & info [ "filter" ] ~docv:"MODE"
        ~doc:"Event filter (Sec. 4.5): none, paper or strong.")

let policy_conv =
  Arg.enum
    [
      ("operational", Ses_core.Substitution.Operational);
      ("literal", Ses_core.Substitution.Literal);
    ]

let policy_arg =
  Arg.(
    value
    & opt policy_conv Ses_core.Substitution.Operational
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Finalization policy for Definition 2's conditions 4-5.")

let store_conv =
  Arg.enum
    [
      ("indexed", Ses_core.Engine.Indexed);
      ("flat", Ses_core.Engine.Flat);
    ]

let store_arg =
  Arg.(
    value
    & opt store_conv Ses_core.Engine.Indexed
    & info [ "store" ] ~docv:"STORE"
        ~doc:
          "Instance pool layout: indexed (state-bucketed store, the \
           default) or flat (the reference list, for comparison).")

let show_metrics_arg =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print runtime metrics.")

let show_raw_arg =
  Arg.(
    value & flag
    & info [ "raw" ] ~doc:"Also print raw candidates before finalization.")

let table_arg =
  Arg.(
    value & flag
    & info [ "table" ] ~doc:"Render matches as a table (one column per variable).")

let strategy_conv =
  Arg.conv
    ( (fun s ->
        match Ses_core.Executor.strategy_of_string s with
        | Ok s -> Ok s
        | Error msg -> Error (`Msg msg)),
      fun ppf s ->
        Format.pp_print_string ppf (Ses_core.Executor.strategy_name s) )

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv `Auto
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Execution strategy: auto (planner-selected), plain, naive or \
           brute-force.")

let telemetry_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Record runtime telemetry (spans, histograms, gauges) during the \
           run and write the profile afterwards: to stdout when FILE is \
           omitted or \"-\", else to FILE. A FILE ending in .prom gets \
           Prometheus text exposition format, anything else JSON. Without \
           this flag every probe is a disabled branch.")

let batch_arg =
  Arg.(
    value & opt int Ses_core.Engine.default_batch_size
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Chunk size for the batched execution core (default tuned by the \
           bench harness). Events are fed through the executors N at a \
           time — the CSV scan yields filtered chunks, per-batch engine \
           work (event filter, expiry sweep, telemetry probes) amortizes \
           over each chunk. Matching output is identical at every batch \
           size; N=1 recovers per-event delivery.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the execution plan before the results, including the \
           filter pushed into the scan of the file (a single query only).")

(* Lines end with [@\n], not [@.]: one flush at the end instead of one
   write(2) per match. *)
let print_match_results pattern ~raw ~matches ~metrics show_metrics show_raw
    table =
  Format.printf "pattern: %a@\n" Ses_pattern.Pattern.pp pattern;
  if show_raw then begin
    Format.printf "raw candidates: %d@\n" (List.length raw);
    List.iter
      (fun s -> Format.printf "  %a@\n" (Ses_core.Substitution.pp pattern) s)
      raw
  end;
  if table then
    Format.printf "%a@\n" Ses_harness.Report.pp
      (Ses_harness.Match_table.of_matches pattern matches)
  else begin
    Format.printf "matches: %d@\n" (List.length matches);
    List.iter
      (fun s -> Format.printf "  %a@\n" (Ses_core.Substitution.pp pattern) s)
      matches
  end;
  if show_metrics then Format.printf "%a@\n" Ses_core.Metrics.pp metrics;
  Format.print_flush ()

(* Several -q patterns over one scan of the file: the shared multi-query
   plan, fed chunks of [batch_size] rows with no filter pushed down. *)
let run_multi_match ~options ~strategy ~queries ~data show_metrics show_raw
    table =
  let t, named =
    or_die
      (Ses_store.Csv_stream.with_source data (fun src ->
         let schema = Ses_store.Csv_stream.source_schema src in
         let named =
           List.mapi
             (fun i text ->
               let pattern = or_die (Ses_lang.Lang.parse_pattern schema text) in
               ( Printf.sprintf "q%d" (i + 1),
                 pattern,
                 Ses_core.Automaton.of_pattern pattern ))
             queries
         in
         let t =
           Ses_core.Multi.create_mixed ~options
             (List.map (fun (n, _, a) -> (n, a, strategy)) named)
         in
         let chunk = options.Ses_core.Engine.batch_size in
         let rec feed () =
           match Ses_store.Csv_stream.next_batch src chunk with
           | Error _ as e -> e
           | Ok [||] -> Ok ()
           | Ok es ->
               ignore (Ses_core.Multi.feed_batch t es);
               feed ()
         in
         Result.map (fun () -> (t, named)) (feed ())))
  in
  ignore (Ses_core.Multi.close t);
  let outcomes = Ses_core.Multi.outcomes t in
  List.iter
    (fun (name, pattern, _) ->
      let o = List.assoc name outcomes in
      Format.printf "--- %s ---@." name;
      print_match_results pattern ~raw:o.Ses_core.Engine.raw
        ~matches:o.Ses_core.Engine.matches ~metrics:o.Ses_core.Engine.metrics
        show_metrics show_raw table)
    named;
  if show_metrics then
    List.iter
      (fun (s : Ses_core.Shared_plan.stats) ->
        Format.printf
          "shared plan: %d indexed atom(s), index hit rate %.4f@."
          s.Ses_core.Shared_plan.st_index_atoms
          s.Ses_core.Shared_plan.st_index_hit_rate)
      (Ses_core.Multi.shared_stats t)

(* One query: a single streamed scan with the strong filter pushed into
   it. *)
let run_single_match ~options ~strategy ~query ~query_file ~data explain
    show_metrics show_raw table =
  let parsed = ref None in
  let outcome =
    or_die
      (Ses_harness.Stream_runner.run ~options ~strategy
         ~query:(fun schema ->
           let pattern = load_pattern schema query query_file in
           let automaton = Ses_core.Automaton.of_pattern pattern in
           parsed := Some (pattern, automaton);
           Ok automaton)
         data)
  in
  let pattern, automaton = Option.get !parsed in
  let pushed =
    match outcome.Ses_harness.Stream_runner.pushed with
    | None -> "none"
    | Some p -> Format.asprintf "%a" Ses_store.Selection.pp p
  in
  if explain then begin
    Format.printf "%s"
      (Ses_core.Planner.describe ~pushed (Ses_core.Planner.plan automaton));
    if Ses_core.Executor.runs_classes ~options strategy automaton then
      Format.printf "evaluation: run classes@\n"
  end;
  print_match_results pattern ~raw:outcome.Ses_harness.Stream_runner.raw
    ~matches:outcome.Ses_harness.Stream_runner.matches
    ~metrics:outcome.Ses_harness.Stream_runner.metrics show_metrics show_raw
    table;
  if show_metrics then begin
    Format.printf "executor: %s@." outcome.Ses_harness.Stream_runner.executor;
    Format.printf "events scanned: %d, delivered: %d@."
      outcome.Ses_harness.Stream_runner.events_scanned
      outcome.Ses_harness.Stream_runner.events_delivered;
    Format.printf "pushed filter: %s@." pushed
  end

let run_match data queries query_file strategy batch explain filter policy
    store telemetry show_metrics show_raw table =
  Ses_baseline.Brute_force.register ();
  Ses_analysis.Analyzer.register ();
  if batch < 1 then begin
    prerr_endline "error: --batch must be at least 1";
    exit 1
  end;
  let recorder =
    Option.map (fun _ -> Ses_core.Telemetry.create ()) telemetry
  in
  let run_match_body () =
    let options =
      {
        Ses_core.Engine.default_options with
        Ses_core.Engine.filter;
        policy;
        store;
        batch_size = batch;
        telemetry = recorder;
      }
    in
    match queries with
    | _ :: _ :: _ ->
        if query_file <> None then begin
          prerr_endline "error: pass either --query or --query-file, not both";
          exit 1
        end;
        run_multi_match ~options ~strategy ~queries ~data show_metrics show_raw
          table
    | [] | [ _ ] ->
        run_single_match ~options ~strategy ~query:(List.nth_opt queries 0)
          ~query_file ~data explain show_metrics show_raw table
  in
  (try run_match_body ()
   with Ses_core.Naive.Too_large n ->
     prerr_endline
       (Printf.sprintf
          "error: the naive oracle would enumerate more than %d assignments \
           on this input; use a smaller relation or another --strategy"
          n);
     exit 1);
  match telemetry, recorder with
  | Some dest, Some tl ->
      (* Every executor has closed by now, so the profile covers the
         whole run. The process's allocation so far, read just before the
         snapshot, joins it as two counters; the snapshot itself reads no
         GC state, so in-process profiles stay comparable. *)
      let minor, promoted, _ = Gc.counters () in
      let gc name words =
        Ses_core.Telemetry.Counter.add
          (Ses_core.Telemetry.counter tl name)
          (int_of_float words)
      in
      gc "gc.minor_words" minor;
      gc "gc.promoted_words" promoted;
      let profile = Ses_core.Telemetry.snapshot tl in
      let text =
        if Filename.check_suffix dest ".prom" then
          Ses_core.Telemetry.to_prometheus profile
        else Ses_core.Telemetry.to_json profile ^ "\n"
      in
      if dest = "-" then print_string text
      else
        Out_channel.with_open_text dest (fun oc ->
            Out_channel.output_string oc text)
  | _ -> ()

let match_queries_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:
          "Pattern in the query language. Repeatable: with several -q the \
           patterns run together over one pass of the relation through the \
           shared multi-query plan (predicate-index routing), with \
           per-query results printed in order.")

let match_cmd =
  Cmd.v
    (Cmd.info "match" ~doc:"Run one or more SES patterns over a stored relation")
    Term.(
      const run_match $ data_arg $ match_queries_arg $ query_file_arg
      $ strategy_arg $ batch_arg $ explain_arg
      $ filter_arg $ policy_arg
      $ store_arg $ telemetry_arg $ show_metrics_arg $ show_raw_arg
      $ table_arg)

(* dot *)

let run_dot data query query_file no_conditions =
  let relation = load_relation data in
  let schema = Ses_event.Relation.schema relation in
  let pattern = load_pattern schema query query_file in
  let automaton = Ses_core.Automaton.of_pattern pattern in
  print_string (Ses_core.Dot.of_automaton ~conditions:(not no_conditions) automaton)

let no_conditions_arg =
  Arg.(
    value & flag
    & info [ "no-conditions" ] ~doc:"Label edges with variables only.")

let dot_cmd =
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the SES automaton as Graphviz DOT")
    Term.(const run_dot $ data_arg $ query_arg $ query_file_arg $ no_conditions_arg)

(* window *)

let run_window data tau =
  let relation = load_relation data in
  Printf.printf "%s\n" (Ses_gen.Dataset.describe relation tau)

let tau_arg =
  Arg.(
    value & opt int 264
    & info [ "tau" ] ~docv:"N" ~doc:"Window duration in time units.")

let window_cmd =
  Cmd.v
    (Cmd.info "window" ~doc:"Report the window size W (Definition 5)")
    Term.(const run_window $ data_arg $ tau_arg)

(* analyze *)

let query_text query query_file =
  match query, query_file with
  | Some q, None -> q
  | None, Some f -> read_file f
  | Some _, Some _ ->
      prerr_endline "error: pass either --query or --query-file, not both";
      exit 1
  | None, None ->
      prerr_endline "error: a query is required (--query or --query-file)";
      exit 1

let diagnostics_json diags result =
  let open Ses_analysis in
  let counts =
    Printf.sprintf "\"errors\":%d,\"warnings\":%d,\"infos\":%d"
      (Diagnostic.count Diagnostic.Error diags)
      (Diagnostic.count Diagnostic.Warning diags)
      (Diagnostic.count Diagnostic.Info diags)
  in
  let analysis =
    match result with
    | None -> ""
    | Some (r : Analyzer.result) ->
        Printf.sprintf
          ",\"pruned_transitions\":%d,\"pruned_states\":%d,\"never_matches\":%b"
          r.Analyzer.pruned_transitions r.Analyzer.pruned_states
          r.Analyzer.never_matches
  in
  Printf.sprintf "{\"diagnostics\":%s,%s%s}"
    (Diagnostic.list_to_json diags)
    counts analysis

let print_diagnostics diags =
  let open Ses_analysis in
  if diags = [] then print_endline "diagnostics: none"
  else begin
    Format.printf "diagnostics: %d error(s), %d warning(s), %d info(s)@."
      (Diagnostic.count Diagnostic.Error diags)
      (Diagnostic.count Diagnostic.Warning diags)
      (Diagnostic.count Diagnostic.Info diags);
    List.iter (fun d -> Format.printf "  %a@." Diagnostic.pp d) diags
  end

let run_analyze data schema_spec query query_file json dot =
  let open Ses_analysis in
  Analyzer.register ();
  let schema, relation =
    match data, schema_spec with
    | Some d, None ->
        let r = load_relation d in
        (Ses_event.Relation.schema r, Some r)
    | None, Some s -> (or_die (Ses_event.Schema.of_string s), None)
    | Some _, Some _ ->
        prerr_endline "error: pass either --data or --schema, not both";
        exit 1
    | None, None ->
        prerr_endline "error: a schema is required (--data or --schema)";
        exit 1
  in
  let text = query_text query query_file in
  match Analyzer.analyze_query schema text with
  | Error diags ->
      if json then print_endline (diagnostics_json diags None)
      else print_diagnostics diags;
      exit 1
  | Ok result ->
      let pattern = result.Analyzer.pattern in
      let diags = result.Analyzer.diagnostics in
      if dot then begin
        let dead tr = List.memq tr result.Analyzer.dead in
        print_string
          (Ses_core.Dot.of_automaton ~dead result.Analyzer.original)
      end
      else if json then print_endline (diagnostics_json diags (Some result))
      else begin
        let automaton = result.Analyzer.original in
        Format.printf "pattern: %a@." Ses_pattern.Pattern.pp pattern;
        Format.printf "automaton: %d states, %d transitions, %d orderings@."
          (Ses_core.Automaton.n_states automaton)
          (Ses_core.Automaton.n_transitions automaton)
          (Ses_core.Automaton.n_paths automaton);
        print_diagnostics diags;
        if result.Analyzer.pruned_transitions > 0 then
          Format.printf "pruned: %d transition(s), %d state(s)@."
            result.Analyzer.pruned_transitions result.Analyzer.pruned_states;
        (match relation with
        | None -> ()
        | Some relation ->
            let tau = Ses_pattern.Pattern.tau pattern in
            let w = Ses_event.Relation.window_size relation tau in
            Format.printf "window size W = %d@." w;
            print_endline (Ses_harness.Bounds.describe pattern ~w));
        let plan = Ses_core.Planner.plan automaton in
        let access =
          Option.map
            (fun r ->
              Ses_core.Planner.choose_access
                ~stats:(Ses_event.Stats.of_relation r) plan automaton)
            relation
        in
        Format.printf "execution plan:@.%s"
          (Ses_core.Planner.describe ?access plan)
      end;
      if Diagnostic.has_errors diags then exit 1

let data_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "d"; "data" ] ~docv:"FILE"
        ~doc:"Input relation (CSV); supplies the schema and window stats.")

let schema_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "schema" ] ~docv:"SPEC"
        ~doc:
          "Event schema as NAME:TYPE,... with types int, float and string; \
           analyze the query without loading a relation.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the diagnostics as a JSON object.")

let dot_arg =
  Arg.(
    value & flag
    & info [ "dot" ]
        ~doc:
          "Print the automaton as Graphviz DOT with transitions the \
           analyzer would prune rendered dashed and gray, instead of the \
           report.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically analyze a pattern: diagnostics, satisfiability, \
          pruning, and the Theorem 1-3 instance bounds")
    Term.(
      const run_analyze $ data_opt_arg $ schema_arg $ query_arg
      $ query_file_arg $ json_arg $ dot_arg)

(* explain *)

let run_explain data query query_file =
  let relation = load_relation data in
  let schema = Ses_event.Relation.schema relation in
  let pattern = load_pattern schema query query_file in
  let automaton = Ses_core.Automaton.of_pattern pattern in
  Format.printf "%a@." Ses_core.Explain.pp
    (Ses_core.Explain.explain automaton relation)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Diagnose where the search effort went (why did nothing match?)")
    Term.(const run_explain $ data_arg $ query_arg $ query_file_arg)

(* trace *)

let run_trace data query query_file only_matching limit =
  let relation = load_relation data in
  let schema = Ses_event.Relation.schema relation in
  let pattern = load_pattern schema query query_file in
  let automaton = Ses_core.Automaton.of_pattern pattern in
  let steps, outcome = Ses_core.Trace.run automaton relation in
  let steps =
    if only_matching then
      List.concat_map
        (fun m -> Ses_core.Trace.for_buffer m steps)
        outcome.Ses_core.Engine.matches
    else steps
  in
  let steps =
    match limit with
    | None -> steps
    | Some n -> List.filteri (fun i _ -> i < n) steps
  in
  List.iter
    (fun obs ->
      Format.printf "%a@." (Ses_core.Trace.pp_observation pattern) obs)
    steps;
  Format.printf "matches: %d@." (List.length outcome.Ses_core.Engine.matches)

let only_matching_arg =
  Arg.(
    value & flag
    & info [ "only-matching" ]
        ~doc:"Show only the steps of instances that produced a match.")

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit" ] ~docv:"N" ~doc:"Print at most N steps.")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the execution narrative (the paper's Figure 6)")
    Term.(
      const run_trace $ data_arg $ query_arg $ query_file_arg
      $ only_matching_arg $ limit_arg)

(* experiments *)

let run_experiments quick csv_dir patients datasets =
  let base =
    if quick then Ses_harness.Experiments.quick_config
    else Ses_harness.Experiments.default_config
  in
  let cfg =
    {
      base with
      Ses_harness.Experiments.chemo =
        (match patients with
        | None -> base.Ses_harness.Experiments.chemo
        | Some p ->
            { base.Ses_harness.Experiments.chemo with Ses_gen.Chemo.patients = p });
      n_datasets =
        Option.value ~default:base.Ses_harness.Experiments.n_datasets datasets;
    }
  in
  Ses_harness.Experiments.run_all ?csv_dir ~ppf:Format.std_formatter cfg

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use the small test workload.")

let csv_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also save one CSV per table.")

let exp_patients_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "patients" ] ~docv:"N" ~doc:"Override the D1 patient count.")

let exp_datasets_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "datasets" ] ~docv:"N" ~doc:"Number of D-series datasets.")

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's evaluation tables and figures")
    Term.(
      const run_experiments $ quick_arg $ csv_dir_arg $ exp_patients_arg
      $ exp_datasets_arg)

(* store *)

let run_store_stats data catalog name refresh cap =
  match data, catalog with
  | Some file, None ->
      let _schema, s = or_die (Ses_store.Csv_stream.stats ?cap file) in
      Format.printf "%a@." Ses_event.Stats.pp s
  | None, Some dir -> begin
      let cat = or_die (Ses_store.Catalog.open_dir dir) in
      match name with
      | None ->
          (* No relation named: list what the catalog holds. *)
          List.iter print_endline (Ses_store.Catalog.list cat)
      | Some name ->
          let s =
            or_die
              (if refresh || cap <> None then
                 Ses_store.Catalog.refresh_stats ?cap cat name
               else Ses_store.Catalog.stats cat name)
          in
          Format.printf "%a@." Ses_event.Stats.pp s
    end
  | Some _, Some _ ->
      prerr_endline "error: pass either --data or --catalog, not both";
      exit 1
  | None, None ->
      prerr_endline "error: a source is required (--data or --catalog)";
      exit 1

let catalog_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "catalog" ] ~docv:"DIR"
        ~doc:
          "Catalog directory of stored relations; reads the persisted \
           [.stats] sidecar when it is fresh and recomputes (and \
           re-persists) it otherwise.")

let store_name_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"NAME"
        ~doc:
          "Relation name inside the catalog; omitted, the stored relations \
           are listed instead.")

let refresh_arg =
  Arg.(
    value & flag
    & info [ "refresh" ]
        ~doc:
          "Force a streaming recompute of the sidecar even when it looks \
           fresh (e.g. after editing the CSV in place).")

let cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cap" ] ~docv:"N"
        ~doc:
          "Bound the per-attribute histograms to the N most frequent \
           values (implies --refresh for catalog relations).")

let store_stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print catalog statistics (row count, per-attribute cardinality \
          and histograms) for a relation — the numbers the access-path \
          planner costs index probes with")
    Term.(
      const run_store_stats $ data_opt_arg $ catalog_arg $ store_name_arg
      $ refresh_arg $ cap_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect the event store (catalogs, statistics sidecars)")
    [ store_stats_cmd ]

(* ---- serve ---- *)

let run_serve schema_text host port port_file overflow capacity idle quota
    no_telemetry =
  (* Accept a CSV header pasted verbatim: strip the trailing timestamp
     column (the wire rows still carry it, like the file rows do). *)
  let schema_text =
    let t = String.trim schema_text in
    if String.length t >= 2 && String.sub t (String.length t - 2) 2 = ",T"
    then String.sub t 0 (String.length t - 2)
    else t
  in
  let schema = or_die (Ses_event.Schema.of_string schema_text) in
  let telemetry =
    if no_telemetry then None else Some (Ses_core.Telemetry.create ())
  in
  let rt_config =
    {
      (Ses_server.Runtime.default_config ~schema) with
      Ses_server.Runtime.overflow =
        (match overflow with
        | `Drop -> Ses_server.Runtime.Drop_oldest
        | `Block -> Ses_server.Runtime.Block);
      queue_capacity = capacity;
      idle_timeout = idle;
      drain_quota = quota;
      telemetry;
    }
  in
  Ses_server.Tcp.serve
    ~config:
      {
        Ses_server.Tcp.host;
        port;
        port_file;
        log =
          (fun line ->
            print_string line;
            flush stdout);
      }
    rt_config

let schema_arg =
  Arg.(
    value
    & opt string "ID:int,L:string,V:int"
    & info [ "schema" ] ~docv:"SCHEMA"
        ~doc:
          "Row schema for EVENT/BATCH lines, as $(i,name:type) pairs \
           (types: int, string, float), matching the header of the CSV \
           files the offline commands read.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind (serve) or reach \
                                         (client).")

let port_arg ~default =
  Arg.(
    value & opt int default
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port; 0 asks the kernel for an ephemeral one.")

let port_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE"
        ~doc:"Write the bound port here once listening (for scripts \
              driving an ephemeral port).")

let overflow_arg =
  Arg.(
    value
    & opt (enum [ ("drop", `Drop); ("block", `Block) ]) `Block
    & info [ "overflow" ] ~docv:"POLICY"
        ~doc:
          "Ingest-queue overflow policy: $(b,drop) sheds the oldest \
           queued events and keeps reading; $(b,block) stops reading the \
           tenant's connections until the queue drains. Both signal \
           SLOW/RESUME.")

let capacity_arg =
  Arg.(
    value & opt int 1024
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:"Per-tenant ingest queue bound.")

let idle_arg =
  Arg.(
    value & opt float 0.
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Close connections idle longer than this (0 disables).")

let quota_arg =
  Arg.(
    value & opt int 256
    & info [ "drain-quota" ] ~docv:"N"
        ~doc:"Events fed per tenant per loop iteration.")

let no_telemetry_arg =
  Arg.(
    value & flag
    & info [ "no-telemetry" ]
        ~doc:"Disable the server.* probes and the /metrics exposition.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant CEP server: a TCP line protocol (AUTH, \
          REGISTER, EVENT/BATCH, SUBSCRIBE, METRICS, ...) streaming \
          matches to subscribers, with a Prometheus /metrics endpoint on \
          the same port. SIGTERM shuts down gracefully.")
    Term.(
      const run_serve $ schema_arg $ host_arg $ port_arg ~default:0
      $ port_file_arg $ overflow_arg $ capacity_arg $ idle_arg $ quota_arg
      $ no_telemetry_arg)

(* ---- client ---- *)

let run_client host port port_file script timeout =
  let port =
    match (port, port_file) with
    | Some p, _ -> p
    | None, Some f -> (
        match int_of_string_opt (String.trim (read_file f)) with
        | Some p -> p
        | None ->
            prerr_endline ("error: bad port file " ^ f);
            exit 1)
    | None, None ->
        prerr_endline "error: pass --port or --port-file";
        exit 1
  in
  let text = match script with "-" -> In_channel.input_all stdin | f -> read_file f in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  match Ses_server.Client.run_script ~host ~port ~timeout lines with
  | Ok out ->
      print_string out;
      flush stdout
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 1

let script_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "script" ] ~docv:"FILE"
        ~doc:
          "File of protocol lines to send ($(b,-) reads stdin). End with \
           QUIT so the server closes the connection and bounds the read.")

let client_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")

let client_timeout_arg =
  Arg.(
    value & opt float 10.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Give up connecting/reading after this long.")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send a script of protocol lines to a running ses serve and \
          print everything it replies (including streamed MATCH/RESULT \
          lines) until it closes the connection.")
    Term.(
      const run_client $ host_arg $ client_port_arg $ port_file_arg
      $ script_arg $ client_timeout_arg)

let () =
  let info =
    Cmd.info "ses" ~version:"1.0.0"
      ~doc:"Sequenced event set pattern matching (EDBT 2011 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            match_cmd;
            dot_cmd;
            window_cmd;
            analyze_cmd;
            explain_cmd;
            trace_cmd;
            store_cmd;
            experiments_cmd;
            serve_cmd;
            client_cmd;
          ]))
