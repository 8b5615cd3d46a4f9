open Ses_event
open Ses_core

type config = {
  chemo : Ses_gen.Chemo.config;
  n_datasets : int;
  exp1_max_vars : int;
  repeats : int;
}

let default_config =
  {
    chemo =
      {
        Ses_gen.Chemo.default with
        Ses_gen.Chemo.patients = 4;
        horizon_days = 84;
        prednisone_days = 4;
      };
    n_datasets = 5;
    exp1_max_vars = 6;
    repeats = 1;
  }

let quick_config =
  {
    chemo =
      {
        Ses_gen.Chemo.default with
        Ses_gen.Chemo.patients = 6;
        horizon_days = 42;
        noise_per_day = 0.5;
      };
    n_datasets = 3;
    exp1_max_vars = 4;
    repeats = 1;
  }

let dataset cfg = Ses_gen.Chemo.generate cfg.chemo

let d_series cfg = Ses_gen.Dataset.d_series (dataset cfg) cfg.n_datasets

(* The measured loops never finalize and disable the engine's
   constant-condition pre-check and dead-instance pruning: the paper
   measures the verbatim automaton execution. *)
let raw_options filter =
  {
    Engine.default_options with
    Engine.filter;
    finalize = false;
    precheck_constants = false;
    prune_dead = false;
  }

let ses_metrics ?(filter = Event_filter.No_filter) pattern relation =
  let automaton = Automaton.of_pattern pattern in
  (Engine.run_relation ~options:(raw_options filter) automaton relation).metrics

let bf_metrics ?(filter = Event_filter.No_filter) pattern relation =
  (Ses_baseline.Brute_force.run_relation ~options:(raw_options filter) pattern
     relation)
    .Ses_baseline.Brute_force.metrics

let datasets_table cfg =
  let rows =
    List.map
      (fun (name, r) ->
        [
          name;
          Report.int_cell (Relation.cardinality r);
          Report.int_cell (Relation.duration r);
          Report.int_cell (Relation.window_size r Queries.tau);
        ])
      (d_series cfg)
  in
  Report.make ~title:"Datasets (Sec. 5.1)"
    ~headers:[ "dataset"; "events"; "span"; "W(tau=264)" ]
    rows

let exp1 cfg =
  let d1 = dataset cfg in
  let results =
    List.init
      (max 0 (cfg.exp1_max_vars - 1))
      (fun i ->
        let n = i + 2 in
        let p1 = Queries.exp1_exclusive n and p2 = Queries.exp1_overlapping n in
        let ses1 = ses_metrics p1 d1 and ses2 = ses_metrics p2 d1 in
        let bf1 = bf_metrics p1 d1 and bf2 = bf_metrics p2 d1 in
        (n, ses1, bf1, ses2, bf2))
  in
  let inst (m : Metrics.snapshot) = m.Metrics.max_simultaneous_instances in
  let fig11 =
    Report.make
      ~title:
        "Experiment 1 (Fig. 11): max simultaneous automaton instances, D1"
      ~headers:[ "|V1|"; "SES P1"; "BF P1"; "SES P2"; "BF P2" ]
      (List.map
         (fun (n, ses1, bf1, ses2, bf2) ->
           [
             Report.int_cell n;
             Report.int_cell (inst ses1);
             Report.int_cell (inst bf1);
             Report.int_cell (inst ses2);
             Report.int_cell (inst bf2);
           ])
         results)
  in
  let table1 =
    Report.make
      ~title:"Experiment 1 (Table 1): instance ratio for P1"
      ~headers:[ "|V1|"; "|O|BF"; "|O|SES"; "BF/SES"; "(|V1|-1)!" ]
      (List.map
         (fun (n, ses1, bf1, _, _) ->
           [
             Report.int_cell n;
             Report.int_cell (inst bf1);
             Report.int_cell (inst ses1);
             Report.ratio_cell (inst bf1) (inst ses1);
             Report.int_cell (Ses_baseline.Permutation.factorial (n - 1));
           ])
         results)
  in
  (fig11, table1)

let exp2 cfg =
  let rows =
    List.map
      (fun (name, r) ->
        let w = Relation.window_size r Queries.tau in
        let m3 = ses_metrics Queries.p3 r and m4 = ses_metrics Queries.p4 r in
        [
          name;
          Report.int_cell w;
          Report.int_cell m3.Metrics.max_simultaneous_instances;
          Report.int_cell m4.Metrics.max_simultaneous_instances;
        ])
      (d_series cfg)
  in
  Report.make
    ~title:
      "Experiment 2 (Fig. 12): max simultaneous instances vs window size"
    ~headers:[ "dataset"; "W"; "SES P3 (case 3)"; "SES P4 (case 2)" ]
    rows

let timed_run cfg pattern filter relation =
  let automaton = Automaton.of_pattern pattern in
  let _, seconds =
    Timer.time_median ~repeats:cfg.repeats (fun () ->
        Engine.run_relation ~options:(raw_options filter) automaton relation)
  in
  seconds

let exp3 cfg =
  let rows =
    List.map
      (fun (name, r) ->
        let w = Relation.window_size r Queries.tau in
        let t5_no = timed_run cfg Queries.p5 Event_filter.No_filter r in
        let t5_f = timed_run cfg Queries.p5 Event_filter.Paper r in
        let t6_no = timed_run cfg Queries.p6 Event_filter.No_filter r in
        let t6_f = timed_run cfg Queries.p6 Event_filter.Paper r in
        [
          name;
          Report.int_cell w;
          Report.float_cell t5_no;
          Report.float_cell t5_f;
          Report.float_cell t6_no;
          Report.float_cell t6_f;
        ])
      (d_series cfg)
  in
  Report.make
    ~title:"Experiment 3 (Fig. 13): execution time [s] with/without filter"
    ~headers:
      [
        "dataset";
        "W";
        "P5 no filter";
        "P5 filter";
        "P6 no filter";
        "P6 filter";
      ]
    rows

let ablation_filter cfg =
  let d1 = dataset cfg in
  let modes =
    [
      ("none", Event_filter.No_filter);
      ("paper", Event_filter.Paper);
      ("strong", Event_filter.Strong);
    ]
  in
  let rows =
    List.concat_map
      (fun (pname, pattern) ->
        List.map
          (fun (mname, mode) ->
            let m = ses_metrics ~filter:mode pattern d1 in
            let t = timed_run cfg pattern mode d1 in
            [
              pname;
              mname;
              Report.int_cell m.Metrics.events_filtered;
              Report.int_cell m.Metrics.max_simultaneous_instances;
              Report.float_cell t;
            ])
          modes)
      [ ("P5", Queries.p5); ("P6", Queries.p6); ("P6+dose", Queries.p6_dose) ]
  in
  Report.make ~title:"Ablation: event filter variants on D1"
    ~headers:[ "pattern"; "filter"; "dropped"; "max |O|"; "time [s]" ]
    rows

let ablation_precheck cfg =
  let d1 = dataset cfg in
  let rows =
    List.concat_map
      (fun (pname, pattern) ->
        let automaton = Automaton.of_pattern pattern in
        List.map
          (fun (mname, precheck) ->
            let options =
              {
                (raw_options Event_filter.No_filter) with
                Engine.precheck_constants = precheck;
              }
            in
            let outcome, t =
              Timer.time_median ~repeats:cfg.repeats (fun () ->
                  Engine.run_relation ~options automaton d1)
            in
            [
              pname;
              mname;
              Report.int_cell (List.length outcome.Engine.raw);
              Report.float_cell t;
            ])
          [ ("per-instance", false); ("per-event", true) ])
      [ ("P4", Queries.p4); ("P6", Queries.p6) ]
  in
  Report.make
    ~title:"Ablation: constant-condition evaluation (per instance vs per event), D1"
    ~headers:[ "pattern"; "constants"; "raw matches"; "time [s]" ]
    rows

(* Q1's |Ω| counts instances that can never match: the p+ loop binds P
   events of any patient while c is unbound. Pruning drops them and
   leaves the raw matches as they are. *)
let ablation_prune cfg =
  let d1 = dataset cfg in
  let automaton = Automaton.of_pattern Queries.q1 in
  let rows =
    List.map
      (fun (mname, prune) ->
        let options =
          {
            (raw_options Event_filter.No_filter) with
            Engine.prune_dead = prune;
          }
        in
        let outcome, t =
          Timer.time_median ~repeats:cfg.repeats (fun () ->
              Engine.run_relation ~options automaton d1)
        in
        let m = outcome.Engine.metrics in
        [
          mname;
          Report.int_cell (List.length outcome.Engine.raw);
          Report.int_cell m.Metrics.instances_created;
          Report.int_cell m.Metrics.instances_pruned;
          Report.int_cell m.Metrics.max_simultaneous_instances;
          Report.float_cell t;
        ])
      [ ("off", false); ("on", true) ]
  in
  Report.make ~title:"Ablation: dead-instance pruning on Q1 (D1)"
    ~headers:
      [ "pruning"; "raw matches"; "instances"; "pruned"; "max |O|"; "time [s]" ]
    rows

let ablation_partition cfg =
  let d1 = dataset cfg in
  (* Both strategies evaluate the complete-join variant of Q1, whose
     joins make the store partitions independent; on this workload its
     matches coincide with Q1's. The direct run is the engine with its
     key-indexed instance store. *)
  let q = Queries.q1_complete in
  let automaton = Automaton.of_pattern q in
  let options = { Engine.default_options with Engine.finalize = false } in
  let finalize raw = Substitution.finalize q raw in
  let direct, t_direct =
    Timer.time_median ~repeats:cfg.repeats (fun () ->
        Engine.run_relation ~options automaton d1)
  in
  let parts, t_store =
    Timer.time_median ~repeats:cfg.repeats (fun () ->
        List.map
          (fun (_, part) -> Engine.run_relation ~options automaton part)
          (Ses_store.Partition.by_attribute d1 0))
  in
  let part_raw = List.concat_map (fun (o : Engine.outcome) -> o.raw) parts in
  let part_max =
    List.fold_left
      (fun acc (o : Engine.outcome) ->
        max acc o.metrics.Metrics.max_simultaneous_instances)
      0 parts
  in
  Report.make
    ~title:
      "Ablation: Q1 (complete joins) direct vs partitioned evaluation (D1)"
    ~headers:[ "strategy"; "matches"; "max |O|"; "time [s]" ]
    [
      [
        "direct";
        Report.int_cell (List.length (finalize direct.Engine.raw));
        Report.int_cell direct.Engine.metrics.Metrics.max_simultaneous_instances;
        Report.float_cell t_direct;
      ];
      [
        "store partitions";
        Report.int_cell (List.length (finalize part_raw));
        Report.int_cell part_max;
        Report.float_cell t_store;
      ];
    ]

(* Beyond-paper sweeps. *)

let sweep_set_size cfg =
  let d1 = dataset cfg in
  let w = Relation.window_size d1 Queries.tau in
  let make_pattern ~group k =
    let open Ses_pattern in
    let vars =
      List.init k (fun i ->
          let name = Printf.sprintf "v%d" i in
          if group && i = k - 1 then Variable.group name
          else Variable.singleton name)
    in
    let conds =
      List.init k (fun i ->
          Pattern.Spec.const (Printf.sprintf "v%d" i) "L" Ses_event.Predicate.Eq
            (Ses_event.Value.Str "P"))
      @ [ Pattern.Spec.const "b" "L" Ses_event.Predicate.Eq (Ses_event.Value.Str "B") ]
    in
    Pattern.make_exn ~schema:Ses_gen.Chemo.schema
      ~sets:[ vars; [ Variable.singleton "b" ] ]
      ~where:conds ~within:Queries.tau
  in
  let rows =
    List.map
      (fun k ->
        let p2 = make_pattern ~group:false k in
        let p3 = make_pattern ~group:true k in
        let m2 = ses_metrics p2 d1 and m3 = ses_metrics p3 d1 in
        [
          Report.int_cell k;
          Report.int_cell m2.Metrics.max_simultaneous_instances;
          Report.float_cell ~decimals:0 (Bounds.overall p2 ~w);
          Report.int_cell m3.Metrics.max_simultaneous_instances;
          Report.float_cell ~decimals:0 (Bounds.overall p3 ~w);
        ])
      [ 2; 3; 4 ]
  in
  Report.make
    ~title:
      "Sweep: set size |V1| vs measured peak and Theorem 2/3 bounds (D1)"
    ~headers:
      [ "|V1|"; "case 2 peak"; "case 2 bound"; "case 3 peak"; "case 3 bound" ]
    rows

let sweep_selectivity cfg =
  (* Fraction of matching events vs work: an overlapping two-variable
     pattern over a synthetic relation whose label alphabet grows, so the
     matching fraction is 1/n_labels. *)
  ignore cfg;
  let open Ses_pattern in
  let pattern_sel =
    Pattern.make_exn ~schema:Ses_gen.Random_workload.schema
      ~sets:
        [
          [ Variable.singleton "x"; Variable.singleton "y" ];
          [ Variable.singleton "z" ];
        ]
      ~where:
        [
          Pattern.Spec.const "x" "L" Ses_event.Predicate.Eq (Ses_event.Value.Str "a");
          Pattern.Spec.const "y" "L" Ses_event.Predicate.Eq (Ses_event.Value.Str "a");
          Pattern.Spec.const "z" "L" Ses_event.Predicate.Eq (Ses_event.Value.Str "a");
        ]
      ~within:40
  in
  let automaton = Automaton.of_pattern pattern_sel in
  let rows =
    List.map
      (fun n_labels ->
        let rng = Ses_gen.Prng.create 0x5E1EC7L in
        let r =
          Ses_gen.Random_workload.relation rng
            {
              Ses_gen.Random_workload.default_relation with
              Ses_gen.Random_workload.n_events = 1500;
              n_labels;
              max_gap = 2;
            }
        in
        let options = raw_options Event_filter.No_filter in
        let outcome, t =
          Timer.time (fun () -> Engine.run_relation ~options automaton r)
        in
        [
          Report.int_cell n_labels;
          Report.float_cell ~decimals:2 (1.0 /. float_of_int n_labels);
          Report.int_cell outcome.Engine.metrics.Metrics.max_simultaneous_instances;
          Report.int_cell (List.length outcome.Engine.raw);
          Report.float_cell t;
        ])
      [ 1; 2; 4; 8 ]
  in
  Report.make
    ~title:"Sweep: event selectivity vs peak instances and time (1.5k events)"
    ~headers:[ "labels"; "match fraction"; "peak |O|"; "raw matches"; "time [s]" ]
    rows

let run_all ?csv_dir ~ppf cfg =
  let save name table =
    match csv_dir with
    | None -> ()
    | Some dir -> (
        match Report.save_csv (Filename.concat dir (name ^ ".csv")) table with
        | Ok () -> ()
        | Error msg -> Printf.eprintf "warning: %s\n" msg)
  in
  let show name table =
    Format.fprintf ppf "%a@.@." Report.pp table;
    save name table
  in
  show "datasets" (datasets_table cfg);
  let fig11, table1 = exp1 cfg in
  show "exp1_fig11" fig11;
  show "exp1_table1" table1;
  show "exp2_fig12" (exp2 cfg);
  show "exp3_fig13" (exp3 cfg);
  show "ablation_filter" (ablation_filter cfg);
  show "ablation_precheck" (ablation_precheck cfg);
  show "ablation_prune" (ablation_prune cfg);
  show "ablation_partition" (ablation_partition cfg);
  show "sweep_set_size" (sweep_set_size cfg);
  show "sweep_selectivity" (sweep_selectivity cfg)
