(* The traced run: the same workload replayed in-process through the
   public functions the CLI and the server call, each call timed from
   here, plus the spans the existing [Telemetry] recorder already
   plants (engine: ingest, filter, transition, expiry, finalize; server:
   server.ingest, server.emit). Spans stay in memory and are read once at
   the end. Layer times are reported as self-time shares of the traced
   wall clock.

   The serve replay records only the server's own spans, as [ses serve]
   does by default: engine probes inside [Multi] would fire per query per
   batch, and the open-loop workload's batches are a few rows each. The
   engine's share there is [multi.feed_share], from an isolated pass. *)

open Ses_event
open Ses_core
module Runtime = Ses_server.Runtime

let time f =
  let t = Proc.now () in
  let r = f () in
  (r, Proc.now () -. t)

let span_s (p : Telemetry.profile) name =
  match List.assoc_opt name p.Telemetry.spans with
  | Some d -> float_of_int d.Telemetry.span_total_ns /. 1e9
  | None -> 0.

(* Per-layer metrics a workload does not exercise read 0: every workload
   reports the same names. *)
let zeros names = List.map (fun n -> (n, 0.)) names

let engine_share_names =
  [ "engine.ingest_share"; "engine.filter_share"; "engine.transition_share";
    "engine.expiry_share"; "finalize.share" ]

(* Self time of the engine's executor-level [ingest] span: what is left
   once the nested filter, transition and expiry spans are taken out. *)
let engine_shares p ~wall =
  let filter = span_s p "filter"
  and transition = span_s p "transition"
  and expiry = span_s p "expiry" in
  [
    ( "engine.ingest_share",
      Float.max 0. (span_s p "ingest" -. filter -. transition -. expiry) /. wall );
    ("engine.filter_share", filter /. wall);
    ("engine.transition_share", transition /. wall);
    ("engine.expiry_share", expiry /. wall);
    ("finalize.share", span_s p "finalize" /. wall);
  ]

let engine_counts (m : Metrics.snapshot) ~raw ~matches =
  [
    ("engine.instances_created", float_of_int m.Metrics.instances_created);
    ("engine.max_instances", float_of_int m.Metrics.max_simultaneous_instances);
    ("engine.raw_emissions", float_of_int raw);
    ( "finalize.keep_ratio",
      if raw = 0 then 1. else float_of_int matches /. float_of_int raw );
  ]

let match_only_names =
  [ "access.prepare_share"; "access.run_share"; "access.candidates";
    "access.candidate_frac"; "csv.load_share" ]

let serve_only_names =
  [
    "csv.row_parse_share"; "session.feed_share"; "runtime.input_share";
    "runtime.tick_share"; "runtime.ingest_share"; "multi.feed_share";
    "multi.register_share"; "multi.unregister_share";
    "predicate_index.hit_rate"; "shared_plan.merged_queries";
    "shared_plan.aliased_queries";
  ]

type result = {
  wall_s : float;
  coverage : float;
  layers : (string * float) list;
  outputs : string list;  (** sorted, comparable with the e2e run's *)
}

(* ---- ses match ---- *)

let match_run (m : Workload.match_input) =
  Ses_baseline.Brute_force.register ();
  Ses_analysis.Analyzer.register ();
  let recorder = Telemetry.create () in
  let options = { Engine.default_options with Engine.telemetry = Some recorder } in
  let t0 = Proc.now () in
  let relation, load =
    time (fun () ->
        match Ses_store.Csv.load m.data with
        | Ok r -> r
        | Error msg -> failwith msg)
  in
  let (pattern, automaton), compile =
    time (fun () ->
        let p = Ses_lang.Lang.parse_pattern_exn (Relation.schema relation) m.query in
        (p, Automaton.of_pattern p))
  in
  let prepared, prepare =
    time (fun () -> Ses_harness.Access_exec.prepare relation)
  in
  let outcome, run =
    time (fun () ->
        Ses_harness.Access_exec.run ~options ~strategy:`Auto ~mode:`Auto prepared
          automaton)
  in
  let rendered, render =
    time (fun () ->
        let b = Buffer.create 65536 in
        let ppf = Format.formatter_of_buffer b in
        List.iter
          (fun s -> Format.fprintf ppf "%a@." (Substitution.pp pattern) s)
          outcome.Ses_harness.Access_exec.matches;
        Buffer.contents b)
  in
  let wall = Proc.now () -. t0 in
  let p = Telemetry.snapshot recorder in
  let engine_total = span_s p "ingest" +. span_s p "finalize" in
  let raw = List.length outcome.Ses_harness.Access_exec.raw in
  let matches = List.length outcome.Ses_harness.Access_exec.matches in
  let layers =
    [
      ("csv.load_share", load /. wall);
      ("access.prepare_share", prepare /. wall);
      ("access.run_share", Float.max 0. (run -. engine_total) /. wall);
      ("access.candidates", float_of_int outcome.Ses_harness.Access_exec.candidates);
      ( "access.candidate_frac",
        float_of_int outcome.Ses_harness.Access_exec.candidates
        /. float_of_int (max 1 (Relation.cardinality relation)) );
      ("render.share", render /. wall);
      ("render.bytes", float_of_int (String.length rendered));
    ]
    @ engine_shares p ~wall
    @ engine_counts outcome.Ses_harness.Access_exec.metrics ~raw ~matches
    @ zeros serve_only_names
  in
  {
    wall_s = wall;
    coverage = (load +. compile +. prepare +. run +. render) /. wall;
    layers;
    outputs =
      String.split_on_char '\n' rendered
      |> List.filter (fun l -> not (String.equal l ""))
      |> List.sort String.compare;
  }

(* ---- ses serve ---- *)

(* The MATCH and RESULT lines a connection received, in comparable form. *)
let reply_lines ~tenant text =
  String.split_on_char '\n' text
  |> List.filter_map (fun l ->
         match Ses_server.Protocol.parse_reply l with
         | Ok (Ses_server.Protocol.Match { query; subst; _ }) ->
             Some ("MATCH " ^ tenant ^ "." ^ query ^ " " ^ subst)
         | Ok (Ses_server.Protocol.Result { query; subst; _ }) ->
             Some ("RESULT " ^ tenant ^ "." ^ query ^ " " ^ subst)
         | _ -> None)

let schema = Ses_gen.Random_workload.schema

(* Runtime replay: the recorded writes, same chunking, [?now] from the
   recorded schedule. A connection blocked by backpressure is not read
   until the scheduler has drained its tenant, as in the select loop. The
   server.ingest span nests inside both [input] (REGISTER, UNREGISTER and
   QUIT drain first) and [tick]; its growth across each call splits it
   between the two. *)
let serve_run (input : Workload.serve_input) (writes : Serve_run.write list) =
  let recorder = Telemetry.create () in
  let config =
    { (Runtime.default_config ~schema) with Runtime.telemetry = Some recorder }
  in
  let rt = Runtime.create config in
  let ids = Array.of_list (List.map (fun _ -> Runtime.add_conn rt) input.tenants) in
  let received = Array.map (fun _ -> Buffer.create 65536) ids in
  let ingest_span = Telemetry.span recorder "server.ingest" in
  let t_input = ref 0. and t_tick = ref 0. and t_take = ref 0. in
  let ingest_in_input = ref 0 and ingest_in_tick = ref 0 in
  let timed acc nested f =
    let before = Telemetry.Span.total_ns ingest_span in
    let (), dt = time f in
    acc := !acc +. dt;
    nested := !nested + (Telemetry.Span.total_ns ingest_span - before)
  in
  let collect () =
    let (), dt =
      time (fun () ->
          Array.iteri
            (fun i id -> Buffer.add_string received.(i) (Runtime.take_output rt id))
            ids)
    in
    t_take := !t_take +. dt
  in
  let tick now =
    timed t_tick ingest_in_tick (fun () -> Runtime.tick ~now rt);
    collect ()
  in
  let t0 = Proc.now () in
  List.iter
    (fun (w : Serve_run.write) ->
      let id = ids.(w.conn) in
      while (not (Runtime.want_read rt id)) && not (Runtime.is_closing rt id) do
        tick w.at
      done;
      timed t_input ingest_in_input (fun () -> Runtime.input ~now:w.at rt id w.data);
      tick w.at)
    writes;
  let wall = Proc.now () -. t0 in
  let p = Telemetry.snapshot recorder in
  let s x = float_of_int x /. 1e9 in
  let ingest = span_s p "server.ingest" and emit = span_s p "server.emit" in
  let outputs =
    List.concat
      (List.mapi
         (fun i (t : Workload.tenant) ->
           reply_lines ~tenant:t.tname (Buffer.contents received.(i)))
         input.tenants)
  in
  let layers =
    [
      ("runtime.input_share", (!t_input -. s !ingest_in_input) /. wall);
      ("runtime.tick_share", (!t_tick -. s !ingest_in_tick) /. wall);
      ("runtime.ingest_share", (ingest -. emit) /. wall);
      ("render.share", emit /. wall);
      ( "render.bytes",
        float_of_int (List.fold_left (fun acc l -> acc + String.length l + 1) 0 outputs) );
    ]
    @ zeros engine_share_names
  in
  ( wall,
    (!t_input +. !t_tick +. !t_take) /. wall,
    layers,
    List.filter (String.starts_with ~prefix:"RESULT ") outputs
    |> List.sort String.compare )

(* Isolated passes over the same input, each timed alone: the session
   state machine over each connection's byte stream, the row parser over
   every row, and [Multi] over the same registrations and 256-row drain
   chunks. They split what the replay's [Runtime.input] and server.ingest
   times contain. *)
let isolated (input : Workload.serve_input) (writes : Serve_run.write list) ~wall =
  let n_conns = List.length input.tenants in
  let (), session =
    time (fun () ->
        let sessions = Array.init n_conns (fun _ -> Ses_server.Session.create ()) in
        List.iter
          (fun (w : Serve_run.write) ->
            ignore (Ses_server.Session.feed sessions.(w.conn) w.data))
          writes)
  in
  let events, row_parse =
    time (fun () ->
        List.map
          (fun (t : Workload.tenant) ->
            Array.mapi
              (fun seq row ->
                match Ses_store.Csv_stream.row_of_line schema ~seq row with
                | Ok e -> e
                | Error msg -> failwith msg)
              t.rows)
          input.tenants)
  in
  let options = { Engine.default_options with Engine.domains = 1 } in
  let t_reg = ref 0. and t_feed = ref 0. and t_unreg = ref 0. in
  let raw = ref 0 and matches = ref 0 in
  let created = ref 0 and max_inst = ref 0 in
  let hit_rates = ref [] and merged = ref 0 and aliased = ref 0 in
  List.iter2
    (fun (t : Workload.tenant) (evs : Event.t array) ->
      let automata =
        List.map
          (fun (q : Workload.query) ->
            (q, Automaton.of_pattern (Ses_lang.Lang.parse_pattern_exn schema q.text)))
          t.queries
      in
      let multi = ref None in
      let register (q : Workload.query) a =
        let (), dt =
          time (fun () ->
              match !multi with
              | None ->
                  multi := Some (Multi.create_mixed ~options [ (q.qname, a, `Plain) ])
              | Some m -> Multi.register m (q.qname, a, `Plain))
        in
        t_reg := !t_reg +. dt
      in
      let unregister (q : Workload.query) =
        let o, dt = time (fun () -> Multi.unregister (Option.get !multi) q.qname) in
        t_unreg := !t_unreg +. dt;
        raw := !raw + List.length o.Engine.raw;
        matches := !matches + List.length o.Engine.matches;
        created := !created + o.Engine.metrics.Metrics.instances_created;
        max_inst := !max_inst + o.Engine.metrics.Metrics.max_simultaneous_instances
      in
      let n = Array.length evs in
      let boundaries =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun (q : Workload.query) -> [ q.from_row; q.until_row ])
             t.queries)
      in
      List.iter
        (fun b ->
          List.iter
            (fun ((q : Workload.query), _) -> if q.until_row = b then unregister q)
            automata;
          List.iter
            (fun ((q : Workload.query), a) -> if q.from_row = b && b < n then register q a)
            automata;
          let next =
            List.fold_left (fun acc x -> if x > b && x < acc then x else acc) n boundaries
          in
          let i = ref b in
          let (), dt =
            time (fun () ->
                while !i < next do
                  let len = min 256 (next - !i) in
                  ignore (Multi.feed_batch (Option.get !multi) (Array.sub evs !i len));
                  i := !i + len
                done)
          in
          t_feed := !t_feed +. dt;
          if next = n then
            List.iter
              (fun (s : Shared_plan.stats) ->
                hit_rates := s.Shared_plan.st_index_hit_rate :: !hit_rates;
                merged := !merged + s.Shared_plan.st_merged_queries;
                aliased := !aliased + s.Shared_plan.st_aliased_queries)
              (Multi.shared_stats (Option.get !multi)))
        (List.filter (fun b -> b < n) boundaries);
      List.iter
        (fun ((q : Workload.query), _) -> if q.until_row = n then unregister q)
        automata)
    input.tenants events;
  let layers =
    [
      ("session.feed_share", session /. wall);
      ("csv.row_parse_share", row_parse /. wall);
      ("multi.register_share", !t_reg /. wall);
      ("multi.feed_share", !t_feed /. wall);
      ("multi.unregister_share", !t_unreg /. wall);
      ( "predicate_index.hit_rate",
        match !hit_rates with
        | [] -> 0.
        | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l) );
      ("shared_plan.merged_queries", float_of_int !merged);
      ("shared_plan.aliased_queries", float_of_int !aliased);
    ]
  in
  let counts =
    [
      ("engine.instances_created", float_of_int !created);
      ("engine.max_instances", float_of_int !max_inst);
      ("engine.raw_emissions", float_of_int !raw);
      ( "finalize.keep_ratio",
        if !raw = 0 then 1. else float_of_int !matches /. float_of_int !raw );
    ]
  in
  layers @ counts

let serve (input : Workload.serve_input) (writes : Serve_run.write list) =
  let wall, coverage, replay_layers, outputs = serve_run input writes in
  let isolated_layers, isolated_s = time (fun () -> isolated input writes ~wall) in
  Printf.eprintf "e2e: traced: replay %.2f s, isolated passes %.2f s\n%!" wall isolated_s;
  let layers = replay_layers @ isolated_layers @ zeros match_only_names in
  { wall_s = wall; coverage; layers; outputs }
