open Ses_event
open Ses_pattern
open Ses_core

type outcome = {
  matches : Substitution.t list;
  raw : Substitution.t list;
  metrics : Metrics.snapshot;
  executor : string;
  events_scanned : int;
  events_delivered : int;
  pushed : Ses_store.Selection.predicate option;
}

let selection_of_pattern ?extra p =
  match Event_filter.strong_clauses ?extra p with
  | None -> None
  | Some clauses ->
      let schema = Pattern.schema p in
      Some
        (Ses_store.Selection.disj
           (List.map
              (fun clause ->
                Ses_store.Selection.conj
                  (List.map
                     (fun (field, op, v) ->
                       Ses_store.Selection.attr
                         (Schema.Field.name schema field) op v)
                     clause))
              clauses))

(* Per-field selectivity telemetry over a pushed-down selection: each
   atom actually evaluated bumps [csv.select.<field>.tested] and, when
   it holds, [csv.select.<field>.passed]. Counts accumulate in plain
   per-field cells on the hot path and drain into the shared counters
   through the returned flush — called once per delivered chunk and once
   when the scan ends — so an instrumented scan pays two int stores per
   atom, not a counter update. Handles are memoized per field name. *)
type trace_cell = {
  c_tested : Telemetry.Counter.t;
  c_passed : Telemetry.Counter.t;
  mutable n_tested : int;
  mutable n_passed : int;
}

let selection_trace tl =
  let handles : (string, trace_cell) Hashtbl.t = Hashtbl.create 8 in
  let cells = ref [] in
  let resolve name =
    match Hashtbl.find_opt handles name with
    | Some cell -> cell
    | None ->
        let cell =
          {
            c_tested =
              Telemetry.counter tl (Printf.sprintf "csv.select.%s.tested" name);
            c_passed =
              Telemetry.counter tl (Printf.sprintf "csv.select.%s.passed" name);
            n_tested = 0;
            n_passed = 0;
          }
        in
        Hashtbl.add handles name cell;
        cells := cell :: !cells;
        cell
  in
  let trace name passed =
    let cell = resolve name in
    cell.n_tested <- cell.n_tested + 1;
    if passed then cell.n_passed <- cell.n_passed + 1
  in
  let flush () =
    List.iter
      (fun cell ->
        if cell.n_tested > 0 then begin
          Telemetry.Counter.add cell.c_tested cell.n_tested;
          cell.n_tested <- 0
        end;
        if cell.n_passed > 0 then begin
          Telemetry.Counter.add cell.c_passed cell.n_passed;
          cell.n_passed <- 0
        end)
      !cells
  in
  (trace, flush)

let run ?(options = Engine.default_options) ?(strategy = `Auto)
    ?(push_filter = true) ~query path =
  Ses_baseline.Brute_force.register ();
  Ses_store.Csv_stream.with_source path (fun src ->
      match query (Ses_store.Csv_stream.source_schema src) with
      | Error _ as e -> e
      | Ok automaton -> (
          let pattern = Automaton.pattern automaton in
          (* When the static analyzer is registered, push its inferred
             constants down to the source as well — they are implied by
             the pattern, so the selection stays result-preserving. *)
          let extra =
            match Planner.analyze automaton with
            | Some a -> a.Planner.filter_extras
            | None -> []
          in
          let pushed =
            if push_filter then selection_of_pattern ~extra pattern else None
          in
          (* [install] yields the per-chunk trace flush (a no-op when
             the scan is untraced). *)
          let install =
            match pushed with
            | None -> Ok (fun () -> ())
            | Some p -> (
                match options.Engine.telemetry with
                | None ->
                    Result.map
                      (fun () -> fun () -> ())
                      (Ses_store.Csv_stream.push_selection src p)
                | Some tl ->
                    let trace, flush = selection_trace tl in
                    Result.map
                      (fun () -> flush)
                      (Ses_store.Csv_stream.push_selection ~trace src p))
          in
          match install with
          | Error _ as e -> e
          | Ok flush_trace -> (
              let exec = Executor.create ~options strategy automaton in
              let rate =
                Option.map
                  (fun tl ->
                    (tl, Telemetry.gauge tl "stream.rows_per_sec"))
                  options.Engine.telemetry
              in
              (* Chunked delivery: the scan yields filtered chunks of
                 [options.batch_size] events that go straight into the
                 executor's batched path — no per-event re-boxing in
                 between — and the delivery-rate gauge and the traced
                 selection counters settle once per chunk. *)
              let chunk = max 1 options.Engine.batch_size in
              let feed_all () =
                let mark =
                  ref (match rate with None -> 0 | Some (tl, _) -> Telemetry.now tl)
                in
                let rec go () =
                  match Ses_store.Csv_stream.next_batch src chunk with
                  | Error _ as e -> e
                  | Ok [||] -> Ok ()
                  | Ok es ->
                      ignore (Executor.feed_batch exec es);
                      flush_trace ();
                      (match rate with
                      | None -> ()
                      | Some (tl, g) ->
                          let t = Telemetry.now tl in
                          let dt = t - !mark in
                          if dt > 0 then
                            Telemetry.Gauge.observe g
                              (Array.length es * 1_000_000_000 / dt);
                          mark := t);
                      go ()
                in
                (* Rows the filter drops after the last delivered chunk
                   were tested too. *)
                let result = go () in
                flush_trace ();
                result
              in
              match feed_all () with
              | Error _ as e -> e
              | Ok () ->
                  (* The rows the pushed filter dropped after the last
                     delivered one still move the clock: windows they
                     close expire before the close-time flush, as under
                     the unpushed feed. *)
                  Option.iter
                    (fun ts -> ignore (Executor.advance exec ts))
                    (Ses_store.Csv_stream.last_ts src);
                  ignore (Executor.close exec);
                  let raw = Executor.emitted exec in
                  let finalize () =
                    if options.Engine.finalize then
                      Substitution.finalize ~policy:options.Engine.policy
                        pattern raw
                    else raw
                  in
                  let matches =
                    match options.Engine.telemetry with
                    | None -> finalize ()
                    | Some tl ->
                        Telemetry.Span.record
                          (Telemetry.span tl "finalize")
                          finalize
                  in
                  let scanned = Ses_store.Csv_stream.scanned src in
                  let dropped = Ses_store.Csv_stream.dropped src in
                  (* Account for store-side drops so the snapshot reads
                     the same as an in-engine filter would: every scanned
                     row was "seen", the pushed-down rejections were
                     "filtered". *)
                  let m = Executor.metrics exec in
                  let metrics =
                    {
                      m with
                      Metrics.events_seen = m.Metrics.events_seen + dropped;
                      events_filtered = m.Metrics.events_filtered + dropped;
                    }
                  in
                  Ok
                    {
                      matches;
                      raw;
                      metrics;
                      executor = Executor.name exec;
                      events_scanned = scanned;
                      events_delivered = scanned - dropped;
                      pushed;
                    })))
