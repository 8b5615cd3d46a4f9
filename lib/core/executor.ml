open Ses_event

type strategy = [ `Auto | `Plain | `Naive | `Brute_force ]

let strategies : strategy list =
  [ `Auto; `Plain; `Naive; `Brute_force ]

let strategy_name = function
  | `Auto -> "auto"
  | `Plain -> "plain"
  | `Naive -> "naive"
  | `Brute_force -> "brute-force"

let strategy_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Ok `Auto
  | "plain" | "engine" -> Ok `Plain
  | "naive" -> Ok `Naive
  | "brute-force" | "brute_force" | "bf" -> Ok `Brute_force
  | other ->
      Error
        (Printf.sprintf
           "unknown strategy %S (expected auto, plain, naive or brute-force)"
           other)

module type EXECUTOR = sig
  type t

  val name : string

  val create : ?options:Engine.options -> Automaton.t -> t

  val feed : t -> Event.t -> Substitution.t list

  val feed_batch : t -> Event.t array -> Substitution.t list

  val advance : t -> Time.t -> Substitution.t list

  val close : t -> Substitution.t list

  val emitted : t -> Substitution.t list

  val population : t -> int

  val metrics : t -> Metrics.snapshot
end

(* Registry-wide default for executors without a native batched path:
   feed one event at a time, concatenating completions in feed order. *)
let batch_of_feed feed t es =
  let acc = ref [] in
  Array.iter (fun e -> acc := List.rev_append (feed t e) !acc) es;
  List.rev !acc

module Plain : EXECUTOR with type t = Engine.stream = struct
  type t = Engine.stream

  let name = "plain"

  let create = Engine.create

  let feed = Engine.feed

  let feed_batch = Engine.feed_batch

  let advance = Engine.advance

  let close = Engine.close

  let emitted = Engine.emitted

  let population = Engine.population

  let metrics = Engine.metrics
end

module Auto : EXECUTOR = struct
  include Plain

  let name = "auto"

  let create = Planner.create
end

module Naive_exec : EXECUTOR = struct
  type t = Naive.stream

  let name = "naive"

  let create = Naive.create

  let feed = Naive.feed

  let feed_batch = Naive.feed_batch

  let advance = Naive.advance

  let close = Naive.close

  let emitted = Naive.emitted

  let population = Naive.population

  let metrics = Naive.metrics
end

(* Uniform instrumentation over any strategy: an [ingest] span and an
   [event_ns] histogram per pushed unit — one event through [feed], a
   whole chunk through [feed_batch] — resolved once at [create] from
   [options.telemetry] (one interval read feeds both). Applied by
   [of_strategy] so every strategy — including the injected brute-force
   baseline — reports through the same probe names. *)
module Instrument (E : EXECUTOR) : EXECUTOR = struct
  type probes = {
    ingest : Telemetry.Span.t;
    event_ns : Telemetry.Histogram.t;
  }

  type t = {
    inner : E.t;
    probes : probes option;
  }

  let name = E.name

  let create ?(options = Engine.default_options) automaton =
    let inner = E.create ~options automaton in
    let probes =
      Option.map
        (fun tl ->
          {
            ingest = Telemetry.span tl "ingest";
            event_ns = Telemetry.histogram tl "event_ns";
          })
        options.Engine.telemetry
    in
    { inner; probes }

  let feed t e =
    match t.probes with
    | None -> E.feed t.inner e
    | Some p ->
        let tok = Telemetry.Span.start p.ingest in
        let out = E.feed t.inner e in
        Telemetry.Histogram.observe p.event_ns
          (Telemetry.Span.stop_elapsed p.ingest tok);
        out

  (* Batch-aggregate probes: one [ingest] span and one [event_ns] sample
     per chunk, so instrumentation overhead amortizes with batch size. *)
  let feed_batch t es =
    match t.probes with
    | None -> E.feed_batch t.inner es
    | Some p ->
        let tok = Telemetry.Span.start p.ingest in
        let out = E.feed_batch t.inner es in
        Telemetry.Histogram.observe p.event_ns
          (Telemetry.Span.stop_elapsed p.ingest tok);
        out

  let advance t ts = E.advance t.inner ts

  let close t = E.close t.inner

  let emitted t = E.emitted t.inner

  let population t = E.population t.inner

  let metrics t = E.metrics t.inner
end

(* The brute-force baseline lives in [ses_baseline], which depends on
   this library, so its executor is injected rather than referenced:
   [Ses_baseline.Brute_force.register] installs it. *)
let brute_force : (module EXECUTOR) option ref = ref None

let register_brute_force m = brute_force := Some m

module Auto_i = Instrument (Auto)
module Plain_i = Instrument (Plain)
module Naive_i = Instrument (Naive_exec)

let of_strategy : strategy -> (module EXECUTOR) = function
  | `Auto -> (module Auto_i)
  | `Plain -> (module Plain_i)
  | `Naive -> (module Naive_i)
  | `Brute_force -> (
      match !brute_force with
      | Some m ->
          let module M = (val m : EXECUTOR) in
          (module Instrument (M))
      | None ->
          failwith
            "Executor: brute-force strategy not registered (call \
             Ses_baseline.Brute_force.register first)")

type packed = Packed : (module EXECUTOR with type t = 'a) * 'a -> packed

let create ?options strategy automaton =
  let (module E) = of_strategy strategy in
  Packed ((module E), E.create ?options automaton)

let name (Packed ((module E), _)) = E.name

let feed (Packed ((module E), t)) e = E.feed t e

let feed_batch (Packed ((module E), t)) es = E.feed_batch t es

let advance (Packed ((module E), t)) ts = E.advance t ts

let close (Packed ((module E), t)) = E.close t

let emitted (Packed ((module E), t)) = E.emitted t

let population (Packed ((module E), t)) = E.population t

let metrics (Packed ((module E), t)) = E.metrics t

(* One buffer reused for every full chunk (executors don't retain the
   array past [feed_batch] — see {!EXECUTOR.feed_batch}); a fresh
   per-chunk array above ~256 words would be allocated on the major
   heap, and the resulting churn dominates the batch path's own cost.
   Allocated lazily off the first element, since there is no dummy value
   to fill it with. *)
let iter_chunks ~batch_size f events =
  let chunk = max 1 batch_size in
  let buf = ref [||] and n = ref 0 in
  let flush () =
    if !n > 0 then begin
      let arr =
        if !n = Array.length !buf then !buf else Array.sub !buf 0 !n
      in
      n := 0;
      f arr
    end
  in
  Seq.iter
    (fun e ->
      if Array.length !buf = 0 then buf := Array.make chunk e;
      !buf.(!n) <- e;
      incr n;
      if !n >= chunk then flush ())
    events;
  flush ()

let drive ?(options = Engine.default_options) exec automaton events =
  (* Push the sequence through the batched path: all per-batch
     amortizations (engine prechecks, bucket handles, telemetry probes)
     activate from here without the caller changing shape. *)
  iter_chunks ~batch_size:options.Engine.batch_size
    (fun chunk -> ignore (feed_batch exec chunk))
    events;
  ignore (close exec);
  let raw = emitted exec in
  let finalize () =
    if options.Engine.finalize then
      Substitution.finalize ~policy:options.Engine.policy
        (Automaton.pattern automaton) raw
    else raw
  in
  let matches =
    match options.Engine.telemetry with
    | None -> finalize ()
    | Some tl -> Telemetry.Span.record (Telemetry.span tl "finalize") finalize
  in
  { Engine.matches; raw; metrics = metrics exec }

let run ?(options = Engine.default_options) strategy automaton events =
  drive ~options (create ~options strategy automaton) automaton events

let run_relation ?options strategy automaton relation =
  run ?options strategy automaton (Relation.to_seq relation)
