(** End-to-end streaming evaluation: store scan → executor → matches.

    Pipes a {!Ses_store.Csv_stream} source into a {!Ses_core.Executor}
    chosen by strategy (planner-auto by default) in filtered chunks of
    [options.batch_size] events ({!Ses_store.Csv_stream.next_batch} into
    [Executor.feed_batch], with no per-event re-boxing in between), so a
    query over an archived relation runs in O(batch) memory in the input
    — no [Relation.t] is ever materialized. This is how [ses match] runs
    a single query. Instrumented runs record a [stream.rows_per_sec]
    gauge sample and settle the traced-selection counters
    ([csv.select.<field>.tested|passed]) once per chunk and once when the
    scan ends. The Sec. 4.5 constant-condition event filter is pushed
    {e down into the store-side scan} whenever the pattern supports the
    strong form (every variable carries at least one constant condition):
    it is decided on each decoded row, and rows no variable could bind
    are dropped before any event is built for them, while sequence
    numbers are still assigned to every scanned row so the surviving
    events — and hence the matches — are identical to the materialized
    path's. *)

open Ses_event
open Ses_pattern
open Ses_core

type outcome = {
  matches : Substitution.t list;  (** finalized (unless options say not to) *)
  raw : Substitution.t list;  (** raw executor emissions *)
  metrics : Metrics.snapshot;
      (** store-side drops folded in: [events_seen] counts every scanned
          row, [events_filtered] includes pushed-down rejections, so the
          snapshot reads the same as an in-engine filter would. *)
  executor : string;  (** name of the strategy that ran *)
  events_scanned : int;  (** rows read from the file *)
  events_delivered : int;  (** rows that reached the executor *)
  pushed : Ses_store.Selection.predicate option;
      (** the predicate pushed into the scan, if any *)
}

val selection_of_pattern :
  ?extra:
    (int
    * (Ses_event.Schema.Field.t * Ses_event.Predicate.op * Ses_event.Value.t)
      list)
    list ->
  Pattern.t ->
  Ses_store.Selection.predicate option
(** The strong-mode Sec. 4.5 filter as a store predicate: a disjunction
    over variables of the conjunction of that variable's constant
    conditions. [None] when some variable has no constant condition
    (the strong filter would be unsound to push). [extra] adds implied
    per-variable constants (from the static analyzer) to each variable's
    conjunction; a variable constrained only through [extra] counts as
    constrained. *)

val run :
  ?options:Engine.options ->
  ?strategy:Executor.strategy ->
  ?push_filter:bool ->
  query:(Schema.t -> (Automaton.t, string) result) ->
  string ->
  (outcome, string) result
(** [run ~query path] opens [path], hands the parsed schema to [query]
    to build the automaton, and streams every event through the chosen
    executor ([?strategy] defaults to [`Auto]; [?push_filter], default
    [true], controls the store-side filter pushdown). Registers the
    brute-force executor so [`Brute_force] works out of the box. Errors
    are file/parse/ordering problems reported by the store layer, or the
    [query] callback's own failure. *)
