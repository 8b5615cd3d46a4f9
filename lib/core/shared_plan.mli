(** The routing pipeline behind {!Multi}.

    Given a set of named query registrations, builds one plan with one
    executor per registration behind a shared {!Predicate_index}: the
    distinct constant atoms across all queries' strong-filter clauses
    are evaluated once per event, and each query learns whether the
    event can affect it without re-testing shared atoms. A query whose
    executor gates on its strong filter is fed only its routed
    subsequence; a routed query that does not gate is also fed every
    event while it holds instances (τ-expiry timing); an unroutable
    query is fed everything.

    Per-query raw emissions, matches and metrics are identical to
    running each registration independently, raw emission order
    included: routing only skips events that could neither fire a
    transition nor kill an instance, and skipped events are accounted
    back into the metrics. *)

open Ses_event

type reg = {
  r_name : string;
  r_automaton : Automaton.t;
  r_strategy : Executor.strategy;
}

type t

val create : options:Engine.options -> reg list -> t

val feed : t -> Event.t -> (string * Substitution.t list) list
(** Pushes one event (chronological order required) and returns, per
    registered name in registration order, the raw substitutions whose
    instances completed on it (names with none are omitted). *)

val feed_batch : t -> Event.t array -> (string * Substitution.t list) list
(** Pushes a chronological chunk; same contract as {!feed}, with
    completions aggregated over the chunk: each executor receives the
    events it takes as one [feed_batch]. *)

val close : t -> (string * Substitution.t list) list
(** End of input: flushes accepting instances. Subsequent [feed]s
    raise; subsequent [close]s return []. *)

val population : t -> int
(** Total live instances across all registered names. *)

type query_result = {
  q_name : string;
  q_automaton : Automaton.t;
  q_raw : Substitution.t list;
  q_metrics : Metrics.snapshot;
}

val results : t -> query_result list
(** Per-registration raw emissions and metrics, in registration order.
    Metrics are compensated so they equal independent execution's.
    Registrations removed by {!retire} are omitted. *)

val retire : t -> string -> query_result
(** Removes a registered query from a live plan and returns its outcome
    to date: its executor is closed, so the raw emissions include the
    close-time flush. The remaining queries are untouched — each has its
    own executor — and the retiree's predicate-index slot stops routing.
    Raises [Invalid_argument] on an unknown (or already retired) name,
    or if the plan is closed. *)

val events_fed : t -> int
(** Events pushed so far ([feed] counts 1, [feed_batch] its length). *)

(** {1 Introspection} *)

type stats = {
  st_routed : string list;
      (** live registrations fed through the predicate index, in
          registration order *)
  st_merged_queries : int;
      (** Always 0: no query shares another's instance population. Kept,
          with [st_aliased_queries], for existing readers of this
          summary (the end-to-end benchmark's traced run reports both). *)
  st_aliased_queries : int;
      (** Always 0: no query shares another's executor. *)
  st_template_groups : string list list;
      (** registration names per template (queries equal up to
          constants), groups of two or more *)
  st_index_atoms : int;
  st_index_evaluated : int;
  st_index_saved : int;
  st_index_hit_rate : float;
}

val stats : t -> stats
