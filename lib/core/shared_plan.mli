(** The routing pipeline behind {!Multi}.

    Holds one executor per named query registration behind a shared
    {!Predicate_index}: the distinct constant atoms across all queries'
    strong-filter clauses are evaluated once per event, and each query
    learns whether the event can affect it without re-testing shared
    atoms.

    A routed query — [`Plain] under [No_filter] or [Strong], and
    [`Auto], whose strong clauses exist — has one feed rule: it is fed
    its routed events only, and after every {!feed} or {!feed_batch} it
    is advanced ({!Executor.advance}) to the last timestamp fed when it
    holds instances and was not fed that event. An unrouted event fails
    every clause of the query's strong filter, so it could only have
    closed windows, and the advance closes them on the same event. A
    routed [`Plain] executor runs with its filter stripped: the routing
    already is that filter. An unroutable query — [Paper], a variable
    without a constant condition, [`Naive], [`Brute_force] — is fed
    everything.

    Queries join with {!register} and leave with {!retire}, at any point
    of the stream; each costs one executor. The index is rebuilt from
    the live members lazily, at the next feed or {!stats} read, and its
    evaluation counters stay cumulative across rebuilds.

    Per-query raw emissions, matches and metrics are those of running
    each registration alone over the events fed while it was registered,
    in the same chunks: routing only skips events that could neither
    fire a transition nor kill an instance, and skipped events are
    accounted back into the metrics. Each chunk returns the same
    multiset of raw emissions, and [instances_expired] agrees at every
    chunk boundary; within a chunk an expiry emission may come in
    another position, and [max_simultaneous_instances], sampled only at
    the events a query is fed, may read differently. On the per-event
    {!feed} everything agrees exactly. *)

open Ses_event

type reg = {
  r_name : string;
  r_automaton : Automaton.t;
  r_strategy : Executor.strategy;
}

type t

val create : options:Engine.options -> reg list -> t
(** A plan over the registrations, in order, as if each were
    {!register}ed before the first event. *)

val register : t -> reg -> unit
(** Adds a registration behind the index. It observes only events fed
    from now on: its metrics count from this point ([events_seen],
    [events_filtered] and [instances_created] included). Names are not
    checked for uniqueness (that is {!Multi}'s job). Raises
    [Invalid_argument] if the plan is closed. *)

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
(** Per-registration raw emissions and metrics of the live
    registrations, in registration order. Metrics are compensated so
    they equal those of the registration's executor run alone over the
    events fed since it registered: [events_seen] counts every event,
    and the events a routed query skipped count as [events_filtered]
    when its configured filter is [Strong] (or it runs [`Auto]), and as
    the fresh start instances of [instances_created] under
    [No_filter]. *)

val retire : t -> string -> query_result
(** Removes a registered query from a live plan and returns its outcome
    to date: its executor is closed, so the raw emissions include the
    close-time flush. The remaining queries are untouched — each has its
    own executor — and the retiree's predicate-index slot goes with it.
    Raises [Invalid_argument] on an unknown (or already retired) name,
    or if the plan is closed. *)

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
  st_index_atoms : int;  (** distinct atoms over the live registrations *)
  st_index_evaluated : int;  (** cumulative over index rebuilds *)
  st_index_saved : int;  (** cumulative over index rebuilds *)
  st_index_hit_rate : float;
}

val stats : t -> stats
