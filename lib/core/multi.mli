(** Multi-query execution: several SES automata over one event feed.

    Event-processing deployments register many patterns against the same
    stream (the publish/subscribe setting of Cayuga, which the paper cites
    as the home of instance-indexing techniques). [Multi] evaluates a
    single chronological feed against every registered query and collects
    completions per query name. Results are identical to running each
    automaton separately over the same feed. Queries can mix strategies:
    one can run the planner's levers while its neighbours run the plain
    engine.

    {b Shared plan.} Registrations live in one {!Shared_plan}: the
    distinct constant predicates across all queries' filters are
    evaluated once per event by a predicate index, which routes each
    event only to the executors of the queries it can affect. A routed
    query's executor sees no other event: the plan advances its clock
    ({!Executor.advance}) to the last event of each feed instead, so its
    windows close on time. Every registration keeps its own executor, so
    routing is result-transparent: per-query matches, raw emissions and
    metrics equal those of one isolated executor per query fed every
    event (the population peak aside, see {!Shared_plan}).
    {!register} and {!unregister} add and retire one query in place, at
    any point of the stream.

    {b Domain-parallel mode.} When [options.domains > 1] (clamped to the
    number of queries), worker domains process the broadcast feed in
    parallel. Queries are dealt round-robin to the workers, and each
    worker builds its own shared plan over its queries (on its own
    domain). Each query is still evaluated by one domain, strictly
    sequentially, so per-query matches and raw emissions are identical
    to the sequential mode. The workers feed one event at a time, so
    [max_simultaneous_instances] may read lower than under the
    sequential mode's chunked feed. Operationally:
    [feed] returns [[]] — completions surface at [close]/{!outcomes} —
    [population]/{!outcomes} quiesce the workers first, [close] joins
    the domains and forbids further feeding, and worker exceptions
    re-raise at the next call. *)

open Ses_event

type t

val create :
  ?options:Engine.options ->
  ?strategy:Executor.strategy ->
  (string * Automaton.t) list ->
  t
(** Registers named queries, all under one strategy (default [`Plain]).
    Names must be distinct and non-empty; raises [Invalid_argument]
    otherwise. The options apply to every query. The list may be empty:
    a sequential query set can be filled with {!register}. *)

val create_mixed :
  ?options:Engine.options ->
  (string * Automaton.t * Executor.strategy) list ->
  t
(** Per-query strategies. *)

val register : t -> string * Automaton.t * Executor.strategy -> unit
(** Adds a query to a live sequential query set, routed like every
    other ({!Shared_plan.register}). It observes only the events fed
    after it: its outcome and metrics equal an isolated run over that
    suffix.
    Raises [Invalid_argument] on an empty or duplicate name, on a closed
    query set, or on a domain-parallel query set (those are fixed at
    creation). *)

val unregister : t -> string -> Engine.outcome
(** Removes a query from a live sequential query set and returns its
    finalized outcome to date, accepting instances flushed in close
    order. The remaining queries' future matches and metrics are as if
    the set had been built without it: each runs its own executor, and
    the retiree's predicate-index slot goes with it (see
    {!Shared_plan.retire}).
    Raises [Invalid_argument] on an unknown name, a closed query set or
    a domain-parallel query set. *)

val names : t -> string list

val n_domains : t -> int
(** Worker domains in use (1 in sequential mode). *)

val feed : t -> Event.t -> (string * Substitution.t list) list
(** Pushes one event to every query; returns the raw substitutions whose
    instances completed on this event, grouped by query name in
    registration order (queries with no completions are omitted). *)

val feed_batch : t -> Event.t array -> (string * Substitution.t list) list
(** Pushes a chronological chunk; completions are aggregated over the
    chunk. In domain-parallel mode the chunk enters the broadcast
    batcher and [[]] is returned. *)

val close : t -> (string * Substitution.t list) list
(** Flushes accepting instances of every query. *)

val population : t -> int
(** Total live instances across all queries. *)

val outcomes : t -> (string * Engine.outcome) list
(** Per-query finalized outcomes (callable after [close]). *)

val merged_metrics : t -> Metrics.snapshot
(** The cross-query view, via {!Metrics.merge_replicas}: every query
    observes the whole feed (routed metrics are compensated to the
    unrouted view), so the input counters take the max and the work
    counters (including the instance peaks) sum. Deterministic in both
    sequential and domain-parallel mode. *)

val shared_stats : t -> Shared_plan.stats list
(** The shared plan's routing summary — routed queries, indexed atoms,
    predicate-index hit rate. One entry per worker plan in
    domain-parallel mode, a singleton in sequential mode. *)

val run :
  ?options:Engine.options ->
  ?strategy:Executor.strategy ->
  (string * Automaton.t) list ->
  Event.t Seq.t ->
  (string * Engine.outcome) list
(** Feed-all + close + outcomes in one call. *)
