(** The unified push-based execution interface.

    Every way this library can evaluate a SES pattern — the plain engine
    (Algorithms 1–2), the planner's automatic lever selection, the
    Definition 2 oracle, and the Sec. 5.2 brute-force baseline —
    implements the same [EXECUTOR] signature:
    [create] an executor from an automaton, [feed] it one chronological
    event at a time (receiving the raw substitutions completed by that
    event), [close] it to flush accepting instances, and read uniform
    {!Metrics} at any point. This is the shape a streaming deployment
    needs (one [feed] per arriving event, O(1) memory in the input), and
    it lets equivalence tests, the CLI and the benchmarks drive all
    strategies through one harness.

    [feed] and [close] return {e raw} emissions: finalization
    (deduplication and the Definition 2 condition 4–5 post-filter) needs
    the whole candidate set, so it is applied by {!run} — or by the
    caller, over {!emitted} — once the input ends. *)

open Ses_event

type strategy = [ `Auto | `Plain | `Naive | `Brute_force ]
(** [`Auto] runs {!Planner.plan}'s choice of levers; [`Plain] the bare
    {!Engine} (whose instance store already gives every strategy built
    on it key locality); [`Naive] the exhaustive Definition 2 oracle;
    [`Brute_force] the one-automaton-per-ordering baseline of Sec. 5.2.

    Every strategy runs a single query on the calling domain and ignores
    [options.domains]: that count spreads several queries across worker
    domains ({!Multi}). *)

val strategies : strategy list

val strategy_name : strategy -> string

val strategy_of_string : string -> (strategy, string) result

module type EXECUTOR = sig
  type t

  val name : string

  val create : ?options:Engine.options -> Automaton.t -> t

  val feed : t -> Event.t -> Substitution.t list
  (** Pushes one event (chronological order required; implementations
      raise [Invalid_argument] on violations) and returns the raw
      substitutions whose instances completed on it. *)

  val feed_batch : t -> Event.t array -> Substitution.t list
  (** Pushes a chronological chunk and returns the raw substitutions it
      completed. Observably equivalent to feeding the events one at a
      time — same finalized matches, same multiset of raw emissions —
      with per-event overheads amortized over the chunk. Every strategy
      implements this natively (see {!Engine.feed_batch} for the
      engine-level contract); implementations without a cheaper path may
      fall back to a per-event loop. The array is owned by the caller
      and may be reused for the next chunk once the call returns —
      implementations that keep events past the call (queues, buffers)
      must copy them out, as the in-repo ones do. *)

  val advance : t -> Time.t -> Substitution.t list
  (** [advance t ts] tells the executor that time [ts] has been reached
      without feeding it an event, and returns the raw substitutions
      whose windows closed by then. It is the executor's clock: afterwards
      the executor stands as if it had been fed an event at [ts] that
      can neither fire a transition nor kill an instance — the same
      instances expired (and counted in [instances_expired]), the same
      emissions — apart from the fresh start instance such an event
      would open and the event counters. So a caller that skips the
      events a query cannot react to, and advances the query to the
      last timestamp it skipped, sees the emissions of the full feed.
      [ts] takes part in the chronology check: a [ts] before the last
      timestamp given raises [Invalid_argument], and so does a later
      event before [ts]. A caller that installs an engine observer
      feeds every event instead (see {!Engine.advance}). *)

  val close : t -> Substitution.t list
  (** End of input: flushes accepting instances. *)

  val emitted : t -> Substitution.t list
  (** All raw emissions so far, oldest first. *)

  val population : t -> int
  (** Live automaton instances (|Ω|). *)

  val metrics : t -> Metrics.snapshot
end

val of_strategy : strategy -> (module EXECUTOR)
(** The registry. [`Brute_force] is injected by [ses_baseline] (a
    dependent library): raises [Failure] unless
    [Ses_baseline.Brute_force.register] has been called.

    Every returned module is wrapped in a uniform instrumentation layer:
    when [options.telemetry] carries a recorder, each [feed] (and each
    [feed_batch] chunk) is timed into an [ingest] span and an [event_ns]
    histogram, so all four strategies report ingest cost through the
    same probe names — per event on the per-event path, per batch on the
    batched one. *)

val register_brute_force : (module EXECUTOR) -> unit

val batch_of_feed :
  ('t -> Event.t -> Substitution.t list) ->
  't ->
  Event.t array ->
  Substitution.t list
(** [batch_of_feed feed t es] is the registry-wide default [feed_batch]:
    a per-event loop concatenating completions in feed order. External
    [EXECUTOR] implementations without a native batched path can use it
    directly. *)

(** {1 Packed executors}

    A strategy instantiated on an automaton, with the existential [t]
    hidden — the convenient form for callers that pick the strategy at
    runtime (CLI flags, mixed-strategy {!Multi} registrations). *)

type packed

val create : ?options:Engine.options -> strategy -> Automaton.t -> packed

val name : packed -> string

val feed : packed -> Event.t -> Substitution.t list

val feed_batch : packed -> Event.t array -> Substitution.t list

val advance : packed -> Time.t -> Substitution.t list

val close : packed -> Substitution.t list

val emitted : packed -> Substitution.t list

val population : packed -> int

val metrics : packed -> Metrics.snapshot

(** {1 The shared batch harness} *)

val iter_chunks :
  batch_size:int -> ('a array -> unit) -> 'a Seq.t -> unit
(** [iter_chunks ~batch_size f xs] cuts [xs] into consecutive chunks of
    [batch_size] elements (at least 1; the last chunk may be shorter)
    and applies [f] to each, in order. The array passed to [f] is
    reused for the next chunk once [f] returns, so [f] must not keep
    it. Every batching caller — {!drive}, {!Multi.run} and [ses match]
    with several queries — cuts its input here. *)

val drive :
  ?options:Engine.options ->
  packed ->
  Automaton.t ->
  Event.t Seq.t ->
  Engine.outcome
(** Feeds the whole sequence in [options.batch_size] chunks through
    [feed_batch], closes, and finalizes per [options] — the one loop
    every strategy's batch entry point now shares. *)

val run :
  ?options:Engine.options ->
  strategy ->
  Automaton.t ->
  Event.t Seq.t ->
  Engine.outcome

val run_relation :
  ?options:Engine.options ->
  strategy ->
  Automaton.t ->
  Relation.t ->
  Engine.outcome
