(** Execution of SES automata: [SESExec] (Algorithm 1) and [ConsumeEvent]
    (Algorithm 2).

    The engine keeps a pool Ω of automaton instances (Definition 4). For
    every input event a fresh instance is opened in the start state; each
    instance either expires (the time window τ would be violated — emitting
    its match buffer when it is in the accepting state), or consumes the
    event: every outgoing transition whose condition set Θδ is satisfied
    spawns a successor instance (nondeterministic branching); when no
    transition fires the instance survives unchanged unless it is still in
    the start state (skip-till-next-match) — or, when the pattern carries
    negation guards and the instance sits exactly between two event set
    patterns, the event may kill it instead. At end of input, instances
    sitting in the accepting state (with all quantifier minima met) flush
    their buffers.

    Raw emissions are post-processed by {!Substitution.finalize}
    (deduplication, Definition 2 conditions 4 and 5) unless disabled. *)

open Ses_event

(** How the pool Ω is represented. [Flat] is the paper's verbatim list,
    rescanned in full on every event — kept as the reference path for
    differential testing and benchmarking. [Indexed] (the default) is the
    {!Instance_store}: instances bucketed by automaton state and sorted
    by the start of their window, so states the event cannot affect are
    skipped in O(1) and the τ-expiry sweep stops at the first unexpired
    instance.

    [Indexed] also splits a state's bucket by join key. At {!create} each
    state q gets at most one key class: (variable, attribute) pairs bound
    in q that Θ's equalities among q's variables force to one value in
    every live instance (attributes of one type, as in
    {!Ses_pattern.Pattern.equality_partners}; never the timestamp). A
    transition out of q binding v is {e pinned} when it carries
    [u.A = v.A'] with (u, A) in the class, a negation guard armed at q
    likewise through its negated variable. When every transition that
    survives the constant pre-check and every guard that may fire is
    pinned, all to one value of the event, the event walks only that
    key's instances; otherwise it walks the whole state. Skip-till-next-
    match is why the rule is this strict: an instance is consumed by any
    transition it fires, so an unpinned transition must see instances of
    every key (the "poisoned branch" of Q1's star joins). With an
    observer installed every walk is whole, so narration is unchanged.

    The two representations produce the same emissions (as sets; the
    within-event emission order may differ) and the same metrics. *)
type store_kind =
  | Flat
  | Indexed

type options = {
  filter : Event_filter.mode;  (** Sec. 4.5 optimization; default [No_filter] *)
  filter_extras :
    (int * (Schema.Field.t * Predicate.op * Value.t) list) list;
      (** inferred constant constraints per variable id, conjoined into
          the event filter's clauses (see {!Event_filter.make}); supplied
          by the static analyzer via {!Planner}, default [[]]. Must be
          implied by the pattern — extras that are not implied change
          results. *)
  policy : Substitution.policy;
      (** conditions 4–5 post-filter (default [Operational]) *)
  finalize : bool;
      (** run {!Substitution.finalize} at all; [false] returns raw
          emissions as [matches] (default [true]) *)
  precheck_constants : bool;
      (** evaluate each transition's constant conditions once per input
          event, shared across all instances, instead of once per
          instance (default [true]; disable to time the paper's verbatim
          loop — the optimization never changes the result, only work) *)
  prune_dead : bool;
      (** drop a successor at creation when it can never accept (default
          [true]; disable to time the paper's verbatim Algorithm 1). The
          successor binding event [e] to [v] is dead when some positive
          variable [u] is still unbound, Θ has a condition
          [u.A = v.A'], and [e.A'] differs from a value that one of
          [u.A]'s equality partners ({!Ses_pattern.Pattern.equality_partners})
          has already bound: [u] must bind (every quantifier has
          min ≥ 1) and must equal both values. The source instance is
          still consumed and instances never interact, so raw emissions,
          matches and every strategy's output are unchanged; only work
          counters move, and dropped successors are counted in
          [instances_pruned]. The checks are derived once per stream in
          {!create} and tested only when a transition fires. *)
  store : store_kind;  (** pool representation (default [Indexed]) *)
  domains : int;
      (** worker domains for several queries (default 1 = fully
          sequential): {!Multi} spreads its queries across this many
          domains. A single query always runs on one domain; no
          executor reads this. *)
  batch_size : int;
      (** the unit of work on the batched hot path (default
          {!default_batch_size}, tuned by [bench --batch-only]): the
          chunk size {!Executor.drive} and the stream runner feed
          through {!feed_batch}, and the producer-side buffer limit for
          domain-parallel {!Multi}'s worker queues. The engine itself
          accepts any batch size through {!feed_batch}; this option only
          sets how callers chunk. *)
  telemetry : Telemetry.sink;
      (** instrumentation recorder (default [None] = no-op: every probe
          on the hot path costs one branch). The engine plants [filter],
          [transition], [expiry] and [finalize] spans, a
          [store.bucket_scan] histogram (per state walked, the instances
          walked: a key's sub-bucket on a probe) and a [population]
          gauge; the executors layered above add their own probes to the
          same recorder. *)
}

val default_options : options

val default_batch_size : int

type outcome = {
  matches : Substitution.t list;  (** finalized matching substitutions *)
  raw : Substitution.t list;  (** candidate emissions before finalize *)
  metrics : Metrics.snapshot;
}

(** Execution events, for tracing and debugging (the paper's Figure 6
    illustrates an execution as a sequence of exactly these): a fresh
    instance opened for an input event, a transition taken (with the
    buffer {e after} binding), a transition whose successor was dropped
    as dead ({!options.prune_dead}; reported in place of [Took], with
    the buffer the successor would have had), an event ignored by an
    instance (no transition fired), an instance expired (emitting when
    it was accepting), a substitution emitted. *)
type observation =
  | Created of Event.t
  | Took of {
      event : Event.t;
      transition : Automaton.transition;
      buffer : Substitution.t;
    }
  | Pruned of {
      event : Event.t;
      transition : Automaton.transition;
      buffer : Substitution.t;
      dead_var : int;
          (** the first still-unbound variable whose equality partners
              disagree in [buffer] *)
    }  (** successor dropped: it can never accept *)
  | Ignored of {
      event : Event.t;
      state : Varset.t;
      buffer : Substitution.t;
    }
  | Expired of {
      event : Event.t;
      accepting : bool;
      buffer : Substitution.t;
    }
  | Killed of {
      event : Event.t;
      state : Varset.t;
      buffer : Substitution.t;
    }  (** removed by a negation guard *)
  | Emitted of Substitution.t

val run : ?options:options -> Automaton.t -> Event.t Seq.t -> outcome
(** Events must arrive in chronological order (enforced by
    {!Ses_event.Relation}; raises [Invalid_argument] on out-of-order
    input). *)

val run_relation : ?options:options -> Automaton.t -> Relation.t -> outcome

(** {1 Incremental interface}

    The push-based view of the same loop, for callers that receive events
    one at a time. [feed] returns the substitutions whose instances expired
    on this event (raw, not finalized — finalization needs the whole
    candidate set); [close] flushes accepting instances.

    {b The clock.} A stream's notion of time is every timestamp it is
    given: every event fed, whether its filter keeps it or drops it, and
    every {!advance}. An instance whose window has closed by that time
    is expired, and emitted when it is accepting. So a filter never
    delays an emission: an event the filter drops still closes the
    windows it would close unfiltered (it can neither fire a transition
    nor kill an instance), and only the fresh start instance it would
    open is saved. *)

type stream

val create : ?options:options -> Automaton.t -> stream

val feed : stream -> Event.t -> Substitution.t list
(** Equivalent to [feed_batch st [| e |]]: the batch-of-one view of the
    same loop, kept as the reference ordering (per-event expiry pops and
    exact observer narration). An event the filter drops is counted in
    [events_filtered] and sweeps the pool to its timestamp, as
    {!advance} does, narrating each [Expired] with that event. *)

val feed_batch : stream -> Event.t array -> Substitution.t list
(** Pushes a chronological chunk (also checked against events already
    fed; raises [Invalid_argument] on violations) and returns the raw
    substitutions completed by it, oldest first. Observably equivalent
    to feeding the events one at a time — same finalized matches, same
    multiset of raw emissions, same layout-invariant metrics — with the
    per-event overheads amortized: the event filter runs in one pass
    over the chunk, constant-precheck caches are stamped instead of
    reset, τ-expired prefixes are popped once per batch, at its end, by
    a sweep to the chunk's last timestamp whether the filter keeps its
    last event or not (instances whose window closes mid-batch are
    caught before they can consume an event), and telemetry probes
    record per batch. The chunk returns the same multiset of raw
    emissions as feeding its events one at a time, and
    [instances_expired] agrees at every chunk boundary; only the
    {e position} of an expiry emission within the chunk's list may
    differ, and the sampled population peak may read higher. With an
    observer installed the engine processes the chunk event by event so
    narration order stays exact. *)

val advance : stream -> Time.t -> Substitution.t list
(** [advance st ts] moves the clock to [ts] without feeding an event:
    every instance whose window has closed by [ts] is expired (counted
    in [instances_expired]), and the accepting ones are returned, raw,
    oldest bucket first. A keyed state pops across its sub-buckets, so
    keys whose windows all closed leave no sub-bucket behind. [ts] joins
    the chronology check: an earlier timestamp raises
    [Invalid_argument], and a later event before [ts] does too. Timed
    under the [expiry] span. With no event to name, [advance] narrates
    no [Expired] (it does narrate [Emitted]): callers that install an
    observer ({!Trace}, {!Explain}) feed every event and never call
    it. *)

val close : stream -> Substitution.t list

val population : stream -> int
(** Current |Ω|; O(1) with the indexed store. *)

val sub_buckets : stream -> int
(** Key sub-buckets the indexed store currently holds across its keyed
    states (0 with the flat pool). A sub-bucket is dropped once it is
    empty, so this reads 0 whenever the population does. *)

val population_by_state : stream -> (Varset.t * int) list
(** Live instances grouped by their current state, descending by count;
    equal counts are ordered by state, so the listing is deterministic. *)

val metrics : stream -> Metrics.snapshot

val emitted : stream -> Substitution.t list
(** All raw emissions so far, oldest first. *)

val set_observer : stream -> (observation -> unit) option -> unit
(** Installs (or removes) a callback invoked synchronously on every
    execution event of this stream. See {!Trace} for a convenient
    recorder. *)
