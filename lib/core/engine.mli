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
    instance. The two representations produce the same emissions (as
    sets; the within-event emission order may differ) and the same
    metrics. *)
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
  store : store_kind;  (** pool representation (default [Indexed]) *)
  domains : int;
      (** worker domains for the executors that can use them (default 1
          = fully sequential). The plain engine is inherently sequential
          and ignores this; {!Partitioned} shards its per-key pools
          across this many domains when the pattern is partitionable,
          and {!Multi} spreads its queries across them. *)
  batch_size : int;
      (** the unit of work on the batched hot path (default
          {!default_batch_size}, tuned by [bench --batch-only]): the
          chunk size {!Executor.drive} and the stream runner feed
          through {!feed_batch}, and the producer-side buffer limit for
          the domain-parallel executors' queues. The engine itself
          accepts any batch size through {!feed_batch}; this option only
          sets how callers chunk. *)
  telemetry : Telemetry.sink;
      (** instrumentation recorder (default [None] = no-op: every probe
          on the hot path costs one branch). The engine plants [filter],
          [transition], [expiry] and [finalize] spans, a
          [store.bucket_scan] histogram and a [population] gauge; the
          executors layered above add their own probes to the same
          recorder. *)
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
    buffer {e after} binding), an event ignored by an instance (no
    transition fired), an instance expired (emitting when it was
    accepting), a substitution emitted. *)
type observation =
  | Created of Event.t
  | Took of {
      event : Event.t;
      transition : Automaton.transition;
      buffer : Substitution.t;
    }
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
    candidate set); [close] flushes accepting instances. *)

type stream

val create : ?options:options -> Automaton.t -> stream

val feed : stream -> Event.t -> Substitution.t list
(** Equivalent to [feed_batch st [| e |]]: the batch-of-one view of the
    same loop, kept as the reference ordering (per-event expiry pops and
    exact observer narration). *)

val feed_batch : stream -> Event.t array -> Substitution.t list
(** Pushes a chronological chunk (also checked against events already
    fed; raises [Invalid_argument] on violations) and returns the raw
    substitutions completed by it, oldest first. Observably equivalent
    to feeding the events one at a time — same finalized matches, same
    multiset of raw emissions, same layout-invariant metrics — with the
    per-event overheads amortized: the event filter runs in one pass
    over the chunk, constant-precheck caches are stamped instead of
    reset, τ-expired prefixes are popped once per batch, at its end
    (instances whose window closes mid-batch are caught before they can
    consume an event), and telemetry probes record per batch. The chunk
    returns the same multiset of raw emissions as feeding its events one
    at a time, and [instances_expired] agrees at every chunk boundary;
    only the {e position} of an expiry emission within the chunk's list
    may differ, and the sampled population peak may read higher. With an
    observer installed the engine processes the chunk event by event so
    narration order stays exact. *)

val close : stream -> Substitution.t list

val population : stream -> int
(** Current |Ω|; O(1) with the indexed store. *)

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
