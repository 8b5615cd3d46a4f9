(** Hash-partitioned execution of a SES automaton.

    The paper's conclusion points to "indexing techniques for automaton
    instances" (Cayuga) as future work. When every transition of the
    automaton that extends a non-empty match buffer carries an equality
    pinning the new event's key attribute to an already-bound variable's
    key, two events with different key values can never occur in the same
    match {e and} an event of a foreign key can never fire a transition of
    an instance holding bindings. The instance pool then splits into
    independent pools, one per key value, and each input event touches
    only its key's pool instead of all of Ω — O(|Ω_key|) per event instead
    of O(|Ω|).

    The pinning requirement is stronger than "all variables are joined on
    the key" for two reasons, both consequences of skip-till-next-match
    and both demonstrated in [test/test_partitioned.ml]:

    - {b Syntactic completeness.} Condition attachment is syntactic, so
      with Q1's star-shaped joins (c–p, c–d, d–b) a D administration of
      {e another} patient fires the d transition of an instance that has
      only bound p — that transition carries no join yet — and kills the
      instance's chance to bind its own patient's later D event.
      Partitioning would shield the instance from the foreign event and
      find {e more} matches than the paper's algorithm.
    - {b Group-variable loops.} The paper's decomposition semantics
      evaluate conditions per binding, so Θ can never relate two bindings
      of the {e same} group variable: a loop at a state where no join
      partner is bound (e.g. {p+} alone) accepts events of any key, and
      the same divergence arises. The successor that holds two keys is
      dead and {!Engine.options.prune_dead} drops it, but the source
      instance is still consumed (replace-on-fire), so the divergence
      stands. Patterns whose group variable can be bound first are
      therefore never partitionable.

    [partition_key] decides the criterion on the constructed automaton;
    both [create] and [run] fall back to a single plain engine stream when
    it does not hold, so they are always safe to call. When it holds the
    result is identical to {!Engine.run} up to ordering (both finalize
    deterministically): raw emissions are pooled and finalized globally. *)

open Ses_event

val partition_key : Automaton.t -> Schema.Field.t option
(** The field [A] (never the timestamp) such that every transition with a
    non-empty source state carries a condition [v.A = v'.A] with [v'] in
    the source state, if any. *)

(** {1 Incremental interface}

    The push-based view, implementing {!Executor.EXECUTOR}: per-key
    engine pools opened lazily as each key value first appears, all on
    the calling domain. [feed] routes the event to its key's pool only.
    Non-partitionable patterns run one plain engine pool. *)

type stream

val create :
  ?options:Engine.options -> ?key:Schema.Field.t option -> Automaton.t -> stream
(** [?key] overrides detection (the planner passes its already-computed
    decision); when omitted, {!partition_key} decides. [Some None] forces
    a single unpartitioned pool. *)

val feed : stream -> Event.t -> Substitution.t list
(** Raw substitutions whose instances completed on this event. *)

val feed_batch : stream -> Event.t array -> Substitution.t list
(** Routes a chronological chunk in one pass. Events are grouped by key
    value and each per-key pool consumes its sub-batch through
    {!Engine.feed_batch}, so the engine's per-batch amortizations
    compose with partitioning; pools still see exactly their key's
    events, in order. Completions are returned grouped by pool, each
    pool's oldest first; the cross-pool interleaving may differ from the
    per-event order (finalization is order-insensitive). *)

val close : stream -> Substitution.t list
(** Flushes accepting instances of every pool, oldest pool first. *)

val emitted : stream -> Substitution.t list
(** All raw emissions so far, grouped by pool in pool-creation order. *)

val population : stream -> int
(** Total live instances across pools. *)

val n_pools : stream -> int
(** Number of per-key pools opened so far (1 when unpartitioned). *)

val key : stream -> Schema.Field.t option
(** The partition key actually in use. *)

val metrics : stream -> Metrics.snapshot
(** Summed across pools; [max_simultaneous_instances] is the maximum over
    time of the total population. Expiry is lazy — a pool only discards
    expired instances when one of its own events arrives — so that peak
    may exceed the plain engine's even though the per-event work is
    smaller. *)

(** {1 Batch interface} *)

val run :
  ?options:Engine.options -> Automaton.t -> Event.t Seq.t -> Engine.outcome
(** [create] + [feed] all + [close] + finalize. *)

val run_relation :
  ?options:Engine.options -> Automaton.t -> Relation.t -> Engine.outcome
