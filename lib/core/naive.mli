(** Reference matcher: exhaustive enumeration of Definition 2.

    [all_satisfying_1_3] enumerates every substitution of pattern variables
    by events that satisfies conditions 1–3 (Θ, inter-set order, window) by
    brute force — exponential in the input, intended as a test oracle and
    debugging aid on small relations. It is independent of the automaton:
    the only shared code is {!Substitution}'s condition checkers.

    The enumeration is also a scalpel for the semantic gap documented in
    {!Substitution.policy} and {!Engine}: skip-till-next-match is a
    {e strategy}, so the engine can miss substitutions that satisfy
    conditions 1–3 (e.g. the poisoned-branch scenario); the engine's output
    is always a subset of this module's. *)

open Ses_event
open Ses_pattern

exception Too_large of int
(** Raised when the enumeration would check more than the [limit] full
    assignments. Carries the limit. *)

val all_satisfying_1_3 :
  ?limit:int -> Pattern.t -> Relation.t -> Substitution.t list
(** All substitutions satisfying Definition 2's conditions 1–3 — plus the
    negation guards, for patterns using that extension — in deterministic
    order. Candidate events per variable are pre-filtered by the
    variable's constant conditions; group variables range over the
    non-empty subsets of their candidates. [limit] (default [1_000_000])
    bounds the number of full assignments checked. *)

val all_satisfying_1_3_events :
  ?limit:int -> Pattern.t -> Event.t array -> Substitution.t list
(** Same over a bare chronological event array — the form a streaming
    feed accumulates. Sequence numbers are taken as-is (they may have
    gaps when a store-side filter dropped rows). *)

val matches :
  ?limit:int ->
  ?policy:Substitution.policy ->
  Pattern.t ->
  Relation.t ->
  Substitution.t list
(** [all_satisfying_1_3] followed by {!Substitution.finalize}. Note this is
    {e not} the paper's algorithm: it reports every maximal (or literal-
    policy) substitution regardless of greedy reachability. *)

(** {1 Incremental interface}

    The push-based view, implementing {!Executor.EXECUTOR} so the oracle
    runs through the same harness as the real strategies. The enumeration
    needs the whole input, so [feed] only buffers (and always returns
    [[]]); the work happens at [close], which returns the raw oracle
    emissions ({!all_satisfying_1_3} with the default limit). *)

type stream

val create : ?options:Engine.options -> Automaton.t -> stream
(** Enumerates the automaton's pattern; the automaton itself is unused
    (the oracle is deliberately automaton-independent). *)

val feed : stream -> Event.t -> Substitution.t list
(** Buffers the event; raises [Invalid_argument] on out-of-order input
    (the shared executor contract). *)

val feed_batch : stream -> Event.t array -> Substitution.t list
(** Buffers a chronological chunk; always [[]], like {!feed}. *)

val advance : stream -> Time.t -> Substitution.t list
(** Checks [ts] against the chronology like {!feed}; always [[]]. *)

val close : stream -> Substitution.t list
(** Runs the enumeration over the buffered events. May raise
    {!Too_large}. Idempotent; later calls return [[]]. *)

val emitted : stream -> Substitution.t list

val population : stream -> int
(** Always 0 — the oracle keeps no automaton instances. *)

val metrics : stream -> Metrics.snapshot
