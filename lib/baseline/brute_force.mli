(** Brute-force baseline for SES pattern matching (Sec. 5.2).

    Instead of one automaton whose states are variable {e sets}, the brute
    force enumerates every ordering of the pattern's variables that is
    compatible with the sequence of event set patterns — one permutation per
    set, concatenated — derives from each ordering a pattern of singleton
    {e sets} (⟨{w1}, …, {wk}⟩, Θ, τ), builds a (chain-shaped) SES automaton
    for it, and executes all |V1|!·…·|Vm|! automata in parallel over the
    input. This corresponds to straightforward extensions of the automata
    of DejaVu / NFAb / Cayuga, as the paper notes.

    For patterns without group variables, over relations with strictly
    increasing timestamps (the paper's Sec. 3.1 total-order assumption),
    the union of the chain automata's raw emissions is a superset of the
    SES automaton's raw emissions: each SES branch follows some ordering,
    but a chain automaton may skip an event that the SES automaton is
    forced to consume for a different variable and bind its own variable
    later (the paper does not discuss this asymmetry; the extra results
    are exactly the non-greedy ones — equality of the finalized output
    holds on selective condition sets such as the paper's experiments,
    where each event fires at most one variable per state). Two caveats,
    both absent from the paper: (1) with simultaneous events a chain
    imposes a strict order between same-set variables that the set pattern
    does not, so the inclusion can fail; (2) with group variables a
    derived chain additionally requires the group's bindings to be
    consecutive, so the baseline can miss interleaved matches — the paper
    only evaluates the brute force on singleton-only patterns
    (Experiment 1). *)

open Ses_event
open Ses_pattern
open Ses_core

val orderings : Pattern.t -> int list list
(** All variable orderings (by id, w.r.t. the input pattern): the
    concatenation of one permutation per event set pattern. *)

val sequence_pattern : Pattern.t -> int list -> Pattern.t
(** The derived pattern ⟨{w1}, …, {wk}⟩ for one ordering: every variable
    becomes its own event set pattern (group variables keep their Kleene
    plus), Θ and τ are unchanged. *)

val n_automata : Pattern.t -> int

type outcome = {
  matches : Substitution.t list;  (** finalized union of all automata *)
  raw : Substitution.t list;  (** deduplicated union of raw emissions *)
  metrics : Metrics.snapshot;
      (** summed over automata; [max_simultaneous_instances] is the maximum
          over time of the total instance population, the quantity plotted
          in Fig. 11 *)
  n_automata : int;
}

val run :
  ?options:Engine.options -> Pattern.t -> Event.t Seq.t -> outcome

val run_relation :
  ?options:Engine.options -> Pattern.t -> Relation.t -> outcome

(** {1 Incremental interface}

    The push-based view, implementing {!Ses_core.Executor.EXECUTOR}: all
    chain automata advance in lockstep on each [feed]; completions are
    retargeted to the original pattern's variable ids and deduplicated
    across automata as they appear. *)

type stream

val create : ?options:Engine.options -> Automaton.t -> stream
(** Derives the chains from the automaton's pattern (the SES automaton
    itself is not executed). *)

val create_pattern : ?options:Engine.options -> Pattern.t -> stream

val feed : stream -> Event.t -> Substitution.t list
(** Raw substitutions first completed on this event (across all chains,
    deduplicated against everything emitted so far). *)

val feed_batch : stream -> Event.t array -> Substitution.t list
(** Batched lockstep: every chain consumes the chunk through
    {!Engine.feed_batch}; completions are retargeted and deduplicated as
    in {!feed}, grouped by chain within the chunk. *)

val advance : stream -> Time.t -> Substitution.t list
(** Advances every chain's clock ({!Engine.advance}); completions are
    retargeted and deduplicated as in {!feed}. *)

val close : stream -> Substitution.t list

val emitted : stream -> Substitution.t list

val population : stream -> int
(** Total live instances across all chain automata — the quantity
    plotted in Fig. 11. *)

val metrics : stream -> Metrics.snapshot

val n_streams : stream -> int

val register : unit -> unit
(** Installs this module as {!Ses_core.Executor}'s [`Brute_force]
    strategy. Idempotent. The registration is explicit (not a module
    initializer) so it works regardless of which [ses_baseline] modules
    the final executable happens to link. *)
