(** Match diagnostics: why a pattern did or did not match.

    [explain] runs the engine once with an instrumented observer and
    aggregates where the search effort went: how many input events could
    bind each variable at all (its constant conditions), how often each
    state was entered and each transition fired, where instances were
    still stuck when they expired or the input ended, how many were
    killed by negation guards, and how many successors were dropped
    because they could never match ({!Engine.options.prune_dead}). The
    report turns "0 matches" from a mystery into a pointer — e.g.
    "state {c,d} was reached 17 times but the p transition never fired:
    no event satisfies p's conditions against the bound c". *)

open Ses_event
open Ses_pattern

type transition_stats = {
  transition : Automaton.transition;
  fired : int;  (** times taken *)
}

type pruned_stats = {
  via : Automaton.transition;  (** the transition whose successors died *)
  dead_var : int;
      (** the still-unbound variable whose equality partners already
          disagree in the dropped successors' buffers *)
  dropped : int;  (** successors dropped *)
}

type report = {
  pattern : Pattern.t;
  events : int;
  matches : int;  (** finalized *)
  raw : int;
  candidates_per_variable : (int * int) list;
      (** positive variable id → events satisfying all its constant
          conditions *)
  entered : (Varset.t * int) list;
      (** state → times an instance arrived there (loops re-count) *)
  stuck : (Varset.t * int) list;
      (** non-accepting state → instances that expired or were left there
          at end of input *)
  transitions : transition_stats list;
  killed : int;  (** instances removed by negation guards *)
  pruned : pruned_stats list;
      (** successors dropped as dead, per transition (so per source and
          target state) and dead variable, descending by count; they
          are not counted in [entered] or [transitions] *)
  emission_lag : (float * int) option;
      (** (mean, max) delay in time units between a match's last event and
          its emission — MAXIMAL semantics emit at window expiry, so this
          is the detection latency an application pays; [None] when
          nothing was emitted via expiry (end-of-stream flushes have no
          triggering event) *)
}

val explain : ?options:Engine.options -> Automaton.t -> Relation.t -> report

val pp : Format.formatter -> report -> unit
(** Human-readable narrative, including the "never fired" transitions out
    of the most-visited stuck states and, under each, the successors it
    dropped as dead — e.g. "50 successors into p+d were dropped: c's
    equality partners already disagree". *)
