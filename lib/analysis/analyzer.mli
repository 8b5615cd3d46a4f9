(** Static analysis of SES patterns and their automata.

    Five analyses over a pattern P = (⟨V1..Vm⟩, Θ, τ):

    - {e per-variable narrowing}: each variable's constant conditions
      [v.A φ C] are conjoined per field into a typed interval domain
      ({!Ses_event.Predicate.Domain}); an empty domain on a positive
      variable means the pattern can never match (error), on a negated
      variable that its guard never triggers (warning).
    - {e inter-variable contradiction}: arc-consistency over the
      [v.A φ v'.A'] edges, plus Bellman–Ford over the difference
      constraints the timestamps must satisfy (explicit conditions on T,
      the strict inter-set order, and the window τ).
    - {e automaton deadness}: transitions whose condition set can never
      be satisfied by any event — contradictory constants, comparisons
      incompatible with what bound partners are guaranteed to satisfy,
      opposite comparisons against the same partner field, reflexive
      strict comparisons, and timestamp conditions that contradict
      arrival order. Dead transitions are pruned ({!Ses_core.Automaton.prune});
      states that can no longer reach the accepting state are only
      {e reported} (removing them would change which instances are
      consumed).
    - {e implied constants}: equality chains whose partner is fully
      bound earlier ([p.ID = c.ID ∧ c.ID = 7] ⇒ [p.ID = 7]) yield extra
      constant constraints for the Sec. 4.5 event filter.
    - {e lints}: unconstrained variables and negations, subsumed
      conditions.

    The pruning and the inferred filter constants are result-preserving:
    running the pruned automaton with the strengthened filter produces
    the same matches {e and} the same raw emissions as the original
    (differentially tested). Registering the analyzer
    ({!register}) makes {!Ses_core.Planner.plan} apply both. *)

open Ses_event
open Ses_pattern
open Ses_core

type result = {
  pattern : Pattern.t;
  diagnostics : Diagnostic.t list;
      (** sorted: errors first, then warnings, then infos *)
  dead : Automaton.transition list;
      (** transitions that can never fire (physically from the input
          automaton — test membership with [memq]) *)
  original : Automaton.t;
      (** the automaton the analysis ran on — [dead] members are its
          transitions *)
  automaton : Automaton.t;
      (** the pruned automaton; physically the input when nothing was
          dead *)
  filter_extras :
    (int * (Schema.Field.t * Predicate.op * Value.t) list) list;
      (** implied constant constraints per variable id, for
          {!Ses_core.Event_filter.make} *)
  domains : (int * (Schema.Field.t * Predicate.Domain.t) list) list;
      (** per variable id, the non-top field narrowings guaranteed of
          every event the variable can involve: the enforced-at-bind
          domain for positive variables, the own-constant-conditions
          domain for negated ones — exported to
          {!Ses_core.Planner.choose_access} *)
  pruned_transitions : int;
  pruned_states : int;
  never_matches : bool;
      (** some diagnostic proves the pattern can produce no match *)
}

val analyze : Automaton.t -> result

val analyze_pattern : Pattern.t -> result
(** [analyze] on [Automaton.of_pattern p]. *)

val analyze_query :
  Schema.t -> string -> (result, Diagnostic.t list) Stdlib.result
(** Parses and compiles query text, then analyzes. Lexer/parser errors
    and pattern-validation errors (all of them — validation accumulates)
    are returned as error diagnostics. *)

val register : unit -> unit
(** Installs the analyzer as {!Ses_core.Planner.set_analyzer}, so
    planned executions prune dead transitions and adopt the inferred
    filter constants. *)
