(** Strategy selection for executing a SES automaton.

    The library exposes several result-transparent execution levers: the
    Sec. 4.5 event filter (and its strong variant), the per-event
    constant-condition pre-check, and the static analyzer's pruning and
    inferred filter constraints. [plan] inspects a pattern's automaton
    and picks the strongest applicable combination; [execute] runs it.
    Key locality needs no lever: the engine's instance store derives it
    from the pattern (see {!Engine}). The choice never changes
    the matches — only the work — and is explained by [describe] together
    with the complexity-case classification of Sec. 4.4 that predicts the
    instance-pool growth. *)

open Ses_pattern

(** What the static analyzer (when registered) contributes to a plan:
    a result-preserving reduction of the automaton and constant
    constraints implied by the pattern's equality chains. *)
type analysis = {
  automaton : Automaton.t;
      (** the pruned automaton; physically the input automaton when the
          analyzer found nothing to remove *)
  filter_extras :
    (int * (Ses_event.Schema.Field.t * Ses_event.Predicate.op * Ses_event.Value.t) list)
    list;
      (** inferred constant constraints per variable id, fed to
          {!Event_filter.make} and {!Engine.options.filter_extras} *)
  domains :
    (int * (Ses_event.Schema.Field.t * Ses_event.Predicate.Domain.t) list) list;
      (** per variable id, the analyzer's narrowing of each field that
          every binding of the variable is guaranteed to satisfy at bind
          time (non-top entries only) — consulted by {!choose_access} to
          shrink index probes beyond the syntactic constant conditions *)
  pruned_transitions : int;
  pruned_states : int;
  never_matches : bool;
      (** the analyzer proved the pattern unsatisfiable: execution is
          still sound (it finds nothing), planning merely reports it *)
}

val set_analyzer : (Automaton.t -> analysis) -> unit
(** Registers the static analyzer, like
    {!Ses_baseline.Brute_force.register} registers the baseline
    executor: [Ses_analysis] depends on this library, so it injects its
    planning hook here. Subsequent {!plan} calls consult it. *)

val clear_analyzer : unit -> unit
(** Removes the registered analyzer. Primarily for differential tests
    that compare planning with and without analysis. *)

val analyze : Automaton.t -> analysis option
(** Runs the registered analyzer, if any. *)

type t = {
  filter : Event_filter.mode;
      (** [Strong] when the pattern's constant conditions (together with
          any analyzer-inferred ones) make the filter effective,
          [No_filter] otherwise *)
  precheck_constants : bool;  (** always [true]; listed for transparency *)
  cases : Exclusivity.case list;
      (** per event set pattern, Sec. 4.4 — [Exclusive] predicts a
          constant pool, [Overlapping] factorial branching,
          [Overlapping_with_groups] window-dependent growth *)
  analysis : analysis option;
      (** the analyzer's contribution; [None] when none is registered *)
}

val plan : Automaton.t -> t

(** {1 Access paths}

    How a stored relation's events reach the planned stream: a full
    chronological scan, or a union of secondary-index probes — one per
    variable — materializing only the events some variable's constant
    clause accepts. The probe union is exactly the event set the plan's
    [Strong] filter would keep, so feeding it (τ-clipped, see
    {!Ses_harness.Access_exec}) to the engine preserves every match; the
    cost model below merely decides whether that sparse set is worth
    assembling. *)

type probe = {
  probe_var : int;  (** variable id (positive or negated) *)
  probe_var_name : string;
  probe_field : int;  (** attribute position probed *)
  probe_attr_name : string;
  probe_keys : Ses_event.Value.t list option;
      (** [Some ks]: probe exactly these keys (equality atoms); [None]:
          enumerate the index's keys and probe those inside
          [probe_domain] *)
  probe_domain : Ses_event.Predicate.Domain.t;
      (** conjunction of the clause's atoms on the probed field,
          intersected with the analyzer's narrowing *)
  probe_residual :
    (Ses_event.Schema.Field.t * Ses_event.Predicate.op * Ses_event.Value.t) list;
      (** the variable's whole constant clause, re-checked on every
          posting — the probe only over-approximates *)
  probe_required : bool;
      (** positive variable: every match binds it (min_count ≥ 1), so
          its candidates bound the τ-clip *)
  probe_estimate : int;  (** statistics-estimated candidate rows *)
}

type access =
  | Scan of string  (** with the reason indexing was not chosen *)
  | Index_probe of { probes : probe list; estimate : int; rows : int }

type access_mode = [ `Auto | `Scan | `Index ]

val choose_access :
  ?mode:access_mode -> stats:Ses_event.Stats.t -> t -> Automaton.t -> access
(** The cost-based decision (default mode [`Auto]). Indexing requires
    every variable — negated ones included — to carry a constant clause
    with at least one non-timestamp atom (otherwise the candidate union
    is unsound or unbounded, and the result is [Scan] with the reason).
    Per variable the cheapest single-attribute probe is chosen by the
    catalog statistics; [`Auto] then takes the index path only when the
    summed estimate clears a 2× selectivity margin over the row count.
    [`Index] forces the index path whenever it is sound; [`Scan] always
    scans. *)

val routing_clauses :
  t ->
  Automaton.t ->
  (Ses_event.Schema.Field.t * Ses_event.Predicate.op * Ses_event.Value.t)
  list
  list
  option
(** The strong-filter clauses of the planned execution — the pattern's
    constant conditions conjoined with the analyzer's inferred extras.
    [Some] exactly when the plan chose the [Strong] filter; {!Multi}'s
    shared plan registers them with its {!Predicate_index} so routed
    delivery drops exactly the events the planned stream's own filter
    would drop. *)

val options_with : t -> Engine.options -> Engine.options
(** [options] with the plan's levers layered on: its [filter],
    [filter_extras] and [precheck_constants] fields are overridden by
    the plan (the caller still supplies the finalize policy). *)

val effective_automaton : t -> Automaton.t -> Automaton.t
(** The automaton a planned execution actually runs: the analyzer's
    pruned automaton when the plan carries one for the same pattern, the
    given automaton otherwise. *)

(** {1 Incremental interface}

    The planned execution as a push-based stream — the "auto" strategy
    of the executor registry: an {!Engine} stream running the effective
    automaton under the planned options, fed through {!Engine.feed} and
    its siblings. *)

val create : ?options:Engine.options -> Automaton.t -> Engine.stream
(** Plans the automaton and opens the planned stream. *)

val create_with : ?options:Engine.options -> t -> Automaton.t -> Engine.stream
(** Opens a stream under an already-computed plan. *)

(** {1 Batch interface} *)

val execute :
  ?options:Engine.options ->
  t ->
  Automaton.t ->
  Ses_event.Event.t Seq.t ->
  Engine.outcome
(** {!Engine.run} of the effective automaton with the planned
    levers layered onto [options]. *)

val run : ?options:Engine.options -> Automaton.t -> Ses_event.Event.t Seq.t -> Engine.outcome
(** [execute (plan a) a] — the "just make it fast" entry point. *)

val run_relation :
  ?options:Engine.options -> Automaton.t -> Ses_event.Relation.t -> Engine.outcome

val describe : ?access:access -> ?pushed:string -> t -> string
(** Multi-line human-readable summary; [?access] adds the chosen access
    path ("access path: …" lines), [?pushed] a [pushed filter: …] line
    in its place for a scan with that predicate pushed into it. *)
