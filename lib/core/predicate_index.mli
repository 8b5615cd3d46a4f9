(** Global predicate index: shared per-event evaluation of the constant
    atoms of many queries' strong filters.

    Independent multi-query execution runs each query's event filter
    against each event — N clause evaluations per event, most of them
    over the same handful of atoms. The index registers every query's
    {!Event_filter.strong_clauses} once, deduplicates the atoms, and
    answers "which queries is this event relevant to?" with work
    proportional to the atoms the event actually touches:

    - every clause designates an {e anchor} — its most selective
      equality atom when it has one (selectivity = distinct constants
      registered on the atom's field), otherwise its first atom;
    - equality anchors dispatch through one hash probe per field
      (constant → atom), so a thousand [ID = k] clauses cost one lookup;
    - non-equality anchors are evaluated once per event;
    - when an anchor holds, the subscribing clauses verify their
      remaining atoms lazily, memoized per event, waking each query at
      most once.

    Soundness matches the strong filter's: an event reported
    not-relevant to a query fails every clause, so it can neither fire a
    transition nor trigger a negation kill there — only τ-expiry can
    depend on it, and {!Shared_plan} advances the query's clock instead
    of feeding it the event (see {!Multi}). *)

open Ses_event

type atom = Schema.Field.t * Predicate.op * Value.t

type t

val create : ?continue_from:t -> atom list list option array -> t
(** One slot per query id: [Some clauses] registers the query's strong
    clauses (relevant iff some clause is fully satisfied), [None] marks
    it unroutable — it is reported relevant to every event, as is a
    query with a vacuous (empty) clause. [continue_from] is an index the
    new one replaces: its {!evaluated} and {!saved} totals carry over,
    so both stay cumulative across rebuilds. *)

val route : t -> Event.t -> unit
(** Decides which queries the event may affect; {!routes} reads the
    answer until the next [route]. Allocates nothing but the boxed value
    of a timestamp atom's field. *)

val routes : t -> int -> bool
(** [routes t q]: the event last given to {!route} may affect query [q]
    — it is unroutable, or one of its clauses holds. *)

val n_atoms : t -> int
(** Distinct atoms registered. *)

val evaluated : t -> int
(** Atom evaluations and dispatch probes performed so far. *)

val saved : t -> int
(** Atom evaluations avoided so far, against re-running every clause of
    every query per event without sharing. *)

val hit_rate : t -> float
(** [saved / (evaluated + saved)]; 0 before any event. *)
