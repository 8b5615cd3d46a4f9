(** Substitutions γ = {v1/e1, …, vn/en} — finite sets of variable/event
    bindings (Sec. 3.2) — together with the checks of Definition 2.

    Conditions 1–3 of Definition 2 (Θ-satisfaction, inter-set order, time
    window) are decidable on a single substitution and are exposed as
    predicates. Conditions 4 (skip-till-next-match) and 5 (MAXIMAL mode
    with greedy quantifier) quantify over the set Γ of all substitutions
    satisfying 1–3; {!finalize} applies them relative to a candidate set,
    which is how both the SES engine and the brute-force baseline
    post-process their raw emissions. *)

open Ses_event
open Ses_pattern

type binding = int * Event.t
(** Variable id and the event bound to it. *)

type t = binding list
(** Bindings in the order they were added (chronological). The list is the
    paper's γ; treat it as a set. *)

val canonical : t -> (int * int) list
(** Sorted (variable id, event sequence number) pairs — the set identity of
    a substitution. {!finalize} computes an equivalent packed form once per
    candidate rather than once per comparison; callers holding many
    substitutions should likewise compute this once each. *)

val compare_canonical : (int * int) list -> (int * int) list -> int
(** Lexicographic order over canonical forms (pairs compared by variable
    id, then sequence number) — the typed comparator every sort of
    {!canonical} results must use instead of polymorphic [compare]. *)

val equal : t -> t -> bool

val subset : t -> t -> bool
(** Set inclusion of bindings — a single merge over the two sorted
    canonical forms. *)

val proper_subset : t -> t -> bool

val bindings_of : t -> int -> Event.t list
(** Events bound to a variable, in binding order. *)

val events : t -> Event.t list

val min_binding : t -> binding option
(** The paper's minT(γ): the binding with the chronologically earliest
    event (ties broken by sequence number, which the total order on events
    makes unambiguous). *)

val min_ts : t -> Time.t option

val span : t -> Time.duration
(** Time spanned between earliest and latest bound event. *)

(** {1 Definition 2, conditions 1–3} *)

val well_formed : Pattern.t -> t -> bool
(** Each variable's binding count lies within its quantifier bounds
    (exactly one for singletons, ≥ 1 for v+, within [min,max] for
    v\{min,max\}), and all events are distinct. *)

val satisfies_theta : Pattern.t -> t -> bool
(** Condition 1: Θγ is satisfied (full decomposition over group bindings). *)

val satisfies_order : Pattern.t -> t -> bool
(** Condition 2: events of set Vi occur strictly before events of Vj for
    i < j. *)

val satisfies_window : Pattern.t -> t -> bool
(** Condition 3: all events within τ of each other. *)

val satisfies_1_3 : Pattern.t -> t -> bool

val satisfies_negations : Pattern.t -> Event.t array -> t -> bool
(** Negation extension: for each (boundary, v) of [Pattern.negations],
    no event of the relation (given as its chronologically ordered event
    array) whose sequence number lies strictly between the last bound
    event of sets ≤ boundary and the first bound event of later sets —
    and whose timestamp is still inside the match's τ window — may
    satisfy all of v's conditions under the substitution. For a trailing
    guard (boundary = last set) the "first bound event of later sets"
    is +∞, so the guard covers the remainder of the window. Vacuously
    true for paper patterns.

    The (last bound, first after) sequence window is computed once per
    boundary and the array is scanned only inside it (located by binary
    search), not end to end per negation. *)

(** {1 Definition 2, conditions 4–5 over a candidate set} *)

(** How conditions 4–5 are applied to the raw emissions.

    [Literal] transcribes Definition 2 exactly (condition 4 with Γ
    approximated by the candidate set, condition 5 restricted to equal
    minT). The literal reading is self-contradictory on the paper's own
    running example: condition 4 rejects the intended patient-2 match
    {p+/e6, d/e7, c/e8, p+/e10, p+/e11, b/e13} because patient 1's binding
    p+/e9 falls chronologically between c/e8 and p+/e10 in another valid
    substitution, while condition 5 fails to remove the late-start subset
    {d/e7, c/e8, p+/e10, p+/e11, b/e13} (its minT differs). It is provided
    for study.

    [Operational] (the default) implements what the algorithm and the
    MAXIMAL-mode prose actually compute: deduplication plus global
    subsumption — a substitution strictly contained in another candidate is
    discarded, regardless of minT. On the running example this yields
    exactly the two matches the paper reports. *)
type policy =
  | Operational
  | Literal

val finalize : ?policy:policy -> Pattern.t -> t list -> t list
(** Deduplicates (by {!canonical}) and applies the chosen policy relative
    to the deduplicated candidate set. The result is sorted by
    (minT, canonical) for deterministic output; when raw candidates share a
    canonical form, the first one in the input is returned.

    Each raw candidate is annotated once: its canonical form packed into a
    sorted, duplicate-free [int array] of keys [var * base + seq] ([base]
    is one more than the largest sequence number among the candidates, so
    the array order is {!compare_canonical}'s), and its minT binding packed
    the same way. Deduplication hashes the whole packed array.
    [Operational] subsumption keeps, for every binding, a counted posting
    array of the candidates holding it: every strict superset of γ holds
    γ's rarest binding, found as a minimum over |γ| stored lengths.
    Candidates are numbered by ascending size, so only the posting's tail
    of larger candidates is scanned, at one merge of two int arrays per
    suspect.
    [Literal] maximality compares only within groups sharing a packed minT
    binding, and its skip-till-next check tests membership by binary
    search in the packed array. The empty input returns [[]] at once. *)

val pp : Pattern.t -> Format.formatter -> t -> unit
(** Prints like the paper, e.g. [{c/e1, d/e3, p+/e4, p+/e9, b/e12}]. *)
