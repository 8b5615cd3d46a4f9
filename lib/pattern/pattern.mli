(** Sequenced event set patterns P = (⟨V1, …, Vm⟩, Θ, τ) — Definition 1.

    A pattern owns a table of variables (ids are positions in that table),
    the ordered event set patterns as lists of variable ids, the resolved
    conditions and the maximal duration τ. Construction validates the
    pattern: non-empty sets, globally unique variable names (which yields
    the pairwise-disjointness of Definition 1), resolvable and well-typed
    conditions, and at most {!max_vars} variables (states of the SES
    automaton are bitsets over the variables). *)

open Ses_event

type t

val max_vars : int
(** 62: states are stored in an OCaml [int] bitmask. *)

(** Name-based condition specifications, resolved by {!make}. *)
module Spec : sig
  type operand =
    | Const of Value.t
    | Field of string * string  (** variable name, attribute name (or "T") *)

  type cond = {
    left : string * string;  (** variable name, attribute name (or "T") *)
    op : Predicate.op;
    right : operand;
    span : Span.t option;
        (** source location of the condition in query text, when known *)
  }

  val const : string -> string -> Predicate.op -> Value.t -> cond
  (** [const "c" "L" Eq (Str "C")] is the paper's [c.L = 'C']. *)

  val fields : string -> string -> Predicate.op -> string -> string -> cond
  (** [fields "c" "ID" Eq "p" "ID"] is [c.ID = p.ID]. *)

  val with_span : Span.t -> cond -> cond
  (** Attaches a source span; resolution errors and diagnostics are then
      prefixed with the location. *)
end

val make_full :
  schema:Schema.t ->
  sets:Variable.t list list ->
  negations:(int * Variable.t) list ->
  where:Spec.cond list ->
  within:Time.duration ->
  (t, string list) result
(** [negations] extends the paper's patterns with SASE-style exclusion
    (the SQL proposal's \{- v -\}): [(i, v)] declares that between the
    events matching set Vi and those matching Vi+1 no event may occur
    that satisfies v's conditions. With i = m−1 the guard is {e trailing}:
    no such event may occur after the match's last event for as long as
    the window τ is open. Negated variables never bind; their conditions
    in [where] may compare against constants, the variable itself, or
    positive variables of sets up to and including Vi (anything later
    would not be evaluable when the forbidden event arrives).
    Constraints: 0 ≤ i ≤ m−1, quantifier exactly \{1,1\}, names unique
    across all variables. *)

val make :
  schema:Schema.t ->
  sets:Variable.t list list ->
  where:Spec.cond list ->
  within:Time.duration ->
  (t, string list) result
(** {!make_full} with no negations — the paper's Definition 1. *)

val make_exn :
  schema:Schema.t ->
  sets:Variable.t list list ->
  where:Spec.cond list ->
  within:Time.duration ->
  t

val make_full_exn :
  schema:Schema.t ->
  sets:Variable.t list list ->
  negations:(int * Variable.t) list ->
  where:Spec.cond list ->
  within:Time.duration ->
  t

(** {1 Accessors} *)

val schema : t -> Schema.t

val tau : t -> Time.duration

val n_vars : t -> int
(** Number of {e positive} variables. Negated variables live in the id
    range [n_vars … n_vars + List.length (negations p) − 1]. *)

val variable : t -> int -> Variable.t
(** Accepts positive and negated ids. *)

val var_name : t -> int -> string
(** Display name, including the [+] suffix for group variables and a [!]
    prefix for negated variables. *)

val var_id : t -> string -> int option
(** Lookup by bare name (without [+] or [!]); finds negated variables
    too. *)

val is_group : t -> int -> bool
(** May bind more than one event (quantifier max ≠ 1). *)

val min_count : t -> int -> int

val max_count : t -> int -> int option

val group_vars : t -> int list

val n_sets : t -> int

val set_vars : t -> int -> int list
(** Variable ids of the i-th event set pattern, in declaration order. *)

val set_of_var : t -> int -> int
(** Index of the event set pattern a variable belongs to. *)

val negations : t -> (int * int) list
(** (boundary set index, negated variable id) pairs, sorted by boundary.
    Empty for plain paper patterns. *)

val is_negated : t -> int -> bool

val negation_boundary : t -> int -> int option
(** The boundary a negated variable guards; [None] for positive ids. *)

val conditions : t -> Condition.t list
(** Every condition, including those guarding negated variables. *)

val positive_conditions : t -> Condition.t list
(** Θ proper: the conditions that mention no negated variable — the ones
    attached to automaton transitions. *)

val equality_partners :
  t -> ((int * Schema.Field.t) * (int * Schema.Field.t) list) list
(** For every field [u.A] of a positive variable that Θ equates with a
    field of another variable, the partners [(w, A_w)] of all the
    conditions [u.A = w.A_w] (either orientation). Left out are
    reflexive conditions ([p.A = p.A']), conditions on negated variables
    and conditions between fields of different types: equality chains
    through a shared value only within one type ([Int] 2{^53} and
    2{^53}+1 both equal [Float] 2{^53}). By conjunctive decomposition
    every binding of [u] must equal every bound partner value on [A], so
    two partner values that differ leave [u] unbindable. *)

val conditions_on : t -> int -> Condition.t list
(** Conditions mentioning the given variable. *)

val constant_conditions_on : t -> int -> (Schema.Field.t * Predicate.op * Value.t) list
(** The [v.A φ C] conditions on a variable. *)

val singleton_only : t -> bool
(** No group variables anywhere — required by the brute-force baseline's
    exact-equivalence guarantee. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation, e.g.
    [(<{c, p+, d}, {b}>, {c.L = 'C', ...}, 264)]. *)
