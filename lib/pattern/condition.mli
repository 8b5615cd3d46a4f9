(** Conditions θ over event variables (Sec. 3.2).

    A condition has the form [v.A φ v'.A'] or [v.A φ C], where A, A' are
    event attributes (or the timestamp T), C is a constant and
    φ ∈ {=, ≠, <, ≤, >, ≥}. Variables are referred to by their integer id
    inside the owning pattern.

    For group variables the paper's semantics decompose a condition over
    all bindings of the variable: a condition holds for a substitution iff
    it holds for {e every combination} of bindings of its two variables
    ({e conjunctive} decomposition, Sec. 3.2). [holds] implements exactly
    that, and [holds_on] the incremental variant used by transition
    evaluation. *)

open Ses_event

type operand =
  | Const of Value.t
  | Var of int * Schema.Field.t  (** variable id and field *)

type t = {
  var : int;  (** the constrained variable's id *)
  field : Schema.Field.t;
  op : Predicate.op;
  rhs : operand;
  span : Span.t option;
      (** source location when the condition came from query text *)
}

val make_const :
  ?span:Span.t -> var:int -> field:Schema.Field.t -> Predicate.op -> Value.t -> t

val make_var :
  ?span:Span.t ->
  var:int -> field:Schema.Field.t -> Predicate.op ->
  var':int -> field':Schema.Field.t -> t

val span : t -> Span.t option

val is_constant : t -> bool
(** Whether the right-hand side is a constant — the [v.A φ C] form that
    drives mutual exclusivity (Def. 6) and event filtering (Sec. 4.5). *)

val vars : t -> int list
(** The variable ids mentioned (one or two entries, duplicates removed). *)

val mentions : t -> int -> bool

val other_var : t -> int -> int option
(** [other_var c v] is the variable on the opposite side of [v] in [c]:
    [None] for constant conditions or when [c] relates [v] to itself. *)

val typecheck : Schema.t -> t -> (unit, string) result
(** Checks that compared field/constant types are compatible. *)

val holds : t -> (int -> Event.t list) -> bool
(** [holds c bindings] evaluates [c] under the full decomposition: every
    combination of bindings of the two variables must satisfy φ. Variables
    with no bindings make the condition vacuously true. *)

val holds_on :
  t -> var:int -> event:Event.t -> (int * Event.t) list -> bool
(** [holds_on c ~var ~event bindings] evaluates the instantiations of [c]
    in which [var]'s binding is the new [event]: every occurrence of
    [var] reads [event] (both sides, for a reflexive condition), and the
    other variable ranges over its entries in [bindings], a
    [(variable, event)] list in any order (an instance's match buffer).
    This is the transition-time check: summed over the run it covers the
    same combinations as {!holds}. It builds no list and no closure. *)

val pp : Schema.t -> name_of:(int -> string) -> Format.formatter -> t -> unit
(** Prints like the paper: [c.ID = p+.ID], [b.L = 'B']. *)
