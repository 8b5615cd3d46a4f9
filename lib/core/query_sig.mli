(** The constant-free structural signature of SES automata.

    Whether two registered queries are instances of one template —
    identical up to constants — reduces to string equality on
    {!skeleton}; {!Shared_plan.stats} reports the resulting template
    groups. The serialization is collision-free (states print as
    bitmasks) and independent of variable names and condition spans,
    neither of which affects execution. *)

open Ses_event

val skeleton : Automaton.t -> string * Value.t list
(** Serializes everything execution observes — τ, per-set variables with
    quantifier bounds, negations (with the negated variable masked, so
    ids assigned to negations don't matter) and every state's outgoing
    transitions with their condition sets — with every constant widened
    to a typed slot marker; the constants are returned in serialization
    order. Queries with equal skeletons are instances of one
    template. *)
