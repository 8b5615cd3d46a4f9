(** Run classes: the instances of one automaton state held as a few
    cohorts over a shared binding DAG.

    When no condition can tell two instances of a state apart — every
    transition condition is constant apart from the inter-set timestamp
    order, every negation guard is constant, and no quantifier bound
    counts bindings — every instance of the state gets the same verdict
    on every event, except that the order constraint [v.T > u.T] (for
    every [u] the state binds) holds exactly when the event is later
    than the instance's newest binding. So a state's members are grouped
    into cohorts that share the start of their window ([first_ts]) and
    the timestamp of their newest binding ([last_ts]): all members of a
    cohort expire together and fire the same transitions, and an event
    costs one step per cohort instead of one per instance. This is the
    compact run DAG of García & Riveros (extend and union nodes,
    annotated with start times), restricted to the case where whole
    classes move together.

    A cohort's members are the paths from its node to [Root]: an
    [Extend (b, parent)] node adds binding [b] to every member of
    [parent], and a [Union] holds the members of both sides. Nodes are
    immutable and shared, so extending a cohort of any size allocates one
    node.

    Like {!Instance_store}, mutation during an event is two-phase:
    {!stage} queues a cohort without making it visible, and {!commit}
    merges what was staged, coalescing cohorts of one class that agree on
    [(first_ts, last_ts)] under a [Union]. The engine owns the per-event
    decisions; this module keeps the lists ordered and the member counts
    right. *)

open Ses_event

type node =
  | Root
  | Extend of Substitution.binding * node
  | Union of node * node

type cohort = {
  first_ts : Time.t;  (** the members' earliest binding *)
  last_ts : Time.t;  (** the members' newest binding *)
  count : int;  (** members: root paths of [node] *)
  node : node;
}

type pool
(** The classes of one stream, with their total member count and the
    classes holding staged cohorts. *)

type t
(** One state's class: its cohorts ascending by [first_ts]. *)

val create_pool : unit -> pool

val create : pool -> t

val total : pool -> int
(** Members across the pool's classes, O(1). Staged cohorts do not count
    until {!commit}. *)

val size : t -> int
(** Members of one class, O(1). *)

val stage : t -> cohort -> unit

val commit : pool -> unit
(** Merges every staged cohort into its class. *)

val walk : t -> ('ctx -> cohort -> bool) -> 'ctx -> int
(** [walk t keep ctx] applies [keep ctx] to each cohort in order and
    keeps those on which it holds; returns the number of cohorts
    walked. *)

val pop_expired : t -> now:Time.t -> tau:Time.duration -> cohort list
(** Removes and returns, oldest first, the cohorts whose window has
    closed by [now] ({!Instance_store.expired} on [first_ts]): a prefix
    of the class. *)

val take_all : t -> cohort list
(** Removes and returns every cohort of the class, in order. *)

val iter_members : (Substitution.t -> unit) -> node -> unit
(** Applies the function to each member of [node], as a substitution in
    binding order (oldest first). *)
