(** State-indexed store of live automaton instances.

    The engine's pool Ω, bucketed by automaton state so that per-event
    work concentrates on the states that can actually react to the event:
    a state whose outgoing transitions all fail the per-event constant
    pre-check (and whose negation guards cannot fire) is left untouched
    in O(1) instead of being walked instance by instance.

    A state's bucket may also be {e keyed}: split into sub-buckets by a
    join value that the caller extracts from each instance (see
    {!handle}). A walk can then visit one key's sub-bucket instead of the
    whole state; the engine does so when every transition and negation
    guard that could fire on an event is pinned to that event's value
    (see {!Engine}). Sub-buckets are allocated on first insert and
    dropped once empty, so an idle key holds nothing.

    Within a bucket, instances are kept sorted ascending by
    [(ts_of, seq_of)] — for the engine, the timestamp of the earliest
    bound event and a unique creation stamp. Because expiry of an
    instance on event [e] depends only on [Event.ts e - first_ts], the
    expired instances of a bucket always form a prefix of this order:
    {!pop_expired} stops at the first unexpired instance instead of
    visiting the whole bucket. A keyed bucket keeps each sub-bucket in
    that order and a heap of their first instances, so the pop costs
    O(expired + 1) heap operations of O(log keys) each, never O(keys).

    Mutations during an event are two-phase: {!stage} queues an instance
    for (re-)insertion without making it visible, and {!commit} merges
    everything staged into the buckets. This is exactly the engine's
    discipline — successors spawned while consuming event [e] must not
    themselves consume [e].

    The store is polymorphic in the instance type; the two order
    accessors are supplied at creation (and a key extractor per keyed
    state), so this module depends only on {!Varset} and the event
    library. *)

open Ses_event

type 'a t

val create : ts_of:('a -> Time.t) -> seq_of:('a -> int) -> unit -> 'a t
(** [seq_of] must be injective over the instances ever stored (the engine
    uses a monotone creation counter), making the per-bucket order — and
    therefore every traversal — deterministic. *)

val size : 'a t -> int
(** Total live instances across all buckets, O(1). Staged instances do
    not count until {!commit}. *)

(** {1 Bucket handles}

    A handle interns one state's bucket: resolving handles once per
    stream (the engine does it per automaton state at [create]) removes
    every per-event hashtable probe from the hot loop — a batch, or a
    whole run, probes each {!Varset} bucket exactly once. Handles remain
    valid for the lifetime of the store; {!clear} empties the buckets in
    place rather than invalidating them. *)

type 'a handle

val handle : ?key:('a -> Value.t) -> 'a t -> Varset.t -> 'a handle
(** Interns (creating if needed, possibly empty) the bucket of the given
    state. [key], honoured only when this call creates the bucket, makes
    it keyed: each instance goes to the sub-bucket of its [key] value.
    Every key of one bucket must have the same type ([Int 1] and
    [Float 1.0] compare equal but hash apart). *)

val handle_size : 'a handle -> int

val expired : now:Time.t -> tau:Time.duration -> Time.t -> bool
(** The window rule: [expired ~now ~tau ts] holds when a window opened
    at [ts] has closed by [now], i.e. more than [tau] lies between
    them. *)

val pop_expired : 'a handle -> now:Time.t -> tau:Time.duration -> 'a list
(** [pop_expired h ~now ~tau] removes and returns, in bucket order, the
    instances whose window has closed by [now]: those whose [ts_of] lies
    more than [tau] before it. They form a prefix of the bucket order.
    The check reads the bucket's head (a keyed bucket's heap top) first,
    so a bucket with nothing expired costs one comparison and allocates
    nothing. *)

val walk : 'a handle -> ('c -> 'a -> bool) -> 'c -> int
(** [walk h keep ctx] applies [keep ctx] to the bucket's instances in
    bucket order and removes those on which it returns [false]. Returns
    the number visited. [ctx] is passed through so that a caller's
    top-level [keep] needs no closure; a walk that removes nothing from
    an unkeyed bucket allocates nothing. *)

val walk_key : 'a handle -> Value.t -> ('c -> 'a -> bool) -> 'c -> int
(** [walk_key h key keep ctx] is {!walk} over [key]'s sub-bucket of a
    keyed bucket (visiting nothing when that key holds no instance), and
    over the whole bucket of an unkeyed one. A walk that removes nothing
    allocates nothing. *)

val take_all : 'a handle -> 'a list
(** Removes and returns the whole bucket, in bucket order. *)

val put_back : 'a handle -> 'a list -> unit
(** Restores survivors of a {!take_all}, which must still be in bucket
    order and target an empty bucket; O(length) when unkeyed. *)

val stage : 'a handle -> 'a -> unit
(** Queues an instance for insertion into the bucket; invisible to every
    reader until {!commit}. Pending inserts live on the bucket itself,
    and the store keeps a dirty list so {!commit} touches only buckets
    actually staged into. *)

val commit : 'a t -> unit
(** Sorts what was staged and merges it into the buckets. *)

val fold_buckets : (Varset.t -> 'a list -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Folds over non-empty buckets in ascending state order; each bucket is
    presented in bucket order. *)

val to_list : 'a t -> 'a list
(** All instances, ascending by state then bucket order. *)

val sub_buckets : 'a t -> int
(** Sub-buckets currently allocated across all keyed buckets. Each holds
    at least one instance or one staged insert. *)

val clear : 'a t -> unit
