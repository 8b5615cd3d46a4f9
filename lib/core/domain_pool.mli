(** A fixed pool of OCaml 5 worker domains behind bounded
    single-producer/single-consumer queues.

    [create ~domains ~init f] spawns [domains] workers; worker [i] builds
    its state with [init i] and processes the messages sent to it with
    [f state], sequentially and in send order. This is the execution
    substrate of domain-parallel {!Multi}, which assigns whole queries to
    workers and broadcasts the feed.

    After {!quiesce} or {!shutdown} returns, worker state may be read
    (and after [shutdown], mutated) from the calling thread without
    races: both calls establish the necessary happens-before edges.

    Pools whose message type is an array can be fed through a {!batcher},
    which buffers items on the producer side and ships them as whole
    arrays — one queue handshake per batch instead of per item. Batchers
    register themselves with the pool, and {!quiesce}/{!shutdown} flush
    them before synchronizing, so a partial batch is never stranded. *)

type 'a t

val create :
  ?capacity:int ->
  ?telemetry:Telemetry.t ->
  domains:int ->
  init:(int -> 'state) ->
  ('state -> 'a -> unit) ->
  'a t
(** [create ~domains ~init f] spawns the workers. Worker [i] first builds
    its own state by running [init i] {e on its domain}, then processes
    each message with [f state]. The call returns only after every
    worker has finished its init (a ready handshake under the worker's
    mutex), so state the init publishes into caller-visible slots may be
    read immediately without races. An init that raises marks its
    worker failed: the exception re-raises at the next
    {!send}/{!quiesce}/{!shutdown} and the worker drains its queue
    without processing. This is how {!Multi} builds one shared plan per
    worker domain — the plan's interior mutability stays domain-local
    for the pool's whole lifetime.

    [capacity] bounds each worker's queue (default 1024): {!send} blocks
    when the consumer falls that far behind, so an unbounded event
    source cannot exhaust memory. Raises [Invalid_argument] when
    [domains] or [capacity] is < 1.

    With [telemetry], worker [i] times each message it processes into a
    [worker.i] span (through its own {!Telemetry.fork}, so the
    single-writer discipline holds), and {!send} samples the receiving
    queue's depth into a [pool.queue_depth] gauge. A custom
    {!Telemetry.create} clock must be safe to call from any domain. *)

val size : 'a t -> int
(** Number of worker domains. *)

val send : 'a t -> int -> 'a -> unit
(** [send pool i x] enqueues [x] for worker [i]; blocks while the
    queue is full. If the worker's processing function has raised, that
    exception is re-raised here (and by {!quiesce}/{!shutdown}) — the
    worker keeps draining its queue without processing so the producer
    never deadlocks. Single producer: concurrent sends to the same pool
    from several threads are not supported. Raises [Invalid_argument]
    after {!shutdown}. *)

val quiesce : 'a t -> unit
(** Flushes every registered {!batcher}, then blocks until every queue
    is empty and every worker is idle. A no-op after {!shutdown}.
    Re-raises the first worker exception, if any. *)

val shutdown : 'a t -> unit
(** Flushes every registered {!batcher}, drains every queue, then joins
    all worker domains. Idempotent. Re-raises the first worker
    exception, if any. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count], clamped to at least 1. *)

(** {1 Producer-side batching}

    For pools whose messages are arrays of items. The buffers live on
    the producer thread, so a batcher inherits {!send}'s single-producer
    discipline: one thread pushes, flushes happen inline. *)

type 'a batcher

val batcher :
  ?hist:Telemetry.Histogram.t -> ?limit:int -> 'a array t -> 'a batcher
(** [batcher pool] buffers items and sends the buffer as one array to
    every worker when it reaches [limit] items (default 64; raises
    [Invalid_argument] when < 1). [hist], when given, records the size
    of every shipped batch. The batcher registers its {!flush} with the
    pool: {!quiesce} and {!shutdown} run it automatically. *)

val broadcast : 'a batcher -> 'a -> unit
(** [broadcast b x] buffers [x] for {e every} worker; on flush one
    shared array is sent to each queue — the workers must only read
    it. *)

val flush : 'a batcher -> unit
(** Ships the buffer immediately. Idempotent on an empty buffer. *)
