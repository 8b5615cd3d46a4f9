(** The server core, free of sockets.

    Multiplexes {!Session}s over abstract per-connection byte buffers
    and owns all tenant state: per-tenant query sets (a sequential
    {!Ses_core.Multi} with runtime register/unregister), bounded ingest
    queues with SLOW/RESUME backpressure, idle timeouts and the
    [server.*] telemetry probes. The TCP layer is a thin adapter —
    push received bytes through {!input}, write {!take_output} to the
    wire, call {!tick} once per loop iteration — and the integration
    tests drive exactly the same entry points through in-memory pipes,
    deterministically (the [?now] parameters are the only clock).

    {b Ordering.} Commands take effect in arrival order per connection.
    Ingested rows are parsed and queued immediately but fed to the
    engines asynchronously ({!tick}, [drain_quota] events per tenant per
    call) — except that [REGISTER], [UNREGISTER], [METRICS] and [QUIT]
    drain the issuing tenant's queue first, so their observable effects
    (RESULT lines, STATS counts, final MATCH lines) deterministically
    reflect everything sent before them. *)

open Ses_event
open Ses_core

type overflow =
  | Drop_oldest  (** shed the oldest queued events, keep reading *)
  | Block  (** stop reading the tenant's connections until drained *)

type config = {
  schema : Schema.t;  (** row schema for EVENT/BATCH lines *)
  options : Engine.options;  (** engine options; [domains] forced to 1 *)
  queue_capacity : int;  (** per-tenant ingest queue bound *)
  overflow : overflow;
  idle_timeout : float;  (** seconds; 0 disables *)
  drain_quota : int;  (** events fed per tenant per {!tick} *)
  telemetry : Telemetry.t option;
}

val default_config : schema:Schema.t -> config
(** Capacity 1024, [Block] overflow, no idle timeout, quota 256, no
    telemetry. *)

type t

val create : config -> t

val add_conn : ?now:float -> t -> int
(** A new connection; returns its id. *)

val input : ?now:float -> t -> int -> string -> unit
(** Bytes received from connection [id], in any chunking. Replies and
    broadcasts are appended to the relevant output buffers. *)

val close_conn : t -> int -> unit
(** The peer is gone (EOF, reset, mid-BATCH kill): forget the
    connection. Tenant state persists — other connections of the same
    tenant are unaffected. *)

val take_output : t -> int -> string
(** Drain the pending output bytes for a connection (empty if none). *)

val pending_output : t -> int -> int

val want_read : t -> int -> bool
(** False when the connection should not be read: it is closing, or
    blocked by [Block]-mode backpressure. *)

val is_closing : t -> int -> bool
(** Close the transport once its pending output is flushed. *)

val tick : ?now:float -> t -> unit
(** One scheduler step: feeds up to [drain_quota] queued events per
    tenant (streaming MATCH lines to subscribers, sending RESUME when a
    queue falls under the low-water mark), samples queue-depth
    telemetry, and expires idle connections. A connection is idle when
    nothing arrived from it for [idle_timeout] seconds while the server
    was willing to read it: the clock stops while [Block] backpressure
    holds the connection unread, and restarts at its RESUME. *)

val has_queued : t -> bool
(** True while some tenant's ingest queue holds rows, i.e. the next
    {!tick} has events to feed. An event loop should then poll rather
    than sleep: a connection with [want_read = false] under [Block]
    backpressure waits on those rows, and only ticks drain them. Every
    tick drains up to [drain_quota] rows per tenant, so a loop that
    ticks while this holds reaches an empty queue and can block
    again. *)

val connections : t -> int
val conn_ids : t -> int list

val metrics_page : t -> string
(** Prometheus text exposition of the telemetry recorder (the
    [/metrics] HTTP body). *)

val shutdown : t -> unit
(** Graceful stop: drains every tenant, closes the engines (flushing
    close-time emissions to subscribers), and marks every connection
    closing with a BYE. *)
