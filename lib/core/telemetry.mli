(** Zero-dependency runtime instrumentation for the execution path.

    A {!t} is a recorder: a set of named probes — {!Span}s (wall-clock
    timers), {!Histogram}s (fixed-bucket log2 value distributions),
    {!Gauge}s (sampled levels with peak tracking) and {!Counter}s —
    created on first use and exported as a {!profile}.

    The probes the engine plants are all guarded by a {!sink}
    ([t option]): with [None] — the default everywhere — each probe
    costs exactly one branch, so the uninstrumented hot path stays the
    hot path. Handles ({!span}, {!histogram}, …) are resolved once at
    stream-construction time, never per event.

    {b Threading.} Spans, histograms and counters are plain mutable
    state: each handle must be written by one domain at a time.
    Domain-parallel {!Multi} honours this by {!fork}ing one child
    recorder per worker and writing only to its own; gauges are atomic
    and may be shared across domains. {!snapshot} reads children
    without locks — call it only after the workers have quiesced
    ([Multi]'s reads and [close] already impose exactly that
    discipline).

    {b Clock.} Durations come from the recorder's clock, a
    [unit -> int] returning nanoseconds. The default is derived from
    [Unix.gettimeofday] (the portable choice without C stubs); negative
    intervals are clamped to zero, so a wall-clock step back never
    produces a negative duration. Tests inject a deterministic clock. *)

type t

type sink = t option
(** [None] is the no-op sink: every probe behind it is one branch. *)

val create : ?clock:(unit -> int) -> unit -> t
(** A fresh recorder. [clock] returns the current time in nanoseconds
    and defaults to a [Unix.gettimeofday]-based reading. *)

val fork : t -> t
(** A child recorder sharing the parent's clock. {!snapshot} of the
    parent merges every descendant's probes name-by-name (see
    {!profile} for the merge rules), so a domain-parallel executor
    gives each worker its own child and exports one unified profile.
    Fork before handing the child to another domain. *)

val now : t -> int
(** The recorder's clock, in nanoseconds — for derived rates (rows/sec)
    that must share the time base of the spans. *)

module Span : sig
  type t

  val start : t -> int
  (** A start token (the clock reading). Spans nest freely: tokens are
      independent, so timing a span inside another — or the same span
      recursively — records both intervals. *)

  val stop : t -> int -> unit
  (** [stop s token] records one interval of [now - token] ns. *)

  val stop_elapsed : t -> int -> int
  (** Like {!stop}, but also returns the recorded interval — for
      callers that feed the same measurement to a histogram without a
      second clock read. *)

  val record : t -> (unit -> 'a) -> 'a
  (** Times the thunk (exceptions still record the interval). *)

  val count : t -> int

  val total_ns : t -> int

  val max_ns : t -> int
end

module Histogram : sig
  type t

  val n_buckets : int
  (** 32: bucket 0 holds values < 2, bucket [i] (1 ≤ i < 31) holds
      [2{^i} … 2{^i+1}-1], and bucket 31 is the overflow bucket
      ([≥ 2{^31}], absorbing everything beyond the log2 edges). *)

  val bucket_of : int -> int
  (** The bucket index a value lands in; negatives count as 0. *)

  val lower_bound : int -> int
  (** Inclusive lower edge of bucket [i]: 0 for bucket 0, else 2{^i}. *)

  val observe : t -> int -> unit

  val count : t -> int

  val sum : t -> int

  val max_value : t -> int

  val bucket_counts : t -> int array
  (** A copy, length {!n_buckets}. *)
end

module Gauge : sig
  type t
  (** Atomic: safe to share across domains. *)

  val observe : t -> int -> unit
  (** Sample an absolute level: sets [last], raises [peak]. *)

  val samples : t -> int

  val last : t -> int

  val peak : t -> int
end

module Counter : sig
  type t

  val incr : t -> unit

  val add : t -> int -> unit

  val value : t -> int
end

val span : t -> string -> Span.t
(** Find-or-create by name. Resolve handles once, outside the hot
    loop. *)

val histogram : t -> string -> Histogram.t

val gauge : t -> string -> Gauge.t

val counter : t -> string -> Counter.t

(** {1 Profiles}

    An exported snapshot: plain data, sorted by probe name. Merging —
    across {!fork}ed shards, or of two profiles — is name-by-name:
    span counts/totals sum and maxima take the max; histograms add
    bucket-wise (counts and sums sum, maxima max); gauge samples sum,
    peaks take the max, [last] the max of lasts (shard lasts have no
    global order); counters sum. *)

type span_data = {
  span_count : int;
  span_total_ns : int;
  span_max_ns : int;
}

type histogram_data = {
  hist_count : int;
  hist_sum : int;
  hist_max : int;
  hist_buckets : int array;  (** trailing zero buckets trimmed *)
}

type gauge_data = {
  gauge_samples : int;
  gauge_last : int;
  gauge_peak : int;
}

type profile = {
  spans : (string * span_data) list;
  histograms : (string * histogram_data) list;
  gauges : (string * gauge_data) list;
  counters : (string * int) list;
}

val snapshot : t -> profile
(** The recorder's probes merged with all its descendants'. Quiesce
    worker domains first. *)

val merge_profiles : profile list -> profile

val to_json : profile -> string
(** Deterministic layout: sections in a fixed order, names sorted, one
    line per named probe (so line-oriented filters can pick out the
    stable fields). *)

val of_json : string -> (profile, string) result
(** Parses exactly the subset of JSON {!to_json} emits (objects,
    arrays, strings, integers). [of_json (to_json p) = Ok p]. *)

val to_prometheus : profile -> string
(** Prometheus text exposition: [ses_span_*], [ses_histogram_*]
    (cumulative [le] buckets), [ses_gauge_*], [ses_counter]. *)
