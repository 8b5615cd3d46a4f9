(** Streaming CSV reader: events from a file without loading it whole.

    Reads the self-describing header, then yields events one at a time in
    file order, assigning sequence numbers as it goes. The feed must be
    chronologically sorted (the engine's input contract); out-of-order
    timestamps are reported as an error. Use this to pipe large archived
    relations straight into a {!Ses_core.Executor} with O(1) memory.

    A {!Selection.predicate} can be pushed down into the scan: it is
    decided on the decoded row ({!Selection.compile_row}), and rejected
    rows are dropped before any event is built for them. Every row is
    still validated, and sequence numbers are assigned to {e every}
    scanned row, dropped or not, so the delivered events are identical to
    what a client-side filter over the full scan would produce. *)

open Ses_event

(** {1 Staged source interface} *)

type source

val open_source : ?selection:Selection.predicate -> string -> (source, string) result
(** Opens the file and parses the header. [?selection] is compiled
    against the parsed schema (an unknown attribute or type mismatch is
    an [Error] and the file is closed). *)

val source_schema : source -> Schema.t

val push_selection :
  ?trace:(string -> bool -> unit) ->
  source ->
  Selection.predicate ->
  (unit, string) result
(** Installs (replacing any previous filter) a store-side filter compiled
    against the source's schema. Callers that need the schema to build
    the predicate — e.g. a pattern parsed against it — use this after
    {!open_source}. [?trace] is called on every atom evaluated, as in
    {!Selection.compile_traced}. *)

val next : source -> (Event.t option, string) result
(** The next event passing the filter; [Ok None] at end of input. Errors
    (malformed row, out-of-order timestamp) carry the 1-based row
    number. *)

val next_batch : source -> int -> (Event.t array, string) result
(** Up to [max] events passing the filter, in file order ([max >= 1];
    raises [Invalid_argument] otherwise), in a fresh array. The empty
    array means end of input — a short but non-empty chunk does not. An
    error aborts the whole chunk (events scanned before the bad row
    within it are not returned), so treat any [Error] as fatal to the
    scan. *)

val fold_source : source -> init:'a -> f:('a -> Event.t -> 'a) -> ('a, string) result

val scanned : source -> int
(** Rows read from the file so far (including dropped ones). *)

val dropped : source -> int
(** Rows dropped by the pushed-down filter. *)

val last_ts : source -> Time.t option
(** The timestamp of the last row scanned, dropped or not; [None] before
    the first row. A consumer fed only the delivered rows advances its
    clock to it at the end of the scan ({!Ses_core.Executor.advance}),
    so windows the dropped tail closes close there too. *)

val close_source : source -> unit
(** Closes the file; idempotent. [next] afterwards returns [Ok None]. *)

val with_source :
  ?selection:Selection.predicate ->
  string ->
  (source -> ('a, string) result) ->
  ('a, string) result
(** Opens, runs the callback, and closes the file (also on exceptions). *)

(** {1 Whole-file convenience} *)

val fold :
  string ->
  init:'a ->
  f:('a -> Event.t -> 'a) ->
  (Schema.t * 'a, string) result
(** [fold path ~init ~f] opens [path], parses the header, folds [f] over
    the events and closes the file (also on exceptions). *)

val iter : string -> f:(Event.t -> unit) -> (Schema.t, string) result

val count : string -> (int, string) result
(** Number of events, without materializing them. *)

val stats : ?cap:int -> string -> (Schema.t * Stats.t, string) result
(** One streaming pass accumulating {!Ses_event.Stats} — row count,
    per-attribute cardinality and value histograms — without
    materializing the relation. [?cap] bounds the persisted histogram
    (default {!Ses_event.Stats.default_cap}). *)

(** {1 Row-at-a-time entry point} *)

type line_decoder
(** One reader and typed row, reused for every line it decodes: a live
    ingestion path (the server's rows) keeps one per schema and stops
    allocating for the parse once it has seen its longest line. *)

val line_decoder : Schema.t -> line_decoder

val decode_line : line_decoder -> seq:int -> string -> (Event.t, string) result
(** Parses one CSV data record (no header, no trailing newline) against
    the decoder's schema into an event with the given sequence number —
    the entry point for live ingestion paths that receive rows one line
    at a time rather than as a file scan. The caller owns sequence
    numbering and the chronological-order check. Errors are the CSV
    layer's (malformed quoting, arity mismatch, bad value or
    timestamp). *)

val row_of_line : Schema.t -> seq:int -> string -> (Event.t, string) result
(** {!decode_line} through a fresh decoder. *)
