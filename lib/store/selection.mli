(** Simple selection queries over stored relations — the read path a SES
    query planner would push down to the store before pattern matching
    (e.g. restricting to one ward, one time range, or pre-applying the
    Sec. 4.5 event filter inside the store). *)

open Ses_event

type predicate

val attr : string -> Predicate.op -> Value.t -> predicate
(** Comparison of a named attribute (or "T") against a constant. *)

val conj : predicate list -> predicate

val disj : predicate list -> predicate

val time_range : Time.t -> Time.t -> predicate
(** Inclusive bounds. *)

val compile : Schema.t -> predicate -> ((Event.t -> bool), string) result
(** Resolves attribute names; fails on unknown attributes or type
    mismatches. *)

val compile_traced :
  trace:(string -> bool -> unit) ->
  Schema.t ->
  predicate ->
  ((Event.t -> bool), string) result
(** Like {!compile}, but calls [trace name passed] on every atomic
    comparison actually evaluated (conjunction and disjunction
    short-circuit, so atoms skipped by earlier ones do not report) —
    the hook per-field selectivity telemetry hangs on, without this
    library knowing anything about the instrumentation layer. *)

val compile_row :
  ?trace:(string -> bool -> unit) ->
  Schema.t ->
  predicate ->
  ((Csv.row -> bool), string) result
(** The same decision as {!compile} (or {!compile_traced} with [?trace]),
    made on a decoded CSV row before any event is built: string atoms
    compare the field's bytes, int atoms the number the decoder parsed in
    place, and any other (field type, constant) pair decodes that one
    field for {!Ses_event.Predicate.eval}. Atoms are evaluated, and
    traced, in the same order with the same short-circuiting. *)

val select : Relation.t -> predicate -> (Relation.t, string) result

val pp : Format.formatter -> predicate -> unit
(** Human-readable rendering, e.g. [((L = 'C') or (L = 'P'))] — used to
    report which predicate a streaming run pushed into the scan. *)
