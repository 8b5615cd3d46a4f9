(** Runtime counters collected during the execution of a SES automaton.

    [max_simultaneous_instances] is the |Ω| quantity measured throughout
    Sec. 5 (sampled after each input event has been fully consumed);
    the other counters support the ablation benchmarks. *)

type t

type snapshot = {
  events_seen : int;  (** events read from the input *)
  events_filtered : int;  (** dropped by the Sec. 4.5 filter *)
  instances_created : int;  (** fresh start instances + branches *)
  max_simultaneous_instances : int;  (** max |Ω| *)
  transitions_fired : int;
  instances_expired : int;  (** removed on τ violation *)
  instances_killed : int;  (** removed by a negation guard *)
  instances_pruned : int;
      (** successors dropped at creation because they can never accept:
          a still-unbound variable's equality partners already disagree
          (see {!Engine.options.prune_dead}). Not counted in
          [instances_created] or [transitions_fired]. *)
  matches_emitted : int;  (** raw candidate substitutions *)
}

val create : unit -> t

val on_event : t -> unit

val on_events : t -> int -> unit
(** [on_event], [n] at a time — the batched feed counts a whole chunk
    with one store. *)

val on_filtered : t -> unit

val on_filtered_many : t -> int -> unit

val on_instance_created : t -> unit

val on_transition : t -> unit

val on_expired : t -> unit

val on_killed : t -> unit

val on_pruned : t -> unit

(** {2 Bulk adders}

    [n] at a time: a run-class stream (see {!Engine}) moves a whole
    cohort of instances with one step, and counts it with one store. *)

val on_instances_created_many : t -> int -> unit

val on_transitions_many : t -> int -> unit

val on_expired_many : t -> int -> unit

val on_killed_many : t -> int -> unit

val on_match : t -> unit

val sample_population : t -> int -> unit
(** Record the current |Ω|. Callers are expected to pass a maintained
    counter (the engine's instance store tracks its size), not to count
    the population on every event. *)

val snapshot : t -> snapshot

val merge_replicas : snapshot list -> snapshot
(** Combines the snapshots of executors that each consume the {e whole}
    input (the Sec. 5.2 brute-force chains): [events_seen] and
    [events_filtered] take the max (they agree across replicas), the
    work-side counters sum, and the instance peaks sum — the paper's
    accounting for automata that run simultaneously. *)

val zero : snapshot

val to_json : snapshot -> string
(** One-line JSON object, for machine-readable benchmark output. *)

val pp : Format.formatter -> snapshot -> unit
