(** Execution tracing — the paper's Figure 6 as a first-class artifact.

    Figure 6 walks through seven selected steps of the running example's
    execution: which transition each input event triggers, which events an
    instance ignores, and when the accepting state is reached. [run]
    records that narrative for a whole execution; {!pp_observation} prints
    one step in the same spirit, e.g.

    {v
    read e4: take ({c,d} --p+--> {c,d,p+}), buffer {c/e1, d/e3, p+/e4}
    read e6: ignore at {c,d,p+}, buffer {c/e1, d/e3, p+/e4}
    v}

    A successor dropped as dead ({!Engine.options.prune_dead}) prints as
    [prune] in place of [take], with the buffer it would have had. *)

open Ses_event
open Ses_pattern

val run :
  ?options:Engine.options ->
  Automaton.t ->
  Relation.t ->
  Engine.observation list * Engine.outcome
(** Runs the engine with a recording observer; returns the observations in
    execution order together with the normal outcome. *)

val pp_observation :
  Pattern.t -> Format.formatter -> Engine.observation -> unit

val pp :
  Pattern.t -> Format.formatter -> Engine.observation list -> unit
(** One observation per line. *)

val for_buffer :
  Substitution.t -> Engine.observation list -> Engine.observation list
(** Restricts a trace to the steps that belong to the instance line that
    produced the given substitution: steps whose buffer is a prefix-subset
    of it (plus its emission). This reconstructs Figure 6, which follows
    the single instance producing patient 1's match. *)
