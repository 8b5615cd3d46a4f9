(** Random relations and random SES patterns for property-based testing.

    The generators are deliberately small-domain (few labels, few entity
    ids, short gaps) so that random patterns actually match, exercise
    nondeterministic branching and group-variable loops, and keep
    brute-force cross-checks affordable. *)

open Ses_event
open Ses_pattern

val schema : Schema.t
(** (ID : int, L : string, V : int) plus the timestamp. *)

type relation_spec = {
  n_events : int;
  n_labels : int;  (** labels "a", "b", … *)
  n_ids : int;  (** entity ids 1 … n *)
  min_gap : int;
      (** minimal time-unit gap between consecutive events; 0 allows
          simultaneous events, 1 yields the strictly increasing timestamps
          the paper assumes (its Sec. 3.1 total order) *)
  max_gap : int;  (** maximal time-unit gap between consecutive events *)
  max_value : int;  (** V is uniform in [0, max_value] *)
}

val default_relation : relation_spec

val relation : Prng.t -> relation_spec -> Relation.t

val duplicated_relation : Prng.t -> copies:int -> relation_spec -> Relation.t
(** [spec.n_events * copies] events, D1–D5 style: each base event is
    duplicated [copies] times at its own timestamp with the entity id
    shifted into a per-copy disjoint range, so every id's sub-stream
    keeps the base spec's shape while the whole relation scales to
    millions of events. Raises [Invalid_argument] when [copies < 1]. *)

(** The graph of [ID] equalities a pattern's joins form. *)
type join_shape =
  | Complete  (** every pair of variables joined *)
  | Star
      (** one variable, drawn at random, joined to every other — Q1's
          shape, where two bound partners need not share an ID *)
  | Chain  (** each variable joined to the next, in declaration order *)

type pattern_spec = {
  max_sets : int;  (** ≥ 1 *)
  max_vars_per_set : int;  (** ≥ 1 *)
  allow_groups : bool;  (** at most one group variable is generated *)
  p_label_cond : float;  (** probability a variable gets an L = 'x' condition *)
  p_id_join : float;  (** probability of ID-equality joins across variables *)
  join_shapes : join_shape list;
      (** the shapes those joins are drawn from, uniformly; must not be
          empty (default [[Complete]]: a single shape draws no
          randomness, so the default's draws are those of a generator
          without this field) *)
  p_value_cond : float;  (** probability of a V φ k condition *)
  n_labels : int;
  max_value : int;
  tau_min : int;
  tau_max : int;
}

val default_pattern : pattern_spec

val pattern : Prng.t -> pattern_spec -> Pattern.t
