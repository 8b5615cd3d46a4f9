(** Runners for the paper's experiments (Sec. 5) and for this repository's
    ablations. Each runner returns printable {!Report.t} tables; the
    numbers regenerate the corresponding paper figure/table on the
    synthetic chemotherapy workload (shapes, not absolute values — see
    EXPERIMENTS.md).

    All runners execute the engines with finalization disabled: the
    post-processing of Definition 2's conditions 4–5 is not part of the
    measured algorithms in the paper, and the measured quantities (|Ω|,
    execution time of the automaton loop) do not depend on it. *)

open Ses_event

type config = {
  chemo : Ses_gen.Chemo.config;  (** the D1 generator *)
  n_datasets : int;  (** D1 … Dn for Experiments 2 and 3 *)
  exp1_max_vars : int;  (** grow |V1| from 2 to this (≤ 6) *)
  repeats : int;  (** timing repetitions (median) *)
}

val default_config : config

val quick_config : config
(** A small instance for tests and smoke runs. *)

val dataset : config -> Relation.t
(** The D1 relation for this configuration (generated deterministically). *)

val datasets_table : config -> Report.t
(** Cardinality and window size of D1 … Dn (the paper's Sec. 5.1 listing). *)

val exp1 : config -> Report.t * Report.t
(** Figure 11 (max simultaneous instances, SES vs. brute force, P1 and P2,
    |V1| from 2 to [exp1_max_vars]) and Table 1 (instance-count ratio for
    P1 against (|V1|−1)!). *)

val exp2 : config -> Report.t
(** Figure 12: max simultaneous instances of P3 (case 3) and P4 (case 2)
    against the window size W of D1 … Dn. *)

val exp3 : config -> Report.t
(** Figure 13: execution time of P5 and P6 with and without the Sec. 4.5
    event filter against W. *)

val ablation_filter : config -> Report.t
(** Paper filter vs. this repository's strong filter vs. none, on P5/P6:
    events dropped and execution time. *)

val ablation_precheck : config -> Report.t
(** Per-instance (the paper's loop) vs. per-event evaluation of constant
    transition conditions ({!Ses_core.Engine.options.precheck_constants}):
    identical raw output, different work. *)

val ablation_prune : config -> Report.t
(** The paper's Q1 with dead-instance pruning off (the verbatim loop)
    and on ({!Ses_core.Engine.options.prune_dead}): identical raw
    matches; instances created, successors pruned, peak |Ω| and time
    show how much of the paper's |Ω| can never match. *)

val ablation_partition : config -> Report.t
(** The running example's Q1 (complete joins) evaluated directly — the
    engine, whose key-indexed store walks one patient's instances per
    event — vs. per patient store partition (the ID-join conditions make
    partitions independent): time, peak |Ω| and match count. *)

val sweep_set_size : config -> Report.t
(** Beyond the paper: measured peak instance counts against the Theorem
    2/3 bounds while the first event set pattern grows (cases 2 and 3). *)

val sweep_selectivity : config -> Report.t
(** Beyond the paper: work as a function of the fraction of events that
    can bind a variable (label alphabet of a synthetic relation). *)

val run_all : ?csv_dir:string -> ppf:Format.formatter -> config -> unit
(** Prints every table to [ppf]; with [csv_dir], also saves one CSV per
    table. *)
