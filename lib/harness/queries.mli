(** The patterns of the paper's evaluation (Sec. 5), over the chemotherapy
    schema of {!Ses_gen.Chemo}.

    - Experiment 1: P1/P2 with event set patterns growing from {c,d} to
      {c,d,p,v,r,l}, followed by {b}; Θ1 binds every variable to a distinct
      medication (pairwise mutually exclusive), Θ2 binds all variables to
      the same medication type.
    - Experiment 2: P3 = ⟨{c,d,p+},{b}⟩ and P4 = ⟨{c,d,p},{b}⟩, both with
      the non-exclusive Θ2.
    - Experiment 3: P5 = ⟨{c,d,p+},{b}⟩ with Θ1 and P6 with Θ2.

    τ is 264 hours everywhere, as in the paper. *)

open Ses_pattern

val tau : int

val q1 : Pattern.t
(** The running example's Query Q1: ⟨{c, p+, d}, {b}⟩ with per-patient ID
    joins. *)

val q1_complete : Pattern.t
(** Q1 with p as a singleton variable and the ID-join graph completed to
    all six variable pairs, which pins every transition to the ID, so
    that the store partitions of the partition ablation are independent
    and every state of the engine walks one patient's instances per
    event (neither Q1's star-shaped joins nor its p+ loop allow that:
    see {!Ses_core.Engine}). *)

val exp1_exclusive : int -> Pattern.t
(** [exp1_exclusive n] is P1 restricted to the first [n] of c,d,p,v,r,l
    (2 ≤ n ≤ 6): each variable matches its own medication label, followed
    by {b}. *)

val exp1_overlapping : int -> Pattern.t
(** [exp1_overlapping n] is P2: same shape, every variable matches
    Prednisone administrations (L = 'P'). *)

val p3 : Pattern.t

val p4 : Pattern.t

val p5 : Pattern.t

val p6 : Pattern.t
(** Alias of {!p3}: the paper reuses the same pattern under both names. *)

val p6_dose : Pattern.t
(** P6 with an additional dose threshold (V ≥ 100) on every medication
    variable. Used by the filter ablation: the paper's any-condition
    filter keeps every P administration, while the strong per-variable
    filter also drops the low-dose ones. *)
