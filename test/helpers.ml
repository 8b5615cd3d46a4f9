(* Shared builders for the test suites. *)

open Ses_event
open Ses_pattern

(* A minimal schema used by most algorithmic tests: an entity id, a label
   and an integer value. *)
let schema =
  Schema.make_exn
    [ ("ID", Value.Tint); ("L", Value.Tstr); ("V", Value.Tint) ]

(* [rel rows] builds a relation over {!schema} from (id, label, value, ts)
   quadruples. *)
let rel rows =
  Relation.of_rows_exn schema
    (List.map
       (fun (id, l, v, ts) ->
         ([| Value.Int id; Value.Str l; Value.Int v |], ts))
       rows)

(* [rel_l rows] builds from (label, ts) pairs with id = 1 and v = 0. *)
let rel_l rows = rel (List.map (fun (l, ts) -> (1, l, 0, ts)) rows)

let v name = Variable.singleton name

let vplus name = Variable.group name

let label name l = Pattern.Spec.const name "L" Predicate.Eq (Value.Str l)

let pattern ?(where = []) ~within sets =
  Pattern.make_exn ~schema ~sets ~where ~within

(* Canonical rendering of a substitution for assertions: variable names
   paired with 1-based event numbers, sorted. *)
let compare_name_seq (n, s) (n', s') =
  let c = String.compare n n' in
  if c <> 0 then c else Int.compare s s'

let subst_repr p s =
  List.sort compare_name_seq
    (List.map
       (fun (var, seq) -> (Pattern.var_name p var, seq + 1))
       (Ses_core.Substitution.canonical s))

let substs_repr p ss =
  List.sort (List.compare compare_name_seq) (List.map (subst_repr p) ss)

let check_substs p expected actual =
  Alcotest.(check (list (list (pair string int))))
    "substitutions"
    (List.sort (List.compare compare_name_seq) expected)
    (substs_repr p actual)

let run ?options p relation =
  Ses_core.Engine.run_relation ?options (Ses_core.Automaton.of_pattern p)
    relation

(* The paper's Figure 1 relation and Query Q1, shared by several suites. *)
let chemo_schema =
  Schema.make_exn
    [
      ("ID", Value.Tint);
      ("L", Value.Tstr);
      ("V", Value.Tfloat);
      ("U", Value.Tstr);
    ]

let figure_1 =
  let row id l value u day hour =
    ( [| Value.Int id; Value.Str l; Value.Float value; Value.Str u |],
      (24 * day) + hour )
  in
  Relation.of_rows_exn chemo_schema
    [
      row 1 "C" 1672.5 "mg" 0 9;
      row 1 "B" 0. "WHO-Tox" 0 10;
      row 1 "D" 84. "mgl" 0 11;
      row 1 "P" 111.5 "mg" 1 9;
      row 2 "B" 0. "WHO-Tox" 2 9;
      row 2 "P" 88. "mg" 2 10;
      row 2 "D" 84. "mgl" 2 11;
      row 2 "C" 1320. "mg" 3 9;
      row 1 "P" 111.5 "mg" 3 10;
      row 2 "P" 88. "mg" 3 11;
      row 2 "P" 88. "mg" 4 9;
      row 1 "B" 1. "WHO-Tox" 9 9;
      row 2 "B" 1. "WHO-Tox" 10 9;
      row 2 "B" 0. "WHO-Tox" 11 9;
    ]

let clabel name l = Pattern.Spec.const name "L" Predicate.Eq (Value.Str l)

let query_q1 =
  Pattern.make_exn ~schema:chemo_schema
    ~sets:[ [ v "c"; vplus "p"; v "d" ]; [ v "b" ] ]
    ~where:
      ([ clabel "c" "C"; clabel "p" "P"; clabel "d" "D"; clabel "b" "B" ]
      @ Pattern.Spec.
          [
            fields "c" "ID" Predicate.Eq "p" "ID";
            fields "c" "ID" Predicate.Eq "d" "ID";
            fields "d" "ID" Predicate.Eq "b" "ID";
          ])
    ~within:264

(* Q1 with p as a singleton variable — the version of Example 11 that the
   brute force handles exactly. *)
let query_q1_singleton =
  Pattern.make_exn ~schema:chemo_schema
    ~sets:[ [ v "c"; v "p"; v "d" ]; [ v "b" ] ]
    ~where:
      ([ clabel "c" "C"; clabel "p" "P"; clabel "d" "D"; clabel "b" "B" ]
      @ Pattern.Spec.
          [
            fields "c" "ID" Predicate.Eq "p" "ID";
            fields "c" "ID" Predicate.Eq "d" "ID";
            fields "d" "ID" Predicate.Eq "b" "ID";
          ])
    ~within:264

(* A two-set pattern whose guard NOT (x) arms at the set boundary, with
   a star of ID joins from a (a group variable on half of the draws).
   The guard is pinned (x.ID = a.ID) on half of the draws; unpinned, a
   matching x of any key may kill, so its state cannot probe. *)
let negation_pattern rng =
  let open Ses_gen in
  let label name =
    Pattern.Spec.const name "L" Predicate.Eq
      (Value.Str (Prng.pick rng [ "a"; "b"; "c" ]))
  in
  let join u w = Pattern.Spec.fields u "ID" Predicate.Eq w "ID" in
  let a =
    if Prng.bool rng then Variable.group "a" else Variable.singleton "a"
  in
  Pattern.make_full_exn ~schema:Random_workload.schema
    ~sets:[ [ a; Variable.singleton "c" ]; [ Variable.singleton "b" ] ]
    ~negations:[ (0, Variable.singleton "x") ]
    ~where:
      ([ label "a"; label "b"; label "c"; label "x" ]
      @ [ join "a" "b"; join "a" "c" ]
      @ if Prng.bool rng then [ join "x" "a" ] else [])
    ~within:(5 + Prng.int rng 16)

(* Keyed workloads: ID joins of every shape and group variables, over
   four ids so that most states hold several keys; a third of the draws
   carry a negation guard. *)
let with_keyed_workload seed f =
  let open Ses_gen in
  let rng = Prng.create (Int64.of_int seed) in
  let pat =
    if Prng.int rng 3 = 0 then negation_pattern rng
    else
      Random_workload.pattern rng
        {
          Random_workload.default_pattern with
          Random_workload.p_id_join = 1.0;
          join_shapes = Random_workload.[ Complete; Star; Chain ];
        }
  in
  let r =
    Random_workload.relation rng
      {
        Random_workload.default_relation with
        Random_workload.n_events = 60;
        n_ids = 4;
      }
  in
  f pat r
