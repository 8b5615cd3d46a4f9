open Ses_event
open Ses_pattern

type mode =
  | No_filter
  | Paper
  | Strong

(* What [keep] tests, as data rather than a closure, so that testing an
   event allocates nothing. *)
type test =
  | Keep_all
  | Any_atom of (Schema.Field.t * Predicate.op * Value.t) list
  | Any_clause of (Schema.Field.t * Predicate.op * Value.t) list list

type t = {
  mode : mode;
  test : test;
}

let satisfies e (field, op, c) = Predicate.eval op (Event.get e field) c

let rec any_atom e = function
  | [] -> false
  | a :: rest -> satisfies e a || any_atom e rest

let rec all_atoms e = function
  | [] -> true
  | a :: rest -> satisfies e a && all_atoms e rest

let rec any_clause e = function
  | [] -> false
  | c :: rest -> all_atoms e c || any_clause e rest

let satisfies_atom = satisfies

(* Negated variables are included: an event that can only trigger a
   negation guard still affects execution (it kills instances), so
   filtering it out would change results. *)
let per_var_constants ?(extra = []) p =
  let all_vars =
    List.init (Pattern.n_vars p) Fun.id
    @ List.map snd (Pattern.negations p)
  in
  List.map
    (fun v ->
      let inferred =
        List.concat_map (fun (v', atoms) -> if v' = v then atoms else []) extra
      in
      Pattern.constant_conditions_on p v @ inferred)
    all_vars

let strong_clauses ?extra p =
  let per_var = per_var_constants ?extra p in
  if List.for_all (fun cs -> cs <> []) per_var then Some per_var else None

let make ?extra p mode =
  let per_var = per_var_constants ?extra p in
  let all_constrained = List.for_all (fun cs -> cs <> []) per_var in
  let test =
    match mode with
    | No_filter -> Keep_all
    | Paper ->
        if not all_constrained then Keep_all
        else Any_atom (List.concat per_var)
    | Strong -> if not all_constrained then Keep_all else Any_clause per_var
  in
  { mode; test }

let mode t = t.mode

let effective t =
  match t.test with Keep_all -> false | Any_atom _ | Any_clause _ -> true

let keep t e =
  match t.test with
  | Keep_all -> true
  | Any_atom atoms -> any_atom e atoms
  | Any_clause clauses -> any_clause e clauses

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | No_filter -> "no filter"
    | Paper -> "paper filter"
    | Strong -> "strong filter")
