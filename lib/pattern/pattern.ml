open Ses_event

type t = {
  schema : Schema.t;
  vars : Variable.t array;  (* positive variables, ids 0 .. n-1 *)
  neg_vars : Variable.t array;  (* negated variables, ids n .. n+k-1 *)
  neg_boundaries : int array;  (* boundary set index per negated variable *)
  sets : int list array;
  set_of_var : int array;
  conditions : Condition.t list;
  tau : Time.duration;
}

let max_vars = 62

module Spec = struct
  type operand =
    | Const of Value.t
    | Field of string * string

  type cond = {
    left : string * string;
    op : Predicate.op;
    right : operand;
    span : Span.t option;
  }

  let const v a op c = { left = (v, a); op; right = Const c; span = None }

  let fields v a op v' a' =
    { left = (v, a); op; right = Field (v', a'); span = None }

  let with_span span cond = { cond with span = Some span }
end

let collect_errors checks = List.concat_map (fun c -> c ()) checks

let resolve_cond schema ~var_id (spec : Spec.cond) =
  let located msg =
    match spec.span with
    | None -> msg
    | Some span -> Printf.sprintf "%s: %s" (Span.to_string span) msg
  in
  let resolve_side (vname, aname) =
    match var_id vname with
    | None ->
        Error (located (Printf.sprintf "unknown variable %S in condition" vname))
    | Some v -> (
        match Schema.Field.resolve schema aname with
        | Error e -> Error (located (Printf.sprintf "variable %s: %s" vname e))
        | Ok f -> Ok (v, f))
  in
  match resolve_side spec.left with
  | Error _ as e -> e
  | Ok (v, field) -> (
      match spec.right with
      | Spec.Const c ->
          Ok (Condition.make_const ?span:spec.span ~var:v ~field spec.op c)
      | Spec.Field (v', a') -> (
          match resolve_side (v', a') with
          | Error _ as e -> e
          | Ok (v', field') ->
              Ok
                (Condition.make_var ?span:spec.span ~var:v ~field spec.op
                   ~var':v' ~field')))

let bad_quantifier (v : Variable.t) =
  Variable.min_count v < 1
  ||
  match Variable.max_count v with
  | Some m -> m < Variable.min_count v
  | None -> false

(* Validation accumulates: structural problems, unresolved or ill-typed
   conditions and negation-placement mistakes are all collected in one
   pass, so a query with several defects reports every one of them
   (matching the analyzer's multi-diagnostic style) instead of the first
   hit. *)
let make_full ~schema ~sets ~negations ~where ~within =
  let flat = List.concat sets in
  let neg_flat = List.map snd negations in
  let names =
    List.map (fun (v : Variable.t) -> v.name) (flat @ neg_flat)
  in
  let n_sets = List.length sets in
  let structural =
    collect_errors
      [
        (fun () -> if sets = [] then [ "pattern: no event set patterns" ] else []);
        (fun () ->
          if List.exists (fun s -> s = []) sets then
            [ "pattern: empty event set pattern" ]
          else []);
        (fun () ->
          if List.exists (fun n -> n = "") names then
            [ "pattern: empty variable name" ]
          else []);
        (fun () ->
          let sorted = List.sort_uniq String.compare names in
          if List.length sorted <> List.length names then
            [ "pattern: duplicate variable name (event set patterns must be disjoint)" ]
          else []);
        (fun () ->
          if List.length flat > max_vars then
            [ Printf.sprintf "pattern: more than %d variables" max_vars ]
          else []);
        (fun () -> if within < 0 then [ "pattern: negative duration" ] else []);
        (fun () ->
          List.filter_map
            (fun (v : Variable.t) ->
              if bad_quantifier v then
                Some
                  (Printf.sprintf "pattern: invalid quantifier on variable %S"
                     v.Variable.name)
              else None)
            (flat @ neg_flat));
        (fun () ->
          List.filter_map
            (fun (v : Variable.t) ->
              if Variable.is_group v then
                Some
                  (Printf.sprintf
                     "pattern: negated variable %S must bind exactly one event"
                     v.Variable.name)
              else None)
            neg_flat);
        (fun () ->
          List.filter_map
            (fun (b, (v : Variable.t)) ->
              if b < 0 || b >= n_sets then
                Some
                  (Printf.sprintf
                     "pattern: negation %S at boundary %d (must follow a set)"
                     v.Variable.name b)
              else None)
            negations);
      ]
  in
  begin
    let vars = Array.of_list flat in
    let neg_vars = Array.of_list neg_flat in
    let neg_boundaries = Array.of_list (List.map fst negations) in
    let n_pos = Array.length vars in
    let var_id name =
      let rec find_pos i =
        if i >= n_pos then find_neg 0
        else if vars.(i).Variable.name = name then Some i
        else find_pos (i + 1)
      and find_neg j =
        if j >= Array.length neg_vars then None
        else if neg_vars.(j).Variable.name = name then Some (n_pos + j)
        else find_neg (j + 1)
      in
      find_pos 0
    in
    let sets_arr =
      Array.of_list
        (List.map
           (fun set ->
             List.map
               (fun (v : Variable.t) ->
                 match var_id v.name with
                 | Some i -> i
                 | None -> assert false)
               set)
           sets)
    in
    let set_of_var = Array.make (max 1 n_pos) 0 in
    Array.iteri
      (fun si vs -> List.iter (fun v -> set_of_var.(v) <- si) vs)
      sets_arr;
    let resolved = List.map (resolve_cond schema ~var_id) where in
    let errors =
      List.filter_map (function Error e -> Some e | Ok _ -> None) resolved
    in
    let conditions =
      List.filter_map (function Ok c -> Some c | Error _ -> None) resolved
    in
    let type_errors =
      List.filter_map
        (fun c ->
          match Condition.typecheck schema c with
          | Ok () -> None
          | Error e -> Some e)
        conditions
    in
    (* A negated variable's conditions must be evaluable when the
       forbidden event arrives: the other side must be a constant, the
       variable itself, or a positive variable of a set up to and
       including the guarded boundary. *)
    let is_neg v = v >= n_pos in
    let boundary_of v = neg_boundaries.(v - n_pos) in
    let neg_errors =
      List.filter_map
        (fun (c : Condition.t) ->
          let vs = Condition.vars c in
          match List.filter is_neg vs with
          | [] -> None
          | [ nv ] -> (
              match List.find_opt (fun v -> not (is_neg v)) vs with
              | None -> None
              | Some pos ->
                  if set_of_var.(pos) <= boundary_of nv then None
                  else
                    Some
                      (Printf.sprintf
                         "pattern: negation %S may only reference variables \
                          of sets before its boundary"
                         neg_vars.(nv - n_pos).Variable.name))
          | _ :: _ :: _ ->
              Some "pattern: a condition may not relate two negated variables")
        conditions
    in
    match structural @ errors @ type_errors @ neg_errors with
    | [] ->
        Ok
          {
            schema;
            vars;
            neg_vars;
            neg_boundaries;
            sets = sets_arr;
            set_of_var;
            conditions;
            tau = within;
          }
    | errs -> Error errs
  end

let make ~schema ~sets ~where ~within =
  make_full ~schema ~sets ~negations:[] ~where ~within

let make_exn ~schema ~sets ~where ~within =
  match make ~schema ~sets ~where ~within with
  | Ok p -> p
  | Error errs -> invalid_arg (String.concat "; " errs)

let make_full_exn ~schema ~sets ~negations ~where ~within =
  match make_full ~schema ~sets ~negations ~where ~within with
  | Ok p -> p
  | Error errs -> invalid_arg (String.concat "; " errs)

let schema p = p.schema

let tau p = p.tau

let n_vars p = Array.length p.vars

let is_negated p i = i >= Array.length p.vars

let variable p i =
  if is_negated p i then p.neg_vars.(i - Array.length p.vars) else p.vars.(i)

let var_name p i =
  if is_negated p i then "!" ^ (variable p i).Variable.name
  else Variable.to_string p.vars.(i)

let var_id p name =
  let n_pos = Array.length p.vars in
  let rec find_pos i =
    if i >= n_pos then find_neg 0
    else if p.vars.(i).Variable.name = name then Some i
    else find_pos (i + 1)
  and find_neg j =
    if j >= Array.length p.neg_vars then None
    else if p.neg_vars.(j).Variable.name = name then Some (n_pos + j)
    else find_neg (j + 1)
  in
  find_pos 0

let is_group p i = Variable.is_group (variable p i)

let min_count p i = Variable.min_count (variable p i)

let max_count p i = Variable.max_count (variable p i)

let group_vars p = List.filter (is_group p) (List.init (n_vars p) Fun.id)

let n_sets p = Array.length p.sets

let set_vars p i = p.sets.(i)

let set_of_var p v = p.set_of_var.(v)

let negations p =
  List.sort
    (fun (b, v) (b', v') ->
      let c = Int.compare b b' in
      if c <> 0 then c else Int.compare v v')
    (List.init (Array.length p.neg_vars) (fun j ->
         (p.neg_boundaries.(j), Array.length p.vars + j)))

let negation_boundary p v =
  if is_negated p v then Some p.neg_boundaries.(v - Array.length p.vars)
  else None

let conditions p = p.conditions

let positive_conditions p =
  List.filter
    (fun c -> not (List.exists (is_negated p) (Condition.vars c)))
    p.conditions

let equality_partners p =
  let ty f = Schema.Field.type_of p.schema f in
  let edges =
    List.filter_map
      (fun (c : Condition.t) ->
        match c.op, c.rhs with
        | Predicate.Eq, Condition.Var (v', f')
          when v' <> c.var
               && (not (is_negated p c.var || is_negated p v'))
               && Value.ty_equal (ty c.field) (ty f') ->
            Some ((c.var, c.field), (v', f'))
        | _, (Condition.Var _ | Condition.Const _) -> None)
      p.conditions
  in
  let same (v, f) (v', f') = v = v' && Schema.Field.equal f f' in
  let add x acc =
    if List.exists (fun (k, _) -> same k x) acc then acc
    else
      ( x,
        List.filter_map
          (fun (a, b) ->
            if same a x then Some b else if same b x then Some a else None)
          edges )
      :: acc
  in
  List.fold_left (fun acc (a, b) -> add b (add a acc)) [] edges

let conditions_on p v = List.filter (fun c -> Condition.mentions c v) p.conditions

let constant_conditions_on p v =
  List.filter_map
    (fun (c : Condition.t) ->
      match c.rhs with
      | Condition.Const value when c.var = v -> Some (c.field, c.op, value)
      | Condition.Const _ | Condition.Var _ -> None)
    p.conditions

let singleton_only p = group_vars p = []

let pp ppf p =
  let pp_set ppf vs =
    Format.fprintf ppf "{%s}" (String.concat ", " (List.map (var_name p) vs))
  in
  let pp_chain ppf () =
    Array.iteri
      (fun i vs ->
        if i > 0 then Format.fprintf ppf ", ";
        pp_set ppf vs;
        List.iter
          (fun (b, nv) ->
            if b = i then Format.fprintf ppf ", %s" (var_name p nv))
          (negations p))
      p.sets
  in
  Format.fprintf ppf "(<%a>, {%a}, %d)" pp_chain ()
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (Condition.pp p.schema ~name_of:(var_name p)))
    p.conditions p.tau
