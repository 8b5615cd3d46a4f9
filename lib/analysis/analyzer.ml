open Ses_event
open Ses_pattern
open Ses_core
module D = Predicate.Domain

type result = {
  pattern : Pattern.t;
  diagnostics : Diagnostic.t list;
  dead : Automaton.transition list;
  original : Automaton.t;
  automaton : Automaton.t;
  filter_extras :
    (int * (Schema.Field.t * Predicate.op * Value.t) list) list;
  domains : (int * (Schema.Field.t * Predicate.Domain.t) list) list;
  pruned_transitions : int;
  pruned_states : int;
  never_matches : bool;
}

(* Domains are tabulated per (variable id, field). *)
module Key = struct
  type t = int * Schema.Field.t

  let compare (v, f) (v', f') =
    let c = Int.compare v v' in
    if c <> 0 then c else Schema.Field.compare f f'
end

module KMap = Map.Make (Key)

let render_cond p c =
  Format.asprintf "%a"
    (Condition.pp (Pattern.schema p) ~name_of:(Pattern.var_name p))
    c

let render_state p q =
  Format.asprintf "%a" (Varset.pp ~name_of:(Pattern.var_name p)) q

let conds_span conds =
  List.fold_left
    (fun acc c ->
      match (acc, Condition.span c) with
      | None, s -> s
      | s, None -> s
      | Some a, Some b -> Some (Span.union a b))
    None conds

let all_var_ids p =
  List.init (Pattern.n_vars p) Fun.id @ List.map snd (Pattern.negations p)

let field_ty p f = Schema.Field.type_of (Pattern.schema p) f

(* The [v.A φ C] conditions on a variable, grouped by field, keeping the
   condition records for spans and rendering. *)
let constant_conds_by_field p v =
  let consts =
    List.filter
      (fun (c : Condition.t) -> Condition.is_constant c)
      (Pattern.conditions_on p v)
  in
  List.fold_left
    (fun acc (c : Condition.t) ->
      let rec add = function
        | [] -> [ (c.Condition.field, [ c ]) ]
        | (f, cs) :: rest when Schema.Field.equal f c.Condition.field ->
            (f, cs @ [ c ]) :: rest
        | entry :: rest -> entry :: add rest
      in
      add acc)
    [] consts

let const_atom (c : Condition.t) =
  match c.rhs with
  | Condition.Const value -> (c.op, value)
  | Condition.Var _ -> invalid_arg "const_atom: not a constant condition"

(* θ as a directed edge: [orient c v f] is [Some (φ, u, g)] when [c] is
   (a flip of) [v.f φ u.g] with u ≠ v. *)
let orient (c : Condition.t) v f =
  match c.rhs with
  | Condition.Const _ -> None
  | Condition.Var (u, g) ->
      if c.var = v && Schema.Field.equal c.field f && u <> v then
        Some (c.op, u, g)
      else if u = v && Schema.Field.equal g f && c.var <> v then
        Some (Predicate.flip c.op, c.var, c.field)
      else None

(* All (v, f) pairs a set of conditions mentions. *)
let keys_of_conds conds =
  List.fold_left
    (fun acc (c : Condition.t) ->
      let add k acc = if List.exists (fun k' -> Key.compare k k' = 0) acc then acc else k :: acc in
      let acc = add (c.var, c.field) acc in
      match c.rhs with
      | Condition.Const _ -> acc
      | Condition.Var (u, g) -> add (u, g) acc)
    [] conds

(* ------------------------------------------------------------------ *)
(* Analysis state: three layers of per-(var, field) domains.           *)
(* ------------------------------------------------------------------ *)

type tables = {
  p : Pattern.t;
  alone : D.t KMap.t;
      (* narrowing of the variable's own constant conditions *)
  bind : D.t KMap.t;
      (* values any binding of the variable is guaranteed to satisfy at
         the moment it binds: constants plus conditions against strictly
         earlier sets (always attached to the binding transition) *)
  matched : D.t KMap.t;
      (* values consistent with appearing in a complete match:
         arc-consistency over all positive conditions *)
}

let dom table p (v, f) =
  match KMap.find_opt (v, f) table with
  | Some d -> d
  | None -> D.top (field_ty p f)

let build_alone p =
  List.fold_left
    (fun acc v ->
      List.fold_left
        (fun acc (f, cs) ->
          let d = D.of_atoms (field_ty p f) (List.map const_atom cs) in
          KMap.add (v, f) d acc)
        acc
        (constant_conds_by_field p v))
    KMap.empty (all_var_ids p)

(* Enforced-at-bind domains. Conditions against variables of strictly
   earlier sets appear in Θδ of every transition binding the variable
   (the prefix is always in scope), so they hold for every binding the
   engine ever makes — the recursion is well-founded because the
   partner's set index strictly decreases. *)
let build_bind p alone =
  let table = ref KMap.empty in
  let positive = Pattern.positive_conditions p in
  let rec bind_dom v f =
    match KMap.find_opt (v, f) !table with
    | Some d -> d
    | None ->
        let ty = field_ty p f in
        let d0 = dom alone p (v, f) in
        let d =
          List.fold_left
            (fun acc c ->
              match orient c v f with
              | Some (op, u, g)
                when (not (Pattern.is_negated p u))
                     && Pattern.set_of_var p u < Pattern.set_of_var p v ->
                  D.inter acc (D.propagate ty op (bind_dom u g))
              | Some _ | None -> acc)
            d0 positive
        in
        table := KMap.add (v, f) d !table;
        d
  in
  List.iter
    (fun v ->
      List.iter
        (fun (f, _) -> ignore (bind_dom v f))
        (constant_conds_by_field p v))
    (List.init (Pattern.n_vars p) Fun.id);
  (* also tabulate every field mentioned by some condition *)
  List.iter
    (fun (v, f) -> if not (Pattern.is_negated p v) then ignore (bind_dom v f))
    (keys_of_conds positive);
  !table

(* Arc-consistency over every positive condition, in both directions,
   for a bounded number of rounds (the domains only shrink, and cyclic
   strict inequalities would otherwise descend forever). An empty domain
   proves no complete match can bind the variable — used for diagnosis
   only, never for pruning. *)
let max_rounds = 16

let build_match p alone =
  let positive = Pattern.positive_conditions p in
  let keys =
    List.filter (fun (v, _) -> not (Pattern.is_negated p v)) (keys_of_conds positive)
  in
  let table =
    ref
      (List.fold_left
         (fun acc (v, f) -> KMap.add (v, f) (dom alone p (v, f)) acc)
         KMap.empty keys)
  in
  let get (v, f) = dom !table p (v, f) in
  let propagate_edge (c : Condition.t) =
    match c.rhs with
    | Condition.Const _ -> ()
    | Condition.Var (u, g) when u <> c.var ->
        let v = c.var and f = c.field in
        let dl = get (v, f) and dr = get (u, g) in
        table :=
          KMap.add (v, f)
            (D.inter dl (D.propagate (field_ty p f) c.op dr))
            !table;
        table :=
          KMap.add (u, g)
            (D.inter dr (D.propagate (field_ty p g) (Predicate.flip c.op) dl))
            !table
    | Condition.Var _ -> ()
  in
  for _ = 1 to max_rounds do
    List.iter propagate_edge positive
  done;
  !table

let build_tables p =
  let alone = build_alone p in
  {
    p;
    alone;
    bind = build_bind p alone;
    matched = build_match p alone;
  }

(* The per-variable field narrowings exported to the planner's access
   paths. A positive variable's candidates may be pruned by anything
   guaranteed at bind time ([bind]); a negated variable never binds, so
   only its own constant conditions ([alone]) constrain the events that
   can trigger it. Top entries carry no information and are skipped. *)
let domains_of t =
  let p = t.p in
  List.filter_map
    (fun v ->
      let table = if Pattern.is_negated p v then t.alone else t.bind in
      let fields =
        KMap.fold
          (fun (u, f) d acc ->
            if u = v && not (D.is_top d) then (f, d) :: acc else acc)
          table []
      in
      if fields = [] then None else Some (v, List.rev fields))
    (all_var_ids p)

(* ------------------------------------------------------------------ *)
(* Per-variable satisfiability and lints                               *)
(* ------------------------------------------------------------------ *)

let variable_diagnostics t =
  let p = t.p in
  List.concat_map
    (fun v ->
      let negated = Pattern.is_negated p v in
      List.filter_map
        (fun (f, cs) ->
          if D.is_empty (dom t.alone p (v, f)) then
            let rendered =
              String.concat ", " (List.map (render_cond p) cs)
            in
            let field = Schema.Field.name (Pattern.schema p) f in
            let span = conds_span cs in
            if negated then
              Some
                (Diagnostic.warning ?span "vacuous-negation"
                   (Printf.sprintf
                      "negation %s can never trigger: its conditions on %s \
                       are contradictory (%s)"
                      (Pattern.var_name p v) field rendered))
            else
              Some
                (Diagnostic.error ?span "unsatisfiable-variable"
                   (Printf.sprintf
                      "variable %s can never bind an event: its conditions \
                       on %s are contradictory (%s)"
                      (Pattern.var_name p v) field rendered))
          else None)
        (constant_conds_by_field p v))
    (all_var_ids p)

let contradiction_diagnostics t =
  let p = t.p in
  KMap.fold
    (fun (v, f) d acc ->
      if D.is_empty d && not (D.is_empty (dom t.alone p (v, f))) then begin
        let conds =
          List.filter
            (fun (c : Condition.t) ->
              (c.var = v && Schema.Field.equal c.field f)
              ||
              match c.rhs with
              | Condition.Var (u, g) -> u = v && Schema.Field.equal g f
              | Condition.Const _ -> false)
            (Pattern.positive_conditions p)
        in
        Diagnostic.error ?span:(conds_span conds) "contradictory-conditions"
          (Printf.sprintf
             "no value of %s.%s is consistent with all conditions relating \
              it to other variables"
             (Pattern.var_name p v)
             (Schema.Field.name (Pattern.schema p) f))
        :: acc
      end
      else acc)
    t.matched []

let lint_diagnostics p =
  let unconstrained =
    List.filter_map
      (fun v ->
        if Pattern.conditions_on p v <> [] then None
        else if Pattern.is_negated p v then
          Some
            (Diagnostic.warning "unconstrained-negation"
               (Printf.sprintf
                  "negation %s has no conditions: any event between its \
                   boundary sets kills the partial match"
                  (Pattern.var_name p v)))
        else if Pattern.is_group p v then
          Some
            (Diagnostic.warning "unconstrained-variable"
               (Printf.sprintf
                  "group variable %s has no conditions and binds every \
                   event in the window"
                  (Pattern.var_name p v)))
        else
          Some
            (Diagnostic.warning "unconstrained-variable"
               (Printf.sprintf
                  "variable %s has no conditions and matches every event"
                  (Pattern.var_name p v))))
      (all_var_ids p)
  in
  let subsumed =
    List.concat_map
      (fun v ->
        List.concat_map
          (fun (f, cs) ->
            match cs with
            | [] | [ _ ] -> []
            | cs ->
                let ty = field_ty p f in
                List.filter_map
                  (fun (c : Condition.t) ->
                    let others = List.filter (fun c' -> not (c' == c)) cs in
                    let d = D.of_atoms ty (List.map const_atom others) in
                    if (not (D.is_empty d)) && D.implies d (const_atom c)
                    then
                      Some
                        (Diagnostic.info ?span:(Condition.span c)
                           "subsumed-condition"
                           (Printf.sprintf
                              "condition %s is implied by the other \
                               conditions on %s.%s"
                              (render_cond p c)
                              (Pattern.var_name p v)
                              (Schema.Field.name (Pattern.schema p) f)))
                    else None)
                  cs)
          (constant_conds_by_field p v))
      (all_var_ids p)
  in
  (* A group variable nobody compares against: each extra event it
     absorbs is constrained only by its own constant conditions, which
     is usually an under-constrained join. *)
  let unreferenced_groups =
    List.filter_map
      (fun v ->
        if
          (not (Pattern.is_group p v))
          || Pattern.conditions_on p v = []
             (* already reported as unconstrained *)
          || List.exists
               (fun c ->
                 (not (Condition.is_constant c)) && Condition.mentions c v)
               (Pattern.conditions p)
        then None
        else
          Some
            (Diagnostic.warning "unreferenced-group"
               (Printf.sprintf
                  "group variable %s is not compared with any other \
                   variable: its repeated bindings are only constrained \
                   by constant conditions"
                  (Pattern.var_name p v))))
      (all_var_ids p)
  in
  unconstrained @ unreferenced_groups @ subsumed

(* ------------------------------------------------------------------ *)
(* Temporal satisfiability: difference constraints over timestamps     *)
(* ------------------------------------------------------------------ *)

(* Constraints are (a, b, w) meaning T_a − T_b ≤ w over nodes 0..n−1
   (the positive variables) plus a zero node n anchoring constants.
   Sources: explicit conditions on T (φ over two timestamps, or against
   an integer constant), the strict inter-set order the automaton
   enforces, and the window (any two match events lie within τ). A
   negative cycle (Bellman–Ford) proves the timing can never be met. *)
let temporal_diagnostics p =
  let n = Pattern.n_vars p in
  if n = 0 then []
  else begin
    let z = n in
    let edges = ref [] in
    let add a b w = edges := (a, b, w) :: !edges in
    let t_conds =
      List.filter
        (fun (c : Condition.t) ->
          Schema.Field.equal c.field Schema.Field.Timestamp
          &&
          match c.rhs with
          | Condition.Var (_, g) -> Schema.Field.equal g Schema.Field.Timestamp
          | Condition.Const (Value.Int _) -> true
          | Condition.Const _ -> false)
        (Pattern.positive_conditions p)
    in
    List.iter
      (fun (c : Condition.t) ->
        let v = c.var in
        match c.rhs with
        | Condition.Var (u, _) when u <> v -> (
            match c.op with
            | Predicate.Lt -> add v u (-1)
            | Predicate.Le -> add v u 0
            | Predicate.Gt -> add u v (-1)
            | Predicate.Ge -> add u v 0
            | Predicate.Eq ->
                add v u 0;
                add u v 0
            | Predicate.Neq -> ())
        | Condition.Var _ -> ()
        | Condition.Const (Value.Int c0) -> (
            match c.op with
            | Predicate.Lt -> add v z (c0 - 1)
            | Predicate.Le -> add v z c0
            | Predicate.Gt -> add z v (-(c0 + 1))
            | Predicate.Ge -> add z v (-c0)
            | Predicate.Eq ->
                add v z c0;
                add z v (-c0)
            | Predicate.Neq -> ())
        | Condition.Const _ -> ())
      t_conds;
    for i = 0 to Pattern.n_sets p - 2 do
      List.iter
        (fun u ->
          List.iter (fun w -> add u w (-1)) (Pattern.set_vars p (i + 1)))
        (Pattern.set_vars p i)
    done;
    let tau = Pattern.tau p in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b then add a b tau
      done
    done;
    let dist = Array.make (n + 1) 0 in
    let relax () =
      List.fold_left
        (fun changed (a, b, w) ->
          if dist.(b) + w < dist.(a) then begin
            dist.(a) <- dist.(b) + w;
            true
          end
          else changed)
        false !edges
    in
    for _ = 0 to n do
      ignore (relax ())
    done;
    if relax () then
      [
        Diagnostic.error
          ?span:(conds_span t_conds)
          "temporal-contradiction"
          (Printf.sprintf
             "the timing conditions and the window (WITHIN %d) admit no \
              assignment of timestamps"
             tau);
      ]
    else []
  end

(* ------------------------------------------------------------------ *)
(* Implied constants (equality chains) for the event filter            *)
(* ------------------------------------------------------------------ *)

(* forced(v, f) = c: every event the engine can ever bind to v satisfies
   f = c, enforced by conditions evaluated when v binds (or, for a
   negated variable, when its guard is checked). Base case: the
   variable's own constant conditions collapse the field to a point.
   Step: an equality v.f = u.g whose partner u is fully bound by the
   time v binds (strictly earlier set — such conditions sit on every
   transition binding v) transfers u's forced constant to v. Same-set
   equalities must NOT transfer: depending on the binding order inside
   the set, the condition may not be attached to the transition that
   binds v, so an event violating the constant can still fire it. *)
let forced_constants p alone =
  let forced = ref KMap.empty in
  List.iter
    (fun v ->
      List.iter
        (fun (f, _) ->
          match D.constant (dom alone p (v, f)) with
          | Some c -> forced := KMap.add (v, f) c !forced
          | None -> ())
        (constant_conds_by_field p v))
    (all_var_ids p);
  let eligible ~src ~dst =
    if Pattern.is_negated p dst then not (Pattern.is_negated p src)
      (* guard conditions are validated to reference only sets up to the
         boundary, so they are evaluable — and checked — at kill time *)
    else
      (not (Pattern.is_negated p src))
      && Pattern.set_of_var p src < Pattern.set_of_var p dst
  in
  let transfer (src, sf) (dst, df) changed =
    if eligible ~src ~dst then
      match (KMap.find_opt (src, sf) !forced, KMap.find_opt (dst, df) !forced) with
      | Some c, None ->
          forced := KMap.add (dst, df) c !forced;
          true
      | _ -> changed
    else changed
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (c : Condition.t) ->
        match (c.op, c.rhs) with
        | Predicate.Eq, Condition.Var (u, g) when u <> c.var ->
            changed := transfer (c.var, c.field) (u, g) !changed;
            changed := transfer (u, g) (c.var, c.field) !changed
        | _ -> ())
      (Pattern.conditions p)
  done;
  !forced

let filter_extras_of p alone forced =
  List.filter_map
    (fun v ->
      let atoms =
        KMap.fold
          (fun (v', f) c acc ->
            if v' = v && not (D.implies (dom alone p (v, f)) (Predicate.Eq, c))
            then (f, Predicate.Eq, c) :: acc
            else acc)
          forced []
      in
      if atoms = [] then None else Some (v, atoms))
    (all_var_ids p)

let implied_diagnostics p extras =
  List.concat_map
    (fun (v, atoms) ->
      List.map
        (fun (f, _, c) ->
          Diagnostic.info "implied-constant"
            (Printf.sprintf
               "inferred %s.%s = %s from equality chains; the event filter \
                uses it"
               (Pattern.var_name p v)
               (Schema.Field.name (Pattern.schema p) f)
               (Value.to_string c)))
        atoms)
    extras

(* ------------------------------------------------------------------ *)
(* Transition deadness                                                 *)
(* ------------------------------------------------------------------ *)

(* Sign sets: which of {<, =, >} an operator admits. Two conditions on
   the same left field against the same partner field admit a common
   outcome only if their sign sets intersect. *)
let signs = function
  | Predicate.Eq -> (false, true, false)
  | Predicate.Neq -> (true, false, true)
  | Predicate.Lt -> (true, false, false)
  | Predicate.Le -> (true, true, false)
  | Predicate.Gt -> (false, false, true)
  | Predicate.Ge -> (false, true, true)

(* Whether a transition can ever fire, using only facts that hold on
   every execution: the new event must satisfy the transition's constant
   atoms; its comparisons against bound partners must be compatible with
   the partners' enforced-at-bind domains; a pair of comparisons against
   the same partner field must admit a common sign; a reflexive strict
   comparison of a field with itself never holds; and a strictly-earlier
   timestamp than an already-bound event contradicts arrival order.
   Anything weaker would not be result-preserving: firing a transition
   consumes the instance, so removing one that can fire changes which
   instances survive. *)
type dead_verdict = {
  reason : string;
  const_only : bool;
      (* deadness already explained by the variable's own constant
         conditions being unsatisfiable (reported separately) *)
}

let transition_dead t (tr : Automaton.transition) =
  let p = t.p in
  let v = tr.var in
  let normalized =
    List.map
      (fun (c : Condition.t) ->
        match c.rhs with
        | Condition.Const value -> `Const (c, c.field, c.op, value)
        | Condition.Var (u, g) ->
            if c.var = v && u = v then `Refl (c, c.field, c.op, g)
            else if c.var = v then `Edge (c, c.field, c.op, u, g)
            else `Edge (c, g, Predicate.flip c.op, c.var, c.field))
      tr.conds
  in
  let fields =
    List.fold_left
      (fun acc item ->
        let f =
          match item with
          | `Const (_, f, _, _) -> f
          | `Refl (_, f, _, _) -> f
          | `Edge (_, f, _, _, _) -> f
        in
        if List.exists (Schema.Field.equal f) acc then acc else f :: acc)
      [] normalized
  in
  let dead_domain =
    List.find_map
      (fun f ->
        let ty = field_ty p f in
        let atoms =
          List.filter_map
            (function
              | `Const (_, f', op, value) when Schema.Field.equal f f' ->
                  Some (op, value)
              | _ -> None)
            normalized
        in
        let d0 = D.of_atoms ty atoms in
        if D.is_empty d0 then
          Some
            {
              reason =
                Printf.sprintf
                  "its constant conditions on %s.%s are unsatisfiable"
                  (Pattern.var_name p v)
                  (Schema.Field.name (Pattern.schema p) f);
              const_only = true;
            }
        else
          let d =
            List.fold_left
              (fun acc item ->
                match item with
                | `Edge (_, f', op, u, g)
                  when Schema.Field.equal f f' && Varset.mem u tr.src ->
                    D.inter acc (D.propagate ty op (dom t.bind p (u, g)))
                | _ -> acc)
              d0 normalized
          in
          if D.is_empty d then
            Some
              {
                reason =
                  Printf.sprintf
                    "no event can satisfy its conditions on %s.%s against \
                     the bound variables"
                    (Pattern.var_name p v)
                    (Schema.Field.name (Pattern.schema p) f);
                const_only = false;
              }
          else None)
      fields
  in
  let dead_signs () =
    let edges =
      List.filter_map
        (function `Edge (_, f, op, u, g) -> Some (f, op, u, g) | _ -> None)
        normalized
    in
    List.find_map
      (fun (f, _, u, g) ->
        let lt, eq, gt =
          List.fold_left
            (fun (lt, eq, gt) (f', op, u', g') ->
              if Schema.Field.equal f f' && u = u' && Schema.Field.equal g g'
              then
                let lt', eq', gt' = signs op in
                (lt && lt', eq && eq', gt && gt')
              else (lt, eq, gt))
            (true, true, true) edges
        in
        if (not lt) && (not eq) && not gt then
          Some
            {
              reason =
                Printf.sprintf
                  "its comparisons of %s.%s against %s.%s contradict each \
                   other"
                  (Pattern.var_name p v)
                  (Schema.Field.name (Pattern.schema p) f)
                  (Pattern.var_name p u)
                  (Schema.Field.name (Pattern.schema p) g);
              const_only = false;
            }
        else None)
      edges
  in
  let dead_time () =
    List.find_map
      (function
        | `Edge (c, f, Predicate.Lt, u, g)
          when Schema.Field.equal f Schema.Field.Timestamp
               && Schema.Field.equal g Schema.Field.Timestamp
               && Varset.mem u tr.src ->
            Some
              {
                reason =
                  Printf.sprintf
                    "%s requires an event older than already-bound %s, but \
                     events arrive in order"
                    (render_cond p c) (Pattern.var_name p u);
                const_only = false;
              }
        | _ -> None)
      normalized
  in
  let dead_refl () =
    List.find_map
      (function
        | `Refl (c, f, (Predicate.Lt | Predicate.Gt | Predicate.Neq), g)
          when Schema.Field.equal f g ->
            Some
              {
                reason =
                  Printf.sprintf
                    "%s compares an event's %s with itself and never holds"
                    (render_cond p c)
                    (Schema.Field.name (Pattern.schema p) f);
                const_only = false;
              }
        | _ -> None)
      normalized
  in
  match dead_domain with
  | Some v -> Some v
  | None -> (
      match dead_time () with
      | Some v -> Some v
      | None -> (
          match dead_refl () with
          | Some v -> Some v
          | None -> dead_signs ()))

(* ------------------------------------------------------------------ *)
(* Reachability on the pruned automaton                                *)
(* ------------------------------------------------------------------ *)

let coreachable automaton =
  let accept = Automaton.accept automaton in
  let transitions = Automaton.transitions automaton in
  let reached = Hashtbl.create 32 in
  Hashtbl.replace reached accept ();
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (tr : Automaton.transition) ->
        if Hashtbl.mem reached tr.tgt && not (Hashtbl.mem reached tr.src)
        then begin
          Hashtbl.replace reached tr.src ();
          changed := true
        end)
      transitions
  done;
  fun q -> Hashtbl.mem reached q

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let analyze automaton =
  let p = Automaton.pattern automaton in
  let t = build_tables p in
  let var_diags = variable_diagnostics t in
  let contra_diags = contradiction_diagnostics t in
  let temporal_diags = temporal_diagnostics p in
  let verdicts =
    List.filter_map
      (fun tr -> Option.map (fun d -> (tr, d)) (transition_dead t tr))
      (Automaton.transitions automaton)
  in
  let dead = List.map fst verdicts in
  let pruned = Automaton.prune automaton ~dead:(fun tr -> List.memq tr dead) in
  let dead_diags =
    List.filter_map
      (fun ((tr : Automaton.transition), verdict) ->
        if verdict.const_only then None
          (* already reported as unsatisfiable-variable *)
        else
          Some
            (Diagnostic.warning
               ?span:(conds_span tr.conds)
               "dead-transition"
               (Printf.sprintf
                  "transition binding %s in state %s can never fire: %s"
                  (Pattern.var_name p tr.var)
                  (render_state p tr.src)
                  verdict.reason)))
      verdicts
  in
  let start_reaches_accept =
    let reach = Hashtbl.create 32 in
    let rec visit q =
      if not (Hashtbl.mem reach q) then begin
        Hashtbl.replace reach q ();
        List.iter
          (fun (tr : Automaton.transition) -> visit tr.tgt)
          (Automaton.outgoing pruned q)
      end
    in
    visit (Automaton.start pruned);
    Hashtbl.mem reach (Automaton.accept pruned)
  in
  let unmatchable =
    if start_reaches_accept then []
    else if dead = [] then []
      (* with no dead transitions the automaton is intact: the start
         always reaches accept by construction *)
    else
      [
        Diagnostic.error "unmatchable-pattern"
          "no path from the start state to the accepting state survives \
           analysis: the pattern can never match";
      ]
  in
  let forced = forced_constants p t.alone in
  let filter_extras = filter_extras_of p t.alone forced in
  let implied_diags = implied_diagnostics p filter_extras in
  let lints = lint_diagnostics p in
  let never_matches =
    Diagnostic.has_errors (var_diags @ contra_diags @ temporal_diags @ unmatchable)
  in
  let deadend_diags =
    if never_matches then []
    else
      let co = coreachable pruned in
      List.filter_map
        (fun q ->
          if co q then None
          else
            Some
              (Diagnostic.warning "dead-end-state"
                 (Printf.sprintf
                    "state %s cannot reach the accepting state: instances \
                     entering it only consume events"
                    (render_state p q))))
        (Automaton.states pruned)
  in
  let diagnostics =
    Diagnostic.sort
      (var_diags @ contra_diags @ temporal_diags @ unmatchable @ dead_diags
     @ deadend_diags @ lints @ implied_diags)
  in
  {
    pattern = p;
    diagnostics;
    dead;
    original = automaton;
    automaton = pruned;
    filter_extras;
    domains = domains_of t;
    pruned_transitions =
      Automaton.n_transitions automaton - Automaton.n_transitions pruned;
    pruned_states = Automaton.n_states automaton - Automaton.n_states pruned;
    never_matches;
  }

let analyze_pattern p = analyze (Automaton.of_pattern p)

let analyze_query schema src =
  match Ses_lang.Parser.parse src with
  | Error e ->
      Error
        [
          Diagnostic.error
            ~span:(Span.point ~line:e.Ses_lang.Parser.line ~col:e.Ses_lang.Parser.col)
            "parse-error" e.Ses_lang.Parser.message;
        ]
  | Ok ast -> (
      match Ses_lang.Lang.compile schema ast with
      | Error msgs ->
          Error (List.map (Diagnostic.error "invalid-pattern") msgs)
      | Ok p -> Ok (analyze_pattern p))

let to_planner (r : result) =
  {
    Planner.automaton = r.automaton;
    filter_extras = r.filter_extras;
    domains = r.domains;
    pruned_transitions = r.pruned_transitions;
    pruned_states = r.pruned_states;
    never_matches = r.never_matches;
  }

let register () = Planner.set_analyzer (fun a -> to_planner (analyze a))
