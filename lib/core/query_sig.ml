open Ses_event
open Ses_pattern

(* A canonical, collision-free serialization of an automaton's
   structure with every constant widened to a typed slot marker.
   Everything semantically relevant is written: τ, the per-set variables
   with their quantifier bounds, the negations with their conditions,
   and every state with its outgoing transitions and condition sets.
   Spans and variable names are omitted (they do not affect execution),
   and [Varset.t] states print as their bitmask. Recording the widened
   constants turns "identical up to constants" into plain string
   equality. *)

let add_int b i = Buffer.add_string b (string_of_int i)

let add_field b = function
  | Schema.Field.Attr i ->
      Buffer.add_char b 'a';
      add_int b i
  | Schema.Field.Timestamp -> Buffer.add_char b 'T'

let add_const acc b v =
  acc := v :: !acc;
  Buffer.add_char b '?';
  Buffer.add_string b
    (match Value.type_of v with
    | Value.Tint -> "i"
    | Value.Tfloat -> "f"
    | Value.Tstr -> "s")

(* [pv] renders a variable id: the identity for pattern variables, and a
   masking of the negated variable to a fixed marker inside negation
   conditions — skeletons must not depend on the id a negated variable
   happens to get. *)
let add_cond acc ~pv b (c : Condition.t) =
  Buffer.add_char b '[';
  pv b c.Condition.var;
  Buffer.add_char b '.';
  add_field b c.Condition.field;
  Buffer.add_string b (Predicate.to_string c.Condition.op);
  (match c.Condition.rhs with
  | Condition.Const v -> add_const acc b v
  | Condition.Var (v, f) ->
      Buffer.add_char b 'V';
      pv b v;
      Buffer.add_char b '.';
      add_field b f);
  Buffer.add_char b ']'

let ident_pv b v = add_int b v

let mask_pv nv b v = if v = nv then Buffer.add_char b 'N' else add_int b v

let add_sets b p =
  for s = 0 to Pattern.n_sets p - 1 do
    Buffer.add_char b '{';
    List.iter
      (fun v ->
        add_int b v;
        Buffer.add_char b ':';
        add_int b (Pattern.min_count p v);
        (match Pattern.max_count p v with
        | None -> Buffer.add_char b '*'
        | Some m -> add_int b m);
        Buffer.add_char b ';')
      (Pattern.set_vars p s);
    Buffer.add_char b '}'
  done

let add_negations acc b p =
  List.iter
    (fun (boundary, nv) ->
      Buffer.add_char b '!';
      add_int b boundary;
      Buffer.add_char b ':';
      List.iter (add_cond acc ~pv:(mask_pv nv) b) (Pattern.conditions_on p nv);
      Buffer.add_char b ';')
    (Pattern.negations p)

let add_transitions acc b a =
  List.iter
    (fun q ->
      Buffer.add_char b 'S';
      add_int b (q : Varset.t :> int);
      List.iter
        (fun (tr : Automaton.transition) ->
          Buffer.add_char b 't';
          add_int b tr.Automaton.var;
          Buffer.add_char b '>';
          add_int b (tr.Automaton.tgt : Varset.t :> int);
          List.iter (add_cond acc ~pv:ident_pv b) tr.Automaton.conds)
        (Automaton.outgoing a q))
    (Automaton.states a)

let skeleton a =
  let p = Automaton.pattern a in
  let acc = ref [] in
  let b = Buffer.create 256 in
  Buffer.add_char b 'w';
  add_int b (Automaton.tau a);
  add_sets b p;
  add_negations acc b p;
  add_transitions acc b a;
  (Buffer.contents b, List.rev !acc)
