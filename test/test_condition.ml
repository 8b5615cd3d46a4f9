open Ses_event
open Ses_pattern

let schema = Helpers.schema

let attr name =
  match Schema.Field.resolve schema name with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let ev seq id l v ts =
  Event.make ~seq ~ts [| Value.Int id; Value.Str l; Value.Int v |]

let test_structure () =
  let c0 = Condition.make_const ~var:0 ~field:(attr "L") Predicate.Eq (Value.Str "C") in
  let c1 = Condition.make_var ~var:0 ~field:(attr "ID") Predicate.Eq ~var':1 ~field':(attr "ID") in
  let refl = Condition.make_var ~var:2 ~field:(attr "ID") Predicate.Le ~var':2 ~field':(attr "V") in
  Alcotest.(check bool) "const" true (Condition.is_constant c0);
  Alcotest.(check bool) "not const" false (Condition.is_constant c1);
  Alcotest.(check (list int)) "vars const" [ 0 ] (Condition.vars c0);
  Alcotest.(check (list int)) "vars pair" [ 0; 1 ] (Condition.vars c1);
  Alcotest.(check (list int)) "vars reflexive" [ 2 ] (Condition.vars refl);
  Alcotest.(check bool) "mentions" true (Condition.mentions c1 1);
  Alcotest.(check bool) "not mentions" false (Condition.mentions c1 2);
  Alcotest.(check (option int)) "other_var lhs" (Some 1) (Condition.other_var c1 0);
  Alcotest.(check (option int)) "other_var rhs" (Some 0) (Condition.other_var c1 1);
  Alcotest.(check (option int)) "other_var const" None (Condition.other_var c0 0);
  Alcotest.(check (option int)) "other_var reflexive" None (Condition.other_var refl 2)

let test_typecheck () =
  let good = Condition.make_const ~var:0 ~field:(attr "ID") Predicate.Eq (Value.Int 1) in
  let coerce = Condition.make_const ~var:0 ~field:(attr "ID") Predicate.Lt (Value.Float 2.5) in
  let bad = Condition.make_const ~var:0 ~field:(attr "L") Predicate.Eq (Value.Int 1) in
  let bad_fields =
    Condition.make_var ~var:0 ~field:(attr "L") Predicate.Eq ~var':1 ~field':(attr "V")
  in
  let ts_ok =
    Condition.make_var ~var:0 ~field:Schema.Field.Timestamp Predicate.Lt ~var':1
      ~field':Schema.Field.Timestamp
  in
  Alcotest.(check bool) "good" true (Result.is_ok (Condition.typecheck schema good));
  Alcotest.(check bool) "numeric coercion ok" true
    (Result.is_ok (Condition.typecheck schema coerce));
  Alcotest.(check bool) "bad const" true (Result.is_error (Condition.typecheck schema bad));
  Alcotest.(check bool) "bad fields" true
    (Result.is_error (Condition.typecheck schema bad_fields));
  Alcotest.(check bool) "timestamps" true (Result.is_ok (Condition.typecheck schema ts_ok))

let bindings_of alist var = Option.value ~default:[] (List.assoc_opt var alist)

let test_holds_const () =
  let c = Condition.make_const ~var:0 ~field:(attr "L") Predicate.Eq (Value.Str "C") in
  let e_c = ev 0 1 "C" 0 0 and e_d = ev 1 1 "D" 0 1 in
  Alcotest.(check bool) "sat" true (Condition.holds c (bindings_of [ (0, [ e_c ]) ]));
  Alcotest.(check bool) "unsat" false (Condition.holds c (bindings_of [ (0, [ e_d ]) ]));
  (* Group decomposition: all bindings must satisfy the condition. *)
  Alcotest.(check bool) "group all sat" true
    (Condition.holds c (bindings_of [ (0, [ e_c; ev 2 1 "C" 0 2 ]) ]));
  Alcotest.(check bool) "group one violates" false
    (Condition.holds c (bindings_of [ (0, [ e_c; e_d ]) ]));
  Alcotest.(check bool) "vacuous without bindings" true
    (Condition.holds c (bindings_of []))

let test_holds_var_pairs () =
  let c = Condition.make_var ~var:0 ~field:(attr "ID") Predicate.Eq ~var':1 ~field':(attr "ID") in
  let a1 = ev 0 1 "x" 0 0 and a2 = ev 1 1 "x" 0 1 in
  let b1 = ev 2 1 "y" 0 2 and b2 = ev 3 2 "y" 0 3 in
  Alcotest.(check bool) "all pairs equal" true
    (Condition.holds c (bindings_of [ (0, [ a1; a2 ]); (1, [ b1 ]) ]));
  Alcotest.(check bool) "one pair differs" false
    (Condition.holds c (bindings_of [ (0, [ a1; a2 ]); (1, [ b1; b2 ]) ]))

let test_holds_reflexive () =
  (* v.ID <= v.V compares attributes of the same event, per binding. *)
  let c = Condition.make_var ~var:0 ~field:(attr "ID") Predicate.Le ~var':0 ~field':(attr "V") in
  Alcotest.(check bool) "sat" true
    (Condition.holds c (bindings_of [ (0, [ ev 0 1 "x" 5 0 ]) ]));
  Alcotest.(check bool) "unsat" false
    (Condition.holds c (bindings_of [ (0, [ ev 0 7 "x" 5 0 ]) ]))

let test_holds_timestamp () =
  let c =
    Condition.make_var ~var:1 ~field:Schema.Field.Timestamp Predicate.Gt ~var':0
      ~field':Schema.Field.Timestamp
  in
  let early = ev 0 1 "x" 0 5 and late = ev 1 1 "y" 0 9 in
  Alcotest.(check bool) "later wins" true
    (Condition.holds c (bindings_of [ (0, [ early ]); (1, [ late ]) ]));
  Alcotest.(check bool) "equal fails strict" false
    (Condition.holds c (bindings_of [ (0, [ early ]); (1, [ ev 2 1 "y" 0 5 ]) ]))

let test_holds_on_incremental () =
  (* Adding bindings one by one and checking [holds_on] at each step
     accepts exactly when the full [holds] accepts at the end. *)
  let c = Condition.make_var ~var:0 ~field:(attr "V") Predicate.Le ~var':1 ~field':(attr "V") in
  let xs = [ ev 0 1 "x" 2 0; ev 1 1 "x" 3 1 ] in
  let ys = [ ev 2 1 "y" 3 2; ev 3 1 "y" 9 3 ] in
  let incremental =
    (* Bind xs to var 0, then ys to var 1, checking each new binding
       against the buffer so far, newest first as an instance holds
       it. *)
    let step (ok, buffer) (var, e) =
      (ok && Condition.holds_on c ~var ~event:e buffer, (var, e) :: buffer)
    in
    fst
      (List.fold_left step (true, [])
         (List.map (fun e -> (0, e)) xs @ List.map (fun e -> (1, e)) ys))
  in
  let full = Condition.holds c (bindings_of [ (0, xs); (1, ys) ]) in
  Alcotest.(check bool) "incremental = full (sat)" full incremental;
  (* And a violating sequence. *)
  let ys_bad = [ ev 2 1 "y" 1 2 ] in
  let full_bad = Condition.holds c (bindings_of [ (0, xs); (1, ys_bad) ]) in
  let inc_bad =
    Condition.holds_on c ~var:1 ~event:(List.hd ys_bad)
      (List.map (fun e -> (0, e)) xs)
  in
  Alcotest.(check bool) "incremental = full (unsat)" full_bad inc_bad

(* The list-based evaluator [holds_on] replaced, kept here as the
   reference: the other variable's bindings as a list per variable, and
   every (left, right) combination compared. *)
let reference_holds c ~var ~event bindings =
  let bindings_for v =
    if v = var then [ event ]
    else List.filter_map (fun (w, e) -> if w = v then Some e else None) bindings
  in
  let lefts =
    List.map (fun e -> Event.get e c.Condition.field) (bindings_for c.Condition.var)
  in
  let rights =
    match c.Condition.rhs with
    | Condition.Const v -> [ v ]
    | Condition.Var (v', f') -> List.map (fun e -> Event.get e f') (bindings_for v')
  in
  List.for_all
    (fun l -> List.for_all (fun r -> Predicate.eval c.Condition.op l r) rights)
    lefts

(* Fields of every kind over a three-attribute schema: an int, a float,
   a string, and the timestamp. Values come from small pools so that
   equalities and ties are common. *)
let prop_schema =
  Schema.make_exn [ ("I", Value.Tint); ("F", Value.Tfloat); ("S", Value.Tstr) ]

let gen_field =
  QCheck.Gen.oneofl
    [ Schema.Field.Attr 0; Schema.Field.Attr 1; Schema.Field.Attr 2; Schema.Field.Timestamp ]

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range 0 3);
        map (fun f -> Value.Float f) (oneofl [ 0.; 0.5; 1.; 2.; 3. ]);
        map (fun s -> Value.Str s) (oneofl [ "a"; "b"; "c" ]);
      ])

let gen_event seq =
  QCheck.Gen.(
    map
      (fun (i, f, s, ts) ->
        Event.make ~seq ~ts [| Value.Int i; Value.Float f; Value.Str s |])
      (quad (int_range 0 3) (oneofl [ 0.; 0.5; 1.; 2.; 3. ])
         (oneofl [ "a"; "b"; "c" ]) (int_range 0 3)))

let gen_condition =
  QCheck.Gen.(
    let* var = int_range 0 2 and* field = gen_field and* op = oneofl Predicate.all_ops in
    oneof
      [
        map (fun c -> Condition.make_const ~var ~field op c) gen_value;
        map
          (fun (var', field') -> Condition.make_var ~var ~field op ~var' ~field')
          (pair (int_range 0 2) gen_field);
      ])

(* A condition, the variable a new event binds, the event, and an
   instance buffer of up to six bindings over three variables (so group
   variables often hold several). *)
let gen_case =
  QCheck.Gen.(
    let* c = gen_condition and* var = int_range 0 2 and* event = gen_event 0 in
    let* n = int_range 0 6 in
    let* buffer =
      flatten_l
        (List.init n (fun i -> pair (int_range 0 2) (gen_event (i + 1))))
    in
    return (c, var, event, buffer))

let print_case (c, var, event, buffer) =
  let name_of v = "v" ^ string_of_int v in
  Format.asprintf "%a with %s := %a over [%s]"
    (Condition.pp prop_schema ~name_of)
    c (name_of var) (Event.pp prop_schema) event
    (String.concat "; "
       (List.map
          (fun (v, e) -> Format.asprintf "%s/%a" (name_of v) (Event.pp prop_schema) e)
          buffer))

let holds_on_equals_reference =
  QCheck.Test.make ~count:2000 ~name:"holds_on = list-based evaluator"
    (QCheck.make ~print:print_case gen_case)
    (fun (c, var, event, buffer) ->
      Bool.equal
        (Condition.holds_on c ~var ~event buffer)
        (reference_holds c ~var ~event buffer))

let test_pp () =
  let name_of = function 0 -> "c" | 1 -> "p+" | _ -> "?" in
  let c0 = Condition.make_const ~var:0 ~field:(attr "L") Predicate.Eq (Value.Str "C") in
  let c1 = Condition.make_var ~var:0 ~field:(attr "ID") Predicate.Eq ~var':1 ~field':(attr "ID") in
  Alcotest.(check string) "const" "c.L = 'C'"
    (Format.asprintf "%a" (Condition.pp schema ~name_of) c0);
  Alcotest.(check string) "pair" "c.ID = p+.ID"
    (Format.asprintf "%a" (Condition.pp schema ~name_of) c1)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "typecheck" `Quick test_typecheck;
    Alcotest.test_case "holds: constants" `Quick test_holds_const;
    Alcotest.test_case "holds: variable pairs" `Quick test_holds_var_pairs;
    Alcotest.test_case "holds: reflexive" `Quick test_holds_reflexive;
    Alcotest.test_case "holds: timestamps" `Quick test_holds_timestamp;
    Alcotest.test_case "holds_on incremental" `Quick test_holds_on_incremental;
    QCheck_alcotest.to_alcotest holds_on_equals_reference;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
