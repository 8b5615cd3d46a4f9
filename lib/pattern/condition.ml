open Ses_event

type operand =
  | Const of Value.t
  | Var of int * Schema.Field.t

type t = {
  var : int;
  field : Schema.Field.t;
  op : Predicate.op;
  rhs : operand;
  span : Span.t option;
}

let make_const ?span ~var ~field op c = { var; field; op; rhs = Const c; span }

let make_var ?span ~var ~field op ~var' ~field' =
  { var; field; op; rhs = Var (var', field'); span }

let span c = c.span

let is_constant c = match c.rhs with Const _ -> true | Var _ -> false

let vars c =
  match c.rhs with
  | Const _ -> [ c.var ]
  | Var (v', _) -> if v' = c.var then [ c.var ] else [ c.var; v' ]

let mentions c v = List.mem v (vars c)

let other_var c v =
  match c.rhs with
  | Const _ -> None
  | Var (v', _) ->
      if v = c.var && v' <> v then Some v'
      else if v = v' && c.var <> v then Some c.var
      else None

let typecheck schema c =
  let lty = Schema.Field.type_of schema c.field in
  let rty =
    match c.rhs with
    | Const v -> Value.type_of v
    | Var (_, f) -> Schema.Field.type_of schema f
  in
  if Value.ty_compatible lty rty then Ok ()
  else
    Error
      (Format.asprintf "condition compares incompatible types %a and %a"
         Value.pp_ty lty Value.pp_ty rty)

let eval_pair c left right = Predicate.eval c.op left right

let holds c bindings =
  let lefts = List.map (fun e -> Event.get e c.field) (bindings c.var) in
  let rights =
    match c.rhs with
    | Const v -> [ v ]
    | Var (v', f') -> List.map (fun e -> Event.get e f') (bindings v')
  in
  List.for_all (fun l -> List.for_all (fun r -> eval_pair c l r) rights) lefts

(* The incremental check over a binding list, without building the
   per-variable lists [holds] reads: plain recursion, no closure, and
   nothing allocated but the boxed value of a timestamp field. [l] is a
   left value checked against every [f'] value bound to [v']. *)
let rec all_rights op l v' f' = function
  | [] -> true
  | (w, e) :: rest ->
      (w <> v' || Predicate.eval op l (Event.get e f'))
      && all_rights op l v' f' rest

(* Every [f] value bound to [v], checked against the right value [r]. *)
let rec all_lefts op v f r = function
  | [] -> true
  | (w, e) :: rest ->
      (w <> v || Predicate.eval op (Event.get e f) r)
      && all_lefts op v f r rest

let rec all_pairs op v f v' f' rights = function
  | [] -> true
  | (w, e) :: rest ->
      (w <> v || all_rights op (Event.get e f) v' f' rights)
      && all_pairs op v f v' f' rights rest

let holds_on c ~var ~event bindings =
  match c.rhs with
  | Const k ->
      if c.var = var then Predicate.eval c.op (Event.get event c.field) k
      else all_lefts c.op c.var c.field k bindings
  | Var (v', f') ->
      if c.var = var then
        let l = Event.get event c.field in
        if v' = var then Predicate.eval c.op l (Event.get event f')
        else all_rights c.op l v' f' bindings
      else if v' = var then
        all_lefts c.op c.var c.field (Event.get event f') bindings
      else all_pairs c.op c.var c.field v' f' bindings bindings

let pp schema ~name_of ppf c =
  let pp_field ppf (v, f) =
    Format.fprintf ppf "%s.%s" (name_of v) (Schema.Field.name schema f)
  in
  Format.fprintf ppf "%a %a " pp_field (c.var, c.field) Predicate.pp c.op;
  match c.rhs with
  | Const v -> Value.pp ppf v
  | Var (v', f') -> pp_field ppf (v', f')
