open Ses_event

type predicate =
  | Attr of string * Predicate.op * Value.t
  | Conj of predicate list
  | Disj of predicate list

let attr name op v = Attr (name, op, v)

let conj ps = Conj ps

let disj ps = Disj ps

let time_range lo hi =
  Conj
    [
      Attr ("T", Predicate.Ge, Value.Int lo);
      Attr ("T", Predicate.Le, Value.Int hi);
    ]

let rec all fs x =
  match fs with
  | [] -> true
  | f :: rest -> f x && all rest x

let rec any fs x =
  match fs with
  | [] -> false
  | f :: rest -> f x || any rest x

(* Compiles the boolean structure once, over whatever an atom is tested
   on: [atom op v field field_ty] builds one comparison of a resolved,
   type-checked field. Conjunction and disjunction short-circuit left to
   right, and [trace] sees exactly the atoms evaluated. *)
let compile_gen ~atom trace schema p =
  let rec go = function
    | Attr (name, op, v) -> (
        match Schema.Field.resolve schema name with
        | Error _ as e -> e
        | Ok field ->
            let field_ty = Schema.Field.type_of schema field in
            if not (Value.ty_compatible field_ty (Value.type_of v)) then
              Error
                (Format.asprintf
                   "selection: %s has type %a, not comparable to %a" name
                   Value.pp_ty field_ty Value.pp v)
            else
              let test = atom op v field field_ty in
              Ok
                (match trace with
                | None -> test
                | Some t ->
                    fun x ->
                      let r = test x in
                      t name r;
                      r))
    | Conj ps -> Result.map all (go_all ps)
    | Disj ps -> Result.map any (go_all ps)
  and go_all ps =
    List.fold_right
      (fun p acc ->
        match acc, go p with
        | Ok fs, Ok f -> Ok (f :: fs)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      ps (Ok [])
  in
  go p

let event_atom op v field _ e = Predicate.eval op (Event.get e field) v

let compile schema p = compile_gen ~atom:event_atom None schema p

let compile_traced ~trace schema p =
  compile_gen ~atom:event_atom (Some trace) schema p

(* [Predicate.eval op] on a comparison result of two compatible values. *)
let holds op c =
  match op with
  | Predicate.Eq -> c = 0
  | Predicate.Neq -> c <> 0
  | Predicate.Lt -> c < 0
  | Predicate.Le -> c <= 0
  | Predicate.Gt -> c > 0
  | Predicate.Ge -> c >= 0

(* On a decoded row: strings compare as bytes and ints as the numbers the
   decoder already parsed; any other pair decodes its one field. *)
let row_atom op v field field_ty =
  match field, field_ty, v, op with
  | Schema.Field.Attr k, Value.Tstr, Value.Str s, Predicate.Eq ->
      fun row -> Csv.str_equal row k s
  | Schema.Field.Attr k, Value.Tstr, Value.Str s, Predicate.Neq ->
      fun row -> not (Csv.str_equal row k s)
  | Schema.Field.Attr k, Value.Tstr, Value.Str s, _ ->
      fun row -> holds op (Csv.str_compare row k s)
  | Schema.Field.Attr k, Value.Tint, Value.Int c, _ ->
      fun row -> holds op (Int.compare (Csv.int_field row k) c)
  | Schema.Field.Timestamp, _, Value.Int c, _ ->
      fun row -> holds op (Int.compare (Csv.ts row) c)
  | _ -> fun row -> Predicate.eval op (Csv.field_value row field) v

let compile_row ?trace schema p = compile_gen ~atom:row_atom trace schema p

let rec pp ppf = function
  | Attr (name, op, v) ->
      Format.fprintf ppf "%s %a %a" name Predicate.pp op Value.pp v
  | Conj [] -> Format.pp_print_string ppf "true"
  | Disj [] -> Format.pp_print_string ppf "false"
  | Conj [ p ] | Disj [ p ] -> pp ppf p
  | Conj ps ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " and ")
           pp)
        ps
  | Disj ps ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " or ")
           pp)
        ps

let select r p =
  match compile (Relation.schema r) p with
  | Error _ as e -> e
  | Ok f -> Ok (Relation.filter f r)
