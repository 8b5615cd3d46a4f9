(* The ses-lint rule engine: one ppxlib Parsetree traversal per file
   evaluating every syntactic invariant the repo depends on, reporting
   through [Ses_analysis.Diagnostic] so codebase-level findings share
   the query analyzer's severity/code/span records and renderers.

   Rules are syntactic, not typed: the driver parses with ppxlib's
   parser (no compilation environment), so each rule is written to be
   conservative — scoping is tracked where it matters (a module-local
   [compare] shadows the polymorphic one), and anything the syntax
   cannot decide is left alone rather than guessed at.

   Suppression is per-site: [(expr [@ses.allow "rule-id"])] silences
   one finding inside the attributed node, [[@@@ses.allow "rule-id"]]
   silences a rule for the whole file. An allow that suppresses nothing
   is itself an error ([stale-suppression]), so suppressions cannot
   outlive the code they excuse. *)

open Ppxlib
module Diagnostic = Ses_analysis.Diagnostic
module Span = Ses_pattern.Span

(* ------------------------------------------------------------------ *)
(* Rule catalog                                                       *)
(* ------------------------------------------------------------------ *)

let rule_poly_compare = "poly-compare"
let rule_phys_equal = "phys-equal"
let rule_hashtbl_hash = "hashtbl-hash"
let rule_swallowed_exception = "swallowed-exception"
let rule_mutex_discipline = "mutex-discipline"
let rule_print_stdout = "print-stdout"
let rule_missing_mli = "missing-mli"
let rule_stale_suppression = "stale-suppression"
let rule_parse_error = "parse-error"

type rule = { id : string; doc : string }

let catalog =
  [
    {
      id = rule_poly_compare;
      doc =
        "bare [compare]/[Stdlib.compare], or a structural (=)/(<>) whose \
         operand is a tuple, record, or constructor application — ties \
         behaviour to structural layout; use a per-type compare";
    };
    {
      id = rule_phys_equal;
      doc =
        "physical equality (==)/(!=) outside the identity-caching modules \
         that document a pointer-identity contract";
    };
    {
      id = rule_hashtbl_hash;
      doc =
        "[Hashtbl.hash] outside approved partition-routing sites — it \
         silently degrades sharding when a key changes representation";
    };
    {
      id = rule_swallowed_exception;
      doc =
        "a [try] handler that catches everything and discards the \
         exception; an error in the server/pool paths, a warning elsewhere";
    };
    {
      id = rule_mutex_discipline;
      doc =
        "[Mutex.lock] with no matching [Mutex.unlock] (or [Fun.protect] \
         release) in the same top-level definition";
    };
    {
      id = rule_print_stdout;
      doc =
        "direct stdout output in lib/ — telemetry and the CLI own the \
         process's stdout";
    };
    {
      id = rule_missing_mli;
      doc = "a lib/ module without an explicit .mli interface";
    };
    {
      id = rule_stale_suppression;
      doc = "a [@ses.allow] attribute that no longer suppresses anything";
    };
    { id = rule_parse_error; doc = "a source file ppxlib's parser rejects" };
  ]

let known_rule id = List.exists (fun r -> String.equal r.id id) catalog

(* ------------------------------------------------------------------ *)
(* Per-path policy                                                    *)
(* ------------------------------------------------------------------ *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let in_lib path = has_prefix ~prefix:"lib/" path

(* Modules whose pointer-identity checks are part of a documented
   contract: the analyzer/planner/shared-plan "analysis changed
   nothing" caching protocol (see [Automaton.prune]'s doc comment) and
   the tests that assert it. *)
let phys_equal_allowed path =
  List.exists (String.equal path)
    [
      "lib/core/automaton.ml";
      "lib/core/planner.ml";
      "lib/core/shared_plan.ml";
      "lib/analysis/analyzer.ml";
      "test/test_analysis.ml";
      "test/test_store.ml";
    ]

(* Where a swallowed exception is load-bearing for liveness: the
   select-loop server must never lose a protocol error. *)
let swallowed_is_error path = has_prefix ~prefix:"lib/server/" path

(* ------------------------------------------------------------------ *)
(* Locations                                                          *)
(* ------------------------------------------------------------------ *)

(* ses spans are 1-based lines and columns with the end one past the
   last character — the same convention the query lexer uses — so a
   lexing position converts by [cnum - bol + 1] on both ends. *)
let span_of_location (loc : Location.t) =
  let line (p : Lexing.position) = p.pos_lnum in
  let col (p : Lexing.position) = p.pos_cnum - p.pos_bol + 1 in
  Span.make ~start_line:(line loc.loc_start) ~start_col:(col loc.loc_start)
    ~end_line:(line loc.loc_end) ~end_col:(col loc.loc_end)

let pos_leq (l1, c1) (l2, c2) = l1 < l2 || (l1 = l2 && c1 <= c2)

let loc_contains ~(outer : Location.t) ~(inner : Location.t) =
  let p (pos : Lexing.position) = (pos.pos_lnum, pos.pos_cnum - pos.pos_bol) in
  pos_leq (p outer.loc_start) (p inner.loc_start)
  && pos_leq (p inner.loc_end) (p outer.loc_end)

(* ------------------------------------------------------------------ *)
(* Findings and suppressions                                          *)
(* ------------------------------------------------------------------ *)

type finding = { diag : Diagnostic.t; floc : Location.t; rule : string }

type allow = {
  a_rule : string;
  a_scope : Location.t option;  (* [None] = whole file *)
  a_loc : Location.t;  (* the attribute itself, for stale reports *)
  mutable a_used : bool;
}

type file_report = { path : string; mutable findings : finding list }

let report ctx ~rule ~severity ~loc message =
  let diag =
    Diagnostic.make ~span:(span_of_location loc) severity rule message
  in
  ctx.findings <- { diag; floc = loc; rule } :: ctx.findings

(* ------------------------------------------------------------------ *)
(* Small AST predicates                                               *)
(* ------------------------------------------------------------------ *)

(* A structurally composite operand: comparing one with (=)/(<>) walks
   constructors or fields, so reordering a variant or record silently
   changes the answer. Constant constructors ([None], [[]]) and
   literals stay trivial — flagging [x = None] would only breed
   suppressions. *)
let rec composite_operand e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) -> true
  | Pexp_constraint (inner, _) -> composite_operand inner
  | _ -> false

(* [Some None] = catch-all wildcard, [Some (Some v)] = catch-all that
   binds [v], [None] = a real (constructor-specific) pattern. *)
let catch_all_binding pat =
  match pat.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var v -> Some (Some v.txt)
  | Ppat_alias ({ ppat_desc = Ppat_any; _ }, v) -> Some (Some v.txt)
  | _ -> None

let expr_uses_var name e =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt = Lident n; _ } when String.equal n name ->
            found := true
        | _ -> ());
        super#expression e
    end
  in
  it#expression e;
  !found

let pattern_binds name pat =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! pattern p =
        (match p.ppat_desc with
        | Ppat_var v when String.equal v.txt name -> found := true
        | Ppat_alias (_, v) when String.equal v.txt name -> found := true
        | _ -> ());
        super#pattern p
    end
  in
  it#pattern pat;
  !found

let param_binds name (p : function_param) =
  match p.pparam_desc with
  | Pparam_val (_, _, pat) -> pattern_binds name pat
  | Pparam_newtype _ -> false

(* Renders the small expressions mutexes live in ([m], [w.mutex],
   [t.state.lock]) to a comparison key; anything richer becomes [None]
   and matches any unlock, keeping the rule conservative. *)
let rec mutex_key e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (Longident.flatten_exn txt))
  | Pexp_field (base, { txt; _ }) -> (
      match mutex_key base with
      | Some b ->
          Some (b ^ "." ^ String.concat "." (Longident.flatten_exn txt))
      | None -> None)
  | _ -> None

let stdout_printer txt =
  match txt with
  | Lident
      ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" )
  | Ldot
      ( Lident "Stdlib",
        ( "print_string" | "print_endline" | "print_newline" | "print_char"
        | "print_int" | "print_float" | "print_bytes" ) ) ->
      true
  | Ldot (Lident "Printf", "printf")
  | Ldot
      ( Lident "Format",
        ( "printf" | "print_string" | "print_newline" | "print_char"
        | "print_int" | "print_float" | "print_flush" ) ) ->
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Suppression collection                                             *)
(* ------------------------------------------------------------------ *)

let allow_payload (attr : attribute) =
  if String.equal attr.attr_name.txt "ses.allow" then
    match attr.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ( { pexp_desc = Pexp_constant (Pconst_string (id, _, _)); _ },
                  _ );
            _;
          };
        ] ->
        Some (Ok id)
    | _ -> Some (Error "expected a string payload: [@ses.allow \"rule-id\"]")
  else None

(* ------------------------------------------------------------------ *)
(* The single-pass linter                                             *)
(* ------------------------------------------------------------------ *)

class linter (ctx : file_report) =
  object (self)
    inherit Ast_traverse.iter as super

    (* > 0 while a local [compare] binding is in scope; structure-level
       bindings push without popping (they scope to end of file). *)
    val mutable compare_shadow = 0

    (* Mutex.lock/unlock operand keys seen inside the current top-level
       structure item; flushed per item by [structure]. *)
    val mutable locks : (string option * Location.t) list = []
    val mutable unlocks : string option list = []
    val mutable allows : allow list = []

    method allows = allows

    method private with_shadow shadows f =
      if shadows then begin
        compare_shadow <- compare_shadow + 1;
        f ();
        compare_shadow <- compare_shadow - 1
      end
      else f ()

    (* Attribute payloads are data, not program code — and a payload
       that parses as a structure would re-enter [structure] below and
       clear the per-item lock accumulators mid-definition. *)
    method! attribute _ = ()

    method private add_allow ~scope (attr : attribute) =
      match allow_payload attr with
      | None -> ()
      | Some (Error msg) ->
          report ctx ~rule:rule_stale_suppression ~severity:Diagnostic.Error
            ~loc:attr.attr_loc ("malformed [@ses.allow]: " ^ msg)
      | Some (Ok id) ->
          if not (known_rule id) then
            report ctx ~rule:rule_stale_suppression ~severity:Diagnostic.Error
              ~loc:attr.attr_loc
              (Printf.sprintf "[@ses.allow %S] names no known rule" id)
          else
            allows <-
              { a_rule = id; a_scope = scope; a_loc = attr.attr_loc;
                a_used = false }
              :: allows

    (* ---- rule checks on one expression node ---- *)

    method private check_expression e =
      (match e.pexp_desc with
      | Pexp_ident { txt = Lident "compare"; _ } when compare_shadow = 0 ->
          report ctx ~rule:rule_poly_compare ~severity:Diagnostic.Error
            ~loc:e.pexp_loc
            "polymorphic [compare]: use a per-type compare (Int.compare, \
             String.compare, Value.compare, ...) or a local typed comparator"
      | Pexp_ident { txt = Ldot (Lident "Stdlib", "compare"); _ } ->
          report ctx ~rule:rule_poly_compare ~severity:Diagnostic.Error
            ~loc:e.pexp_loc
            "polymorphic [Stdlib.compare]: use a per-type compare"
      | Pexp_ident { txt = Lident (("==" | "!=") as op); _ }
        when not (phys_equal_allowed ctx.path) ->
          report ctx ~rule:rule_phys_equal ~severity:Diagnostic.Error
            ~loc:e.pexp_loc
            (Printf.sprintf
               "physical equality (%s) outside the identity-caching modules: \
                compare with a per-type equal, or document the pointer \
                contract and extend the allowlist in tools/lint/rules.ml" op)
      | Pexp_ident { txt = Ldot (Lident "Hashtbl", "hash"); _ } ->
          report ctx ~rule:rule_hashtbl_hash ~severity:Diagnostic.Error
            ~loc:e.pexp_loc
            "[Hashtbl.hash] hashes the runtime representation: route through \
             a per-type hash, or [@ses.allow \"hashtbl-hash\"] an audited \
             partition-routing site"
      | _ -> ());
      match e.pexp_desc with
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); _ };
              _ },
            [ (Nolabel, a); (Nolabel, b) ] )
        when composite_operand a || composite_operand b ->
          report ctx ~rule:rule_poly_compare ~severity:Diagnostic.Error
            ~loc:e.pexp_loc
            (Printf.sprintf
               "structural (%s) on a constructor/tuple/record operand depends \
                on declaration layout: match on the shape or use a per-type \
                equal" op)
      | Pexp_apply
          ( { pexp_desc = Pexp_ident { txt = Ldot (Lident "Mutex", "lock"); _ };
              _ },
            [ (Nolabel, m) ] ) ->
          locks <- (mutex_key m, e.pexp_loc) :: locks
      | Pexp_apply
          ( {
              pexp_desc =
                Pexp_ident { txt = Ldot (Lident "Mutex", "unlock"); _ };
              _;
            },
            [ (Nolabel, m) ] ) ->
          unlocks <- mutex_key m :: unlocks
      | Pexp_ident { txt; _ }
        when in_lib ctx.path && stdout_printer txt ->
          report ctx ~rule:rule_print_stdout ~severity:Diagnostic.Error
            ~loc:e.pexp_loc
            "library code must not write to stdout: return the text, take a \
             sink, or log through telemetry"
      | Pexp_try (_, cases) ->
          List.iter
            (fun c ->
              match catch_all_binding c.pc_lhs with
              | None -> ()
              | Some bound ->
                  let swallows =
                    match bound with
                    | None -> true
                    | Some name -> not (expr_uses_var name c.pc_rhs)
                  in
                  if swallows then
                    let severity =
                      if swallowed_is_error ctx.path then Diagnostic.Error
                      else Diagnostic.Warning
                    in
                    report ctx ~rule:rule_swallowed_exception ~severity
                      ~loc:c.pc_lhs.ppat_loc
                      "catch-all handler discards the exception: match the \
                       exceptions this expression can actually raise, or \
                       propagate/record the failure")
            cases
      | _ -> ()

    (* ---- traversal with [compare] scoping ---- *)

    method private iter_case c =
      self#with_shadow
        (pattern_binds "compare" c.pc_lhs)
        (fun () ->
          Option.iter self#expression c.pc_guard;
          self#expression c.pc_rhs)

    method! expression e =
      List.iter (self#add_allow ~scope:(Some e.pexp_loc)) e.pexp_attributes;
      self#check_expression e;
      match e.pexp_desc with
      | Pexp_let (rf, vbs, body) ->
          let shadows =
            List.exists (fun vb -> pattern_binds "compare" vb.pvb_pat) vbs
          in
          List.iter
            (fun vb ->
              List.iter
                (self#add_allow ~scope:(Some vb.pvb_loc))
                vb.pvb_attributes)
            vbs;
          let walk_bound () =
            List.iter (fun vb -> self#expression vb.pvb_expr) vbs
          in
          (match rf with
          | Recursive -> self#with_shadow shadows walk_bound
          | Nonrecursive -> walk_bound ());
          self#with_shadow shadows (fun () -> self#expression body)
      | Pexp_function (params, _, body) ->
          let shadows = List.exists (param_binds "compare") params in
          List.iter
            (fun p ->
              match p.pparam_desc with
              | Pparam_val (_, default, _) ->
                  Option.iter self#expression default
              | Pparam_newtype _ -> ())
            params;
          self#with_shadow shadows (fun () ->
              match body with
              | Pfunction_body b -> self#expression b
              | Pfunction_cases (cases, _, _) ->
                  List.iter self#iter_case cases)
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
          self#expression scrut;
          List.iter self#iter_case cases
      | _ -> super#expression e

    (* Top-level items are walked one by one so (a) a structure-level
       [let compare] shadows every later item, and (b) the mutex rule
       can pair locks and unlocks within one definition. *)
    method! structure items =
      List.iter
        (fun item ->
          let shadows =
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.exists
                  (fun vb -> pattern_binds "compare" vb.pvb_pat)
                  vbs
            | _ -> false
          in
          let recursive =
            match item.pstr_desc with
            | Pstr_value (Recursive, _) -> true
            | _ -> false
          in
          if shadows && recursive then compare_shadow <- compare_shadow + 1;
          locks <- [];
          unlocks <- [];
          self#structure_item item;
          List.iter
            (fun (key, loc) ->
              let matched =
                List.exists
                  (fun ukey ->
                    match (key, ukey) with
                    | Some k, Some u -> String.equal k u
                    | None, _ | _, None -> true)
                  unlocks
              in
              if not matched then
                report ctx ~rule:rule_mutex_discipline
                  ~severity:Diagnostic.Error ~loc
                  "Mutex.lock with no matching Mutex.unlock in this \
                   definition: release on every path, e.g. via Fun.protect \
                   ~finally")
            (List.rev locks);
          if shadows && not recursive then compare_shadow <- compare_shadow + 1)
        items

    method! structure_item item =
      (match item.pstr_desc with
      | Pstr_attribute attr -> self#add_allow ~scope:None attr
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              List.iter
                (self#add_allow ~scope:(Some vb.pvb_loc))
                vb.pvb_attributes)
            vbs
      | Pstr_eval (_, attrs) ->
          List.iter (self#add_allow ~scope:(Some item.pstr_loc)) attrs
      | _ -> ());
      super#structure_item item
  end

(* ------------------------------------------------------------------ *)
(* Per-file entry points                                              *)
(* ------------------------------------------------------------------ *)

let whole_file_loc =
  let pos =
    { Lexing.pos_fname = ""; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 }
  in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

(* Applies the collected [@ses.allow] scopes: a finding inside a live
   scope for its rule is dropped (and the allow marked used); an allow
   that caught nothing becomes a [stale-suppression] error. *)
let apply_suppressions ctx (allows : allow list) =
  let survives f =
    if String.equal f.rule rule_stale_suppression then true
    else begin
      let matching =
        List.filter
          (fun a ->
            String.equal a.a_rule f.rule
            &&
            match a.a_scope with
            | None -> true
            | Some scope -> loc_contains ~outer:scope ~inner:f.floc)
          allows
      in
      List.iter (fun a -> a.a_used <- true) matching;
      match matching with [] -> true | _ :: _ -> false
    end
  in
  ctx.findings <- List.filter survives ctx.findings;
  List.iter
    (fun a ->
      if not a.a_used then
        report ctx ~rule:rule_stale_suppression ~severity:Diagnostic.Error
          ~loc:a.a_loc
          (Printf.sprintf
             "stale suppression: [@ses.allow %S] no longer suppresses \
              anything — remove it"
             a.a_rule))
    allows

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lexbuf_of ~path source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  lexbuf

(* Lints one .ml file: parse, traverse, resolve suppressions. The
   missing-mli check is passed in ([has_mli]) because only the driver
   knows the on-disk layout; [None] skips the rule (non-lib paths). *)
let lint_implementation ~path ~has_mli source =
  let ctx = { path; findings = [] } in
  (match Parse.implementation (lexbuf_of ~path source) with
  | exception e ->
      report ctx ~rule:rule_parse_error ~severity:Diagnostic.Error
        ~loc:whole_file_loc
        ("ppxlib parser rejected the file: " ^ Printexc.to_string e)
  | structure ->
      let walker = new linter ctx in
      walker#structure structure;
      (match has_mli with
      | None | Some true -> ()
      | Some false ->
          report ctx ~rule:rule_missing_mli ~severity:Diagnostic.Error
            ~loc:whole_file_loc
            "module exports everything: add a sibling .mli (or \
             [@@@ses.allow \"missing-mli\"] with a justifying comment)");
      apply_suppressions ctx walker#allows);
  List.rev ctx.findings

(* .mli files carry no expressions, so the rules have nothing to say;
   they are still parsed so a syntactically broken interface fails the
   lint rather than hiding until the next build. *)
let lint_interface ~path source =
  let ctx = { path; findings = [] } in
  (match Parse.interface (lexbuf_of ~path source) with
  | exception e ->
      report ctx ~rule:rule_parse_error ~severity:Diagnostic.Error
        ~loc:whole_file_loc
        ("ppxlib parser rejected the file: " ^ Printexc.to_string e)
  | (_ : signature) -> ());
  List.rev ctx.findings
