open Ses_event
open Ses_store

let test_escape () =
  Alcotest.(check string) "plain" "abc" (Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape_field "a\nb")

let test_split_line () =
  let ok line = match Csv.split_line line with Ok f -> f | Error e -> Alcotest.fail e in
  Alcotest.(check (list string)) "plain" [ "a"; "b"; "c" ] (ok "a,b,c");
  Alcotest.(check (list string)) "quoted comma" [ "a,b"; "c" ] (ok "\"a,b\",c");
  Alcotest.(check (list string)) "escaped quote" [ "a\"b" ] (ok "\"a\"\"b\"");
  Alcotest.(check (list string)) "empty fields" [ ""; ""; "" ] (ok ",,");
  Alcotest.(check bool) "unterminated" true
    (Result.is_error (Csv.split_line "\"abc"))

let test_header () =
  let schema =
    Schema.make_exn [ ("ID", Value.Tint); ("L", Value.Tstr); ("V", Value.Tfloat) ]
  in
  let header = Csv.header_of_schema schema in
  Alcotest.(check string) "header" "ID:int,L:string,V:float,T" header;
  (match Csv.schema_of_header header with
  | Ok s -> Alcotest.(check bool) "roundtrip" true (Schema.equal s schema)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "missing T" true
    (Result.is_error (Csv.schema_of_header "A:int,B:int"));
  Alcotest.(check bool) "unknown type" true
    (Result.is_error (Csv.schema_of_header "A:blob,T"));
  Alcotest.(check bool) "untyped cell" true
    (Result.is_error (Csv.schema_of_header "A,T"))

let sample =
  Relation.of_rows_exn Helpers.schema
    [
      ([| Value.Int 1; Value.Str "plain"; Value.Int 3 |], 0);
      ([| Value.Int 2; Value.Str "with,comma"; Value.Int (-4) |], 5);
      ([| Value.Int 3; Value.Str "with\"quote"; Value.Int 0 |], 9);
      ([| Value.Int 4; Value.Str "multi\nline"; Value.Int 7 |], 12);
    ]

let relations_equal a b =
  Relation.cardinality a = Relation.cardinality b
  && Schema.equal (Relation.schema a) (Relation.schema b)
  && List.for_all2
       (fun x y ->
         Event.ts x = Event.ts y
         && Array.for_all2 Value.equal x.Event.payload y.Event.payload)
       (Array.to_list (Relation.events a))
       (Array.to_list (Relation.events b))

let test_roundtrip_string () =
  match Csv.of_string (Csv.to_string sample) with
  | Ok r -> Alcotest.(check bool) "equal" true (relations_equal sample r)
  | Error e -> Alcotest.fail e

let test_roundtrip_floats () =
  let schema = Schema.make_exn [ ("X", Value.Tfloat) ] in
  let r =
    Relation.of_rows_exn schema
      [
        ([| Value.Float 2.5 |], 0);
        ([| Value.Float (-0.125) |], 1);
        ([| Value.Float 1e12 |], 2);
      ]
  in
  match Csv.of_string (Csv.to_string r) with
  | Ok r' -> Alcotest.(check bool) "floats survive" true (relations_equal r r')
  | Error e -> Alcotest.fail e

let test_roundtrip_file () =
  let path = Filename.temp_file "ses_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Csv.save path sample with Ok () -> () | Error e -> Alcotest.fail e);
      match Csv.load path with
      | Ok r -> Alcotest.(check bool) "file roundtrip" true (relations_equal sample r)
      | Error e -> Alcotest.fail e)

let test_bad_rows () =
  Alcotest.(check bool) "empty input" true (Result.is_error (Csv.of_string ""));
  Alcotest.(check bool) "arity" true
    (Result.is_error (Csv.of_string "A:int,T\n1,2,3\n"));
  Alcotest.(check bool) "bad timestamp" true
    (Result.is_error (Csv.of_string "A:int,T\n1,xyz\n"));
  Alcotest.(check bool) "bad int" true
    (Result.is_error (Csv.of_string "A:int,T\nfoo,3\n"));
  Alcotest.(check (result unit string))
    "decreasing timestamp"
    (Error "row 2: timestamps out of order (3 after 5)")
    (Result.map ignore (Csv.of_string "A:int,T\n1,5\n2,3\n"));
  Alcotest.(check (result int string))
    "equal timestamps are in order" (Ok 2)
    (Result.map Relation.cardinality (Csv.of_string "A:int,T\n1,5\n2,5\n"))

let test_empty_relation () =
  let r = Relation.of_rows_exn Helpers.schema [] in
  match Csv.of_string (Csv.to_string r) with
  | Ok r' -> Alcotest.(check int) "no events" 0 (Relation.cardinality r')
  | Error e -> Alcotest.fail e

let csv_roundtrip_random =
  QCheck.Test.make ~count:50 ~name:"csv roundtrip (random relations)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Ses_gen.Prng.create (Int64.of_int seed) in
      let r =
        Ses_gen.Random_workload.relation rng
          Ses_gen.Random_workload.default_relation
      in
      match Csv.of_string (Csv.to_string r) with
      | Ok r' -> relations_equal r r'
      | Error _ -> false)

(* ---- the row decoder against the reader it replaced ---- *)

(* The closure-based reader that preceded the byte-slicing decoder,
   transcribed as the reference: one record at a time over a
   [char option] producer, then [row_of_fields] on the field list. *)
module Reference = struct
  let read_record ~next ~peek =
    let fields = ref [] in
    let buf = Buffer.create 32 in
    let end_field () =
      fields := Buffer.contents buf :: !fields;
      Buffer.clear buf
    in
    let finish () = Ok (Some (List.rev (Buffer.contents buf :: !fields))) in
    let rec plain started =
      match next () with
      | None -> if started then finish () else Ok None
      | Some ',' ->
          end_field ();
          plain true
      | Some '\n' -> finish ()
      | Some '\r' -> plain started
      | Some '"' when Buffer.length buf = 0 -> quoted ()
      | Some c ->
          Buffer.add_char buf c;
          plain true
    and quoted () =
      match next () with
      | None -> Error "csv: unterminated quoted field"
      | Some '"' when (match peek () with Some '"' -> true | Some _ | None -> false)
        ->
          ignore (next ());
          Buffer.add_char buf '"';
          quoted ()
      | Some '"' -> after_quote ()
      | Some c ->
          Buffer.add_char buf c;
          quoted ()
    and after_quote () =
      match next () with
      | None -> finish ()
      | Some ',' ->
          end_field ();
          plain true
      | Some '\n' -> finish ()
      | Some '\r' -> after_quote ()
      | Some c -> Error (Printf.sprintf "csv: unexpected %C after closing quote" c)
    in
    match peek () with
    | None -> Ok None
    | Some '"' -> (
        ignore (next ());
        match quoted () with
        | Ok (Some _) as ok -> ok
        | Ok None -> assert false
        | Error _ as e -> e)
    | Some _ -> plain false

  let producer src =
    let pos = ref 0 in
    let peek () = if !pos < String.length src then Some src.[!pos] else None in
    let next () =
      let c = peek () in
      if c <> None then incr pos;
      c
    in
    (next, peek)

  let split_line line =
    let next, peek = producer line in
    let rec go acc =
      match read_record ~next ~peek with
      | Ok None -> Ok (List.rev acc)
      | Ok (Some fields) -> go (fields :: acc)
      | Error _ as e -> e
    in
    match go [] with
    | Ok [ fields ] -> Ok fields
    | Ok [] -> Ok []
    | Ok (_ :: _ :: _) -> Error "csv: embedded record separator"
    | Error _ as e -> e

  let row_of_fields schema fields =
    let arity = Schema.arity schema in
    if List.length fields <> arity + 1 then
      Error
        (Printf.sprintf "csv: expected %d fields, found %d" (arity + 1)
           (List.length fields))
    else
      let rec values acc i = function
        | [ ts_field ] -> (
            match int_of_string_opt (String.trim ts_field) with
            | Some ts -> Ok (Array.of_list (List.rev acc), ts)
            | None -> Error (Printf.sprintf "csv: bad timestamp %S" ts_field))
        | field :: rest -> (
            match Value.of_string (Schema.type_of schema i) field with
            | Ok v -> values (v :: acc) (i + 1) rest
            | Error _ as e -> e)
        | [] -> Error "csv: missing timestamp field"
      in
      values [] 0 fields

  (* What a file scan delivered: (seq, ts, payload) per row until the end
     or the first error. *)
  let scan text =
    let next, peek = producer text in
    match read_record ~next ~peek with
    | Error msg -> ([], Some msg)
    | Ok None -> ([], Some "csv: empty input")
    | Ok (Some header) -> (
        match
          Csv.schema_of_header (String.concat "," (List.map Csv.escape_field header))
        with
        | Error msg -> ([], Some msg)
        | Ok schema ->
            let rec rows acc seq last =
              match read_record ~next ~peek with
              | Error msg -> (List.rev acc, Some msg)
              | Ok None -> (List.rev acc, None)
              | Ok (Some fields) -> (
                  match row_of_fields schema fields with
                  | Error msg ->
                      (List.rev acc, Some (Printf.sprintf "row %d: %s" (seq + 1) msg))
                  | Ok (payload, ts) ->
                      if ts < last then
                        ( List.rev acc,
                          Some
                            (Printf.sprintf
                               "row %d: timestamps out of order (%d after %d)"
                               (seq + 1) ts last) )
                      else rows ((seq, ts, payload) :: acc) (seq + 1) ts)
            in
            rows [] 0 min_int)
end

let with_file text f =
  let path = Filename.temp_file "ses_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      f path)

let scan_file ?selection ?trace path =
  match Csv_stream.open_source path with
  | Error msg -> ([], Some msg)
  | Ok src ->
      Fun.protect
        ~finally:(fun () -> Csv_stream.close_source src)
        (fun () ->
          let pushed =
            match selection with
            | None -> Ok ()
            | Some p -> Csv_stream.push_selection ?trace src p
          in
          match pushed with
          | Error msg -> ([], Some msg)
          | Ok () ->
              let rec go acc =
                match Csv_stream.next src with
                | Error msg -> (List.rev acc, Some msg)
                | Ok None -> (List.rev acc, None)
                | Ok (Some e) ->
                    go ((Event.seq e, Event.ts e, e.Event.payload) :: acc)
              in
              go [])

let same_value a b =
  Value.ty_equal (Value.type_of a) (Value.type_of b) && Value.equal a b

let same_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s, t, p) (s', t', p') ->
         s = s' && t = t'
         && Array.length p = Array.length p'
         && Array.for_all2 same_value p p')
       a b

(* Field texts, each a list of CSV-encoded alternatives. *)
let int_texts =
  [ "1"; "42"; "-3"; " 7 "; "+7"; "-0"; "007"; "0x1F"; "0b11"; "1_000";
    "12345678901234567890"; "4611686018427387903"; "4611686018427387904";
    "-4611686018427387904"; "123456789012345678"; "-123456789012345678";
    "1234567890123456789"; "1e3"; "x"; ""; "-"; "\t5"; "\"9\"" ]

let float_texts =
  [ "1.5"; "0"; "-2"; "1e3"; ".5"; "5."; "nan"; "inf"; "-inf"; " 2.5 ";
    "1_000.5"; "0x1p3"; "1e400"; "x"; ""; "\"3.25\"" ]

let string_texts =
  [ "a"; "b"; "ab"; ""; " a "; "ab\"c"; "\"with,comma\""; "\"q\"\"uote\"";
    "\"multi\nline\""; "\"crlf\r\nin\""; "\"\""; "\"x\"\"\""; "a\rb" ]

let gen_text l = QCheck.Gen.oneofl l

let gen_row ts =
  let open QCheck.Gen in
  let* id = frequency [ (4, return "1"); (3, gen_text int_texts) ] in
  let* l = frequency [ (4, return "a"); (3, gen_text string_texts) ] in
  let* v = frequency [ (4, return "0.5"); (3, gen_text float_texts) ] in
  let* ts_text =
    frequency
      [ (12, return (string_of_int ts)); (1, return (Printf.sprintf " %d " ts));
        (1, return "six"); (1, return (string_of_int (ts - 5))) ]
  in
  let* fields =
    frequency
      [ (20, return [ id; l; v; ts_text ]); (1, return [ id; l; ts_text ]);
        (1, return [ id; l; v; ts_text; "extra" ]) ]
  in
  let* tail =
    frequency
      [ (20, return ""); (1, return "\"unterminated");
        (1, return "\"closed\"x") ]
  in
  return (String.concat "," fields ^ tail)

(* Whole files: a header, rows with increasing timestamps, LF or CRLF
   line ends, sometimes no final newline; some files outgrow the read
   buffer, some hold one line longer than it. *)
let gen_file =
  let open QCheck.Gen in
  let* n = int_bound 30 in
  let* rows = flatten_l (List.init n (fun i -> gen_row (10 * (i + 1)))) in
  let* crlf = bool in
  let* final_newline = frequency [ (4, return true); (1, return false) ] in
  let* padding =
    frequency [ (8, return 0); (1, return (Csv.buffer_size / 10)) ]
  in
  let* long_line = frequency [ (8, return false); (1, return true) ] in
  let eol = if crlf then "\r\n" else "\n" in
  let padded =
    List.init padding (fun i ->
        Printf.sprintf "%d,pad,0.5,%d" i (10 * (n + 1)))
  in
  let long =
    if long_line then
      [ Printf.sprintf "1,\"%s\",0.5,%d"
          (String.make (Csv.buffer_size + 17) 'y')
          (10 * (n + 2)) ]
    else []
  in
  let body = String.concat eol (("ID:int,L:string,V:float,T" :: rows) @ padded @ long) in
  return (if final_newline then body ^ eol else body)

let decoder_equals_reference =
  QCheck.Test.make ~count:300 ~name:"decoder = closure reader (events and errors)"
    (QCheck.make ~print:(fun s -> String.escaped s) gen_file)
    (fun text ->
      let ref_rows, ref_err = Reference.scan text in
      let rows, err = with_file text (fun path -> scan_file path) in
      same_rows ref_rows rows
      && (Option.equal String.equal ref_err err
         || QCheck.Test.fail_reportf "errors differ: %s vs %s"
              (Option.value ref_err ~default:"none")
              (Option.value err ~default:"none")))

(* A few lines, some with a long (maybe quoted) field, so that shorter
   lines follow longer ones through a reused decoder. *)
let gen_lines =
  let open QCheck.Gen in
  let long_row =
    let* n = int_range 20 200 in
    let* quoted = bool in
    let field =
      if quoted then "\"" ^ String.make n 'z' ^ "\"\"q\"" else String.make n 'z'
    in
    return (Printf.sprintf "1,%s,0.5,5" field)
  in
  list_size (int_range 1 8) (frequency [ (6, gen_row 5); (1, long_row) ])

(* Each line through a fresh decoder ([row_of_line]) and, line after
   line, through one shared decoder as a server tenant decodes its rows:
   both equal the reference, errors included. The shared decoder's
   events are checked only after every line has gone through it, so an
   event that kept a view of the reused buffer would show. *)
let row_of_line_equals_reference =
  QCheck.Test.make ~count:500 ~name:"row_of_line = closure reader"
    (QCheck.make ~print:QCheck.Print.(list String.escaped) gen_lines)
    (fun lines ->
      let schema =
        Schema.make_exn [ ("ID", Value.Tint); ("L", Value.Tstr); ("V", Value.Tfloat) ]
      in
      let same seq reference decoded =
        match reference, decoded with
        | Ok (payload, ts), Ok e ->
            Event.ts e = ts && Event.seq e = seq
            && Array.for_all2 same_value payload e.Event.payload
        | Error a, Error b -> String.equal a b
        | Ok _, Error _ | Error _, Ok _ -> false
      in
      let shared = Csv_stream.line_decoder schema in
      let through_shared =
        List.rev
          (List.fold_left
             (fun (seq, acc) line ->
               (seq + 1, Csv_stream.decode_line shared ~seq line :: acc))
             (0, []) lines
          |> snd)
      in
      List.for_all2
        (fun (seq, line) decoded ->
          let reference =
            Result.bind (Reference.split_line line) (Reference.row_of_fields schema)
          in
          same seq reference (Csv_stream.row_of_line schema ~seq line)
          && same seq reference decoded)
        (List.mapi (fun seq line -> (seq, line)) lines)
        through_shared)

let test_decoder_edges () =
  let check name text =
    let ref_rows, ref_err = Reference.scan text in
    let rows, err = with_file text (fun path -> scan_file path) in
    Alcotest.(check bool) (name ^ ": rows") true (same_rows ref_rows rows);
    Alcotest.(check (option string)) (name ^ ": error") ref_err err
  in
  let h = "ID:int,L:string,V:float,T\n" in
  check "empty" "";
  check "empty first line" "\nID:int,T\n1,2\n";
  check "header only" "ID:int,T";
  check "quoted header" "\"I,D:int\",T\n1,2\n";
  check "cr only" (h ^ "\r");
  check "crlf" (h ^ "1,a,0.5,1\r\n2,b,1,2\r\n");
  check "interior cr" (h ^ "1\r2,a\rb,0.5,1\n");
  check "quoted newline" (h ^ "1,\"a\nb\",0.5,1\n");
  check "quote then eof" (h ^ "1,a,0.5,\"1\"");
  check "doubled quote then eof" (h ^ "1,\"a\"\"");
  check "empty line" (h ^ "1,a,0.5,1\n\n");
  check "buffer boundary"
    (h
    ^ String.concat ""
        (List.init 8000 (fun i -> Printf.sprintf "%d,\"a\"\"b\",%d.5,%d\n" i i i)));
  check "long line"
    (h ^ "1,\"" ^ String.make (3 * Csv.buffer_size) 'z' ^ "\",0.5,1\n2,a,1,2")

(* Every op against every (field type, constant type) pair, nested in
   conjunctions and disjunctions: the decision on the decoded row and the
   trace of evaluated atoms equal [compile_traced] on the event. *)
let gen_constant =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-2) 3);
        map (fun f -> Value.Float f) (oneofl [ -0.5; 0.; 1.; 1.5; 2.5; nan ]);
        map (fun s -> Value.Str s) (oneofl [ ""; "a"; "ab"; "b"; "B"; "\xe9" ]);
      ])

let gen_selection =
  let open QCheck.Gen in
  let atom =
    let* name = oneofl [ "ID"; "L"; "V"; "T" ] in
    let* op = oneofl Predicate.all_ops in
    let* c = gen_constant in
    let field_ty =
      match name with "L" -> Value.Tstr | "V" -> Value.Tfloat | _ -> Value.Tint
    in
    (* Mostly comparable constants, so most trees compile; the rest
       check that both compilers reject the same atom. *)
    let* keep_mismatch = frequency [ (19, return false); (1, return true) ] in
    let c =
      if keep_mismatch || Value.ty_compatible field_ty (Value.type_of c) then c
      else
        match field_ty with
        | Value.Tstr -> Value.Str "a"
        | Value.Tint | Value.Tfloat -> Value.Int 1
    in
    return (Selection.attr name op c)
  in
  sized_size (int_bound 3)
    (fix (fun self n ->
         if n = 0 then atom
         else
           frequency
             [ (2, atom);
               (1, map Selection.conj (list_size (int_bound 3) (self (n - 1))));
               (1, map Selection.disj (list_size (int_bound 3) (self (n - 1)))) ]))

let gen_selection_file =
  let open QCheck.Gen in
  let* n = int_range 1 25 in
  let* rows =
    flatten_l
      (List.init n (fun i ->
           let* id = int_range (-2) 3 in
           let* l = oneofl [ ""; "a"; "ab"; "b"; "B"; "\xe9"; "\"a\""; " a" ] in
           let* v = oneofl [ "-0.5"; "0"; "1"; "1.5"; " 2.5"; "nan"; "3" ] in
           return (Printf.sprintf "%d,%s,%s,%d" id l v (i / 2))))
  in
  return (String.concat "\n" ("ID:int,L:string,V:float,T" :: rows) ^ "\n")

let raw_atoms_equal_event_atoms =
  QCheck.Test.make ~count:500 ~name:"raw-row selection = Selection on events"
    (QCheck.make
       ~print:(fun (p, text) ->
         Format.asprintf "%a over %s" Selection.pp p (String.escaped text))
       QCheck.Gen.(pair gen_selection gen_selection_file))
    (fun (p, text) ->
      let log = ref [] in
      let trace name passed = log := (name, passed) :: !log in
      let raw_rows, raw_err =
        with_file text (fun path -> scan_file ~selection:p ~trace path)
      in
      let raw_trace = List.rev !log in
      log := [];
      let all_rows, _ = with_file text (fun path -> scan_file path) in
      let schema =
        Schema.make_exn
          [ ("ID", Value.Tint); ("L", Value.Tstr); ("V", Value.Tfloat) ]
      in
      match Selection.compile_traced ~trace schema p with
      | Error msg -> Option.equal String.equal raw_err (Some msg)
      | Ok keep ->
          let kept =
            List.filter
              (fun (seq, ts, payload) -> keep (Event.make ~seq ~ts payload))
              all_rows
          in
          Option.is_none raw_err && same_rows kept raw_rows
          && List.rev !log = raw_trace)

let suite =
  [
    Alcotest.test_case "escape_field" `Quick test_escape;
    Alcotest.test_case "split_line" `Quick test_split_line;
    Alcotest.test_case "header" `Quick test_header;
    Alcotest.test_case "roundtrip via string" `Quick test_roundtrip_string;
    Alcotest.test_case "roundtrip floats" `Quick test_roundtrip_floats;
    Alcotest.test_case "roundtrip via file" `Quick test_roundtrip_file;
    Alcotest.test_case "bad rows" `Quick test_bad_rows;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    QCheck_alcotest.to_alcotest csv_roundtrip_random;
    Alcotest.test_case "decoder edge cases = closure reader" `Quick
      test_decoder_edges;
    QCheck_alcotest.to_alcotest decoder_equals_reference;
    QCheck_alcotest.to_alcotest row_of_line_equals_reference;
    QCheck_alcotest.to_alcotest raw_atoms_equal_event_atoms;
  ]
