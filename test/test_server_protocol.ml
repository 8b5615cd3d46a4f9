(* The wire protocol is pure and total: [parse ∘ render = Ok] on every
   canonical value (qcheck round-trip, commands and replies), and any
   byte sequence — oversized, NUL-ridden, truncated, not UTF-8 —
   parses to [Ok] or [Error] without ever raising. *)

open Ses_server

(* ---- generators for canonical wire values ---- *)

let token_chars =
  "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-."

let gen_token =
  QCheck.Gen.(
    map
      (fun l -> String.init (List.length l) (List.nth l))
      (list_size (int_range 1 Protocol.max_token_length)
         (map
            (fun i -> token_chars.[i mod String.length token_chars])
            (int_bound 1000))))

(* Printable free text: never empty after trim, no leading space (the
   renderer's single separator must be the only one), bounded well under
   the line cap so a rendered command always fits. *)
let gen_text =
  QCheck.Gen.(
    map
      (fun l ->
        let s = String.init (List.length l) (List.nth l) in
        "x" ^ s)
      (list_size (int_bound 80) (map Char.chr (int_range 33 126))))

let gen_command =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Protocol.Auth t) gen_token;
        map2 (fun n q -> Protocol.Register (n, q)) gen_token gen_text;
        map (fun n -> Protocol.Unregister n) gen_token;
        map (fun r -> Protocol.Event r) gen_text;
        map (fun n -> Protocol.Batch n) (int_range 1 Protocol.max_batch);
        return Protocol.Metrics;
        return Protocol.Subscribe;
        return Protocol.Ping;
        return Protocol.Quit;
      ])

let gen_reply =
  QCheck.Gen.(
    oneof
      [
        return (Protocol.Ok_done None);
        map (fun m -> Protocol.Ok_done (Some m)) gen_text;
        map (fun m -> Protocol.Err m) gen_text;
        return Protocol.Pong;
        return Protocol.Bye;
        return Protocol.Slow;
        return Protocol.Resume;
        map3
          (fun tenant query subst -> Protocol.Match { tenant; query; subst })
          gen_token gen_token gen_text;
        map3
          (fun tenant query subst -> Protocol.Result { tenant; query; subst })
          gen_token gen_token gen_text;
        map
          (fun kvs -> Protocol.Stats kvs)
          (list_size (int_bound 6)
             (map2
                (fun k v -> (k, "v" ^ string_of_int v))
                gen_token (int_bound 1000)));
      ])

let pp_command c = Printf.sprintf "%S" (Protocol.render_command c)
let pp_reply r = Printf.sprintf "%S" (Protocol.render_reply r)

let command_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (render command) = Ok command"
    (QCheck.make ~print:pp_command gen_command)
    (fun c ->
      match Protocol.parse_command (Protocol.render_command c) with
      | Ok c' -> c' = c
      | Error _ -> false)

let reply_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (render reply) = Ok reply"
    (QCheck.make ~print:pp_reply gen_reply)
    (fun r ->
      match Protocol.parse_reply (Protocol.render_reply r) with
      | Ok r' -> r' = r
      | Error _ -> false)

(* ---- totality fuzz: arbitrary bytes never raise ---- *)

let gen_garbage =
  QCheck.Gen.(
    oneof
      [
        (* raw bytes, any value *)
        map
          (fun l ->
            String.init (List.length l) (fun i -> Char.chr (List.nth l i)))
          (list_size (int_bound 200) (int_bound 255));
        (* a keyword with mangled arguments *)
        map2
          (fun w tail -> w ^ " " ^ tail)
          (oneofl
             [
               "AUTH"; "REGISTER"; "UNREGISTER"; "EVENT"; "BATCH"; "METRICS";
               "SUBSCRIBE"; "PING"; "QUIT"; "OK"; "ERR"; "MATCH"; "RESULT";
               "STATS";
             ])
          (map
             (fun l ->
               String.init (List.length l) (fun i -> Char.chr (List.nth l i)))
             (list_size (int_bound 100) (int_bound 255)));
        (* oversized lines *)
        map
          (fun n -> String.make (Protocol.max_line_length + 1 + n) 'a')
          (int_bound 64);
      ])

let never_raises =
  QCheck.Test.make ~count:1000 ~name:"parser is total on arbitrary bytes"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_garbage)
    (fun line ->
      (match Protocol.parse_command line with Ok _ | Error _ -> ());
      (match Protocol.parse_reply line with Ok _ | Error _ -> ());
      true)

(* ---- directed adversarial cases ---- *)

let check_err what line =
  match Protocol.parse_command line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected a parse error for %S" what line

let test_adversarial () =
  check_err "oversized line"
    ("EVENT " ^ String.make Protocol.max_line_length 'x');
  check_err "NUL byte" "EVENT a\000b";
  check_err "embedded CR" "EVENT a\rb";
  check_err "empty line" "";
  check_err "unknown command" "FROB 1,2,3";
  check_err "AUTH bad UTF-8 token" "AUTH caf\xc3\xa9";
  check_err "AUTH overlong token" ("AUTH " ^ String.make 65 'a');
  check_err "BATCH no count" "BATCH";
  check_err "BATCH junk count" "BATCH ten";
  check_err "BATCH zero" "BATCH 0";
  check_err "BATCH negative" "BATCH -3";
  check_err "BATCH overflow"
    ("BATCH " ^ string_of_int (Protocol.max_batch + 1));
  check_err "BATCH absurd" "BATCH 999999999999999999999999999";
  check_err "REGISTER missing query" "REGISTER q1";
  check_err "REGISTER blank query" "REGISTER q1    ";
  check_err "REGISTER bad name" "REGISTER q! PATTERN (a)";
  check_err "EVENT empty row" "EVENT";
  check_err "METRICS with argument" "METRICS now";
  (* byte-transparent payloads: bad UTF-8 is fine where free text is *)
  (match Protocol.parse_command "EVENT 1,\xff\xfe,2" with
  | Ok (Protocol.Event "1,\xff\xfe,2") -> ()
  | _ -> Alcotest.fail "EVENT carries arbitrary non-control bytes");
  match Protocol.parse_reply "NOPE stuff" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown reply must not parse"

(* Sanitization: rendering free text with framing bytes must still
   produce a single well-formed line. *)
let test_sanitize () =
  let r = Protocol.Err "split\nacross\rlines\000zero" in
  let line = Protocol.render_reply r in
  Alcotest.(check bool)
    "no framing bytes survive" false
    (String.exists (fun c -> c = '\n' || c = '\r' || c = '\000') line);
  match Protocol.parse_reply line with
  | Ok (Protocol.Err _) -> ()
  | _ -> Alcotest.fail "sanitized reply must parse back as ERR"

(* Rows the CSV decoder rejects: the ERR texts carry the decoder's own
   messages, for a single EVENT and inside a BATCH. *)
let test_row_errors () =
  let schema = Result.get_ok (Ses_event.Schema.of_string "ID:int,L:string,V:int") in
  let rt = Runtime.create (Runtime.default_config ~schema) in
  let id = Runtime.add_conn rt in
  List.iter
    (fun line -> Runtime.input rt id (line ^ "\n"))
    [
      "AUTH acme"; "EVENT x,C,0,2"; "EVENT 1,\"C,0,2"; "EVENT 1,\"C\"x,0,2";
      "BATCH 2"; "x,C,0,3"; "1,C,0,4"; "BATCH 2"; "1,C,0,5"; "1,\"C,0,6";
    ];
  Alcotest.(check (list string))
    "replies"
    [
      "OK tenant acme";
      "ERR event: \"x\" is not an integer";
      "ERR event: csv: unterminated quoted field";
      "ERR event: csv: unexpected 'x' after closing quote";
      "ERR batch: 1 of 2 rows rejected (last: \"x\" is not an integer)";
      "ERR batch: 1 of 2 rows rejected (last: csv: unterminated quoted field)";
    ]
    (List.filter (fun l -> l <> "")
       (String.split_on_char '\n' (Runtime.take_output rt id)))

let suite =
  [
    Alcotest.test_case "adversarial lines are rejected" `Quick
      test_adversarial;
    Alcotest.test_case "render sanitizes framing bytes" `Quick test_sanitize;
    Alcotest.test_case "row errors reach ERR" `Quick test_row_errors;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ command_roundtrip; reply_roundtrip; never_raises ]
