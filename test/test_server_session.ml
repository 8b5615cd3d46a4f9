(* The socket-free server core, driven through the same entry points
   the TCP adapter uses ([add_conn] / [input] / [tick] / [take_output]).

   Session: framing and the state machine are deterministic in the
   bytes seen so far regardless of chunking (qcheck), oversized lines
   are recovered from (and keep BATCH framing), QUIT closes.

   Runtime: a golden scenario pins the whole observable exchange
   (barriers, MATCH streaming in the drain whose event closes the
   window, RESULT at UNREGISTER); a qcheck differential replays random
   streams with random register/unregister points and random batch
   boundaries, checking the RESULT lines against a fresh offline
   [Multi] fed the same window; SLOW/RESUME backpressure and the idle
   timeout are exercised with a manual clock. *)

open Ses_event
open Ses_core
open Ses_server

let schema = Result.get_ok (Schema.of_string "ID:int,L:string,V:int")

(* ---- session framing ---- *)

let feed_all chunks =
  let s = Session.create () in
  List.concat_map (Session.feed s) chunks

let test_session_auth_gate () =
  (match feed_all [ "SUBSCRIBE\n" ] with
  | [ Session.Reply (Protocol.Err msg) ] ->
      Alcotest.(check string)
        "gate message" "not authenticated (use AUTH <tenant>)" msg
  | _ -> Alcotest.fail "expected a single ERR");
  match feed_all [ "AUTH t\nAUTH t\n" ] with
  | [ Session.Op (Session.Auth "t"); Session.Reply (Protocol.Err msg) ] ->
      Alcotest.(check string) "re-auth" "already authenticated" msg
  | _ -> Alcotest.fail "expected Auth then ERR"

let test_session_quit () =
  match feed_all [ "QUIT\nPING\n" ] with
  | [ Session.Reply Protocol.Bye; Session.Close ] -> ()
  | _ -> Alcotest.fail "QUIT must emit Bye, Close and ignore the rest"

let test_session_crlf () =
  match feed_all [ "PING\r\n" ] with
  | [ Session.Reply Protocol.Pong ] -> ()
  | _ -> Alcotest.fail "CRLF line must parse"

let test_session_oversized () =
  let big = String.make (Protocol.max_line_length + 10) 'a' in
  (match feed_all [ big ^ "\nPING\n" ] with
  | [ Session.Reply (Protocol.Err _); Session.Reply Protocol.Pong ] -> ()
  | _ -> Alcotest.fail "oversized line: one error, then recovery");
  (* Inside a BATCH the oversized line consumes one announced row, so
     the body keeps its framing and the shortfall is reported. *)
  match feed_all [ "AUTH t\nBATCH 2\n" ^ big ^ "\n1,C,2,3\n" ] with
  | [
      Session.Op (Session.Auth "t");
      Session.Op (Session.Ingest { rows = [ "1,C,2,3" ]; announced = Some 2 });
    ] ->
      ()
  | _ -> Alcotest.fail "oversized batch row must keep framing"

let test_session_truncated_batch () =
  let s = Session.create () in
  let effects = Session.feed s "AUTH t\nBATCH 3\n1,C,2,3\n2,D,0,4\n" in
  Alcotest.(check int) "no ingest yet" 1 (List.length effects);
  Alcotest.(check bool) "still owed rows" true (Session.in_batch s);
  match Session.feed s "3,E,1,5\n" with
  | [ Session.Op (Session.Ingest { rows; announced = Some 3 }) ] ->
      Alcotest.(check (list string))
        "rows in order"
        [ "1,C,2,3"; "2,D,0,4"; "3,E,1,5" ]
        rows
  | _ -> Alcotest.fail "third row must complete the batch"

(* Chunking invariance: the same bytes produce the same effects no
   matter how they are split. *)
let gen_script_and_cuts =
  QCheck.Gen.(
    let line =
      oneofl
        [
          "AUTH t"; "PING"; "SUBSCRIBE"; "METRICS"; "BATCH 2"; "1,C,2,3";
          "2,D,0,4"; "garbage here"; ""; "EVENT 1,C,2,3"; "UNREGISTER q";
        ]
    in
    let* lines = list_size (int_range 1 12) line in
    let script = String.concat "\n" lines ^ "\n" in
    let* cuts =
      list_size (int_bound 6) (int_bound (max 1 (String.length script - 1)))
    in
    return (script, List.sort_uniq Int.compare cuts))

let chunks_of script cuts =
  let n = String.length script in
  let cuts = List.filter (fun c -> c > 0 && c < n) cuts @ [ n ] in
  let rec go start = function
    | [] -> []
    | c :: tl -> String.sub script start (c - start) :: go c tl
  in
  go 0 cuts

let session_chunking_invariant =
  QCheck.Test.make ~count:200 ~name:"session effects are chunking-invariant"
    (QCheck.make
       ~print:(fun (s, c) ->
         Printf.sprintf "%S cut at %s" s
           (String.concat "," (List.map string_of_int c)))
       gen_script_and_cuts)
    (fun (script, cuts) ->
      feed_all [ script ] = feed_all (chunks_of script cuts))

(* ---- runtime helpers ---- *)

let take_lines rt id =
  List.filter (fun l -> l <> "")
    (String.split_on_char '\n' (Runtime.take_output rt id))

let send rt id line = Runtime.input rt id (line ^ "\n")

let q_join =
  "PATTERN (c) -> (d) WHERE c.L = 'C' AND d.L = 'D' AND c.ID = d.ID WITHIN 8"

let q_pair = "PATTERN (c) -> (d) WHERE c.L = 'C' AND d.L = 'D' WITHIN 5"

(* The whole observable exchange, pinned: barriers make STATS counts
   deterministic, the match streams in the drain whose event closes its
   window (EVENT 9,C,0,50 — as per-event [Engine.feed] emits it), and
   UNREGISTER flushes the finalized RESULT. *)
let test_runtime_golden () =
  let rt = Runtime.create (Runtime.default_config ~schema) in
  let id = Runtime.add_conn rt in
  List.iter (send rt id)
    [
      "AUTH acme"; "SUBSCRIBE"; "REGISTER q1 " ^ q_join; "EVENT 1,C,5,2";
      "EVENT 1,D,6,4"; "EVENT 9,C,0,50"; "METRICS"; "EVENT 9,X,0,51";
      "METRICS"; "UNREGISTER q1"; "QUIT";
    ];
  Alcotest.(check (list string))
    "exchange"
    [
      "OK tenant acme";
      "OK subscribed";
      "OK registered q1";
      "MATCH acme q1 {c/e1, d/e2}";
      "STATS tenant=acme queries=1 events=3 queued=0 dropped=0 matches=1 \
       connections=1";
      "STATS tenant=acme queries=1 events=4 queued=0 dropped=0 matches=1 \
       connections=1";
      "RESULT acme q1 {c/e1, d/e2}";
      "OK unregistered q1 matches=1";
      "BYE";
    ]
    (take_lines rt id);
  Alcotest.(check bool) "closing after QUIT" true (Runtime.is_closing rt id)

(* MATCH and RESULT go to subscribers only; the issuer still gets its
   OK acknowledgements. *)
let test_runtime_broadcast () =
  let rt = Runtime.create (Runtime.default_config ~schema) in
  let sub = Runtime.add_conn rt in
  let pub = Runtime.add_conn rt in
  send rt sub "AUTH acme";
  send rt sub "SUBSCRIBE";
  send rt pub "AUTH acme";
  send rt pub ("REGISTER q1 " ^ q_join);
  send rt pub "BATCH 3";
  Runtime.input rt pub "1,C,5,2\n1,D,6,4\n9,C,0,50\n";
  send rt pub "METRICS";
  send rt pub "EVENT 9,X,0,51";
  send rt pub "METRICS";
  send rt pub "UNREGISTER q1";
  let pub_lines = take_lines rt pub in
  let sub_lines = take_lines rt sub in
  Alcotest.(check bool)
    "issuer sees no MATCH/RESULT" true
    (List.for_all
       (fun l ->
         (not (String.length l >= 5 && String.sub l 0 5 = "MATCH"))
         && not (String.length l >= 6 && String.sub l 0 6 = "RESULT"))
       pub_lines);
  Alcotest.(check bool)
    "issuer acknowledged" true
    (List.mem "OK unregistered q1 matches=1" pub_lines);
  Alcotest.(check (list string))
    "subscriber stream"
    [ "OK tenant acme"; "OK subscribed"; "MATCH acme q1 {c/e1, d/e2}";
      "RESULT acme q1 {c/e1, d/e2}" ]
    sub_lines

(* ---- backpressure ---- *)

let small_cfg overflow =
  {
    (Runtime.default_config ~schema) with
    Runtime.queue_capacity = 4;
    overflow;
    drain_quota = 100;
  }

let batch_lines n =
  Printf.sprintf "BATCH %d" n
  :: List.init n (fun i -> Printf.sprintf "%d,C,0,%d" i (i + 1))

let test_backpressure_block () =
  let rt = Runtime.create (small_cfg Runtime.Block) in
  let id = Runtime.add_conn rt in
  send rt id "AUTH a";
  List.iter (send rt id) (batch_lines 10);
  let lines = take_lines rt id in
  Alcotest.(check bool) "SLOW sent" true (List.mem "SLOW" lines);
  Alcotest.(check bool) "reading paused" false (Runtime.want_read rt id);
  Runtime.tick rt;
  let lines = take_lines rt id in
  Alcotest.(check bool) "RESUME sent" true (List.mem "RESUME" lines);
  Alcotest.(check bool) "reading resumed" true (Runtime.want_read rt id)

let test_backpressure_drop () =
  let rt = Runtime.create (small_cfg Runtime.Drop_oldest) in
  let id = Runtime.add_conn rt in
  send rt id "AUTH a";
  List.iter (send rt id) (batch_lines 10);
  Alcotest.(check bool)
    "drop mode keeps reading" true
    (Runtime.want_read rt id);
  send rt id "METRICS";
  let stats =
    List.find
      (fun l -> String.length l >= 5 && String.sub l 0 5 = "STATS")
      (take_lines rt id)
  in
  Alcotest.(check bool)
    "six oldest dropped" true
    (String.length stats >= 9
    &&
    match Protocol.parse_reply stats with
    | Ok (Protocol.Stats kvs) ->
        List.assoc "dropped" kvs = "6" && List.assoc "queued" kvs = "0"
    | _ -> false)

let test_idle_timeout () =
  let cfg =
    { (Runtime.default_config ~schema) with Runtime.idle_timeout = 5. }
  in
  let rt = Runtime.create cfg in
  let id = Runtime.add_conn ~now:0. rt in
  Runtime.input ~now:1. rt id "PING\n";
  Runtime.tick ~now:3. rt;
  Alcotest.(check bool) "still open" false (Runtime.is_closing rt id);
  Runtime.tick ~now:7. rt;
  let lines = take_lines rt id in
  Alcotest.(check bool) "timed out" true (Runtime.is_closing rt id);
  Alcotest.(check bool)
    "ERR then BYE" true
    (List.mem "ERR idle timeout" lines && List.mem "BYE" lines)

(* ---- differential vs an offline Multi ---- *)

(* A random chronological stream is partitioned into random chunks
   (EVENT lines or BATCH bodies). Each query registers at one chunk
   boundary and unregisters at a later one; the RESULT lines the live
   runtime emits must equal the finalized matches of a fresh offline
   [Multi] fed exactly that window of the stream (same seq numbers, so
   the rendered substitutions are byte-identical). *)

let labels = [| "C"; "D"; "E" |]

let gen_diff =
  QCheck.Gen.(
    let* n = int_range 6 40 in
    let* steps = list_repeat n (pair (int_bound 2) (int_bound 2)) in
    let* chunk_seed = list_repeat n (int_bound 3) in
    let* a0 = int_bound 6 and* a1 = int_bound 6 in
    let* b0 = int_bound 8 and* b1 = int_bound 8 in
    return (steps, chunk_seed, (a0, a1), (b0, b1)))

let rows_of_steps steps =
  let ts = ref 0 in
  List.mapi
    (fun i (lbl, dt) ->
      ts := !ts + dt;
      Printf.sprintf "%d,%s,%d,%d" (i mod 3) labels.(lbl) i !ts)
    steps

(* Random chunking: chunk_seed.(i) = 0 starts a new chunk at i. *)
let chunks_of_rows rows seed =
  List.fold_left2
    (fun acc row s ->
      match acc with
      | cur :: tl when s <> 0 -> (row :: cur) :: tl
      | _ -> [ row ] :: acc)
    [] rows seed
  |> List.rev_map List.rev

let offline_window query rows lo hi =
  let pattern =
    Result.get_ok (Ses_lang.Lang.parse_pattern schema query)
  in
  let automaton = Automaton.of_pattern pattern in
  let m = Multi.create_mixed [ ("q", automaton, `Plain) ] in
  List.iteri
    (fun i row ->
      if i >= lo && i < hi then
        match Ses_store.Csv_stream.row_of_line schema ~seq:i row with
        | Ok e -> ignore (Multi.feed m e)
        | Error msg -> Alcotest.failf "offline row %d: %s" i msg)
    rows;
  let outcome = Multi.unregister m "q" in
  List.map
    (fun s -> Format.asprintf "%a" (Substitution.pp pattern) s)
    outcome.Engine.matches

let runtime_matches_offline =
  QCheck.Test.make ~count:60 ~name:"live RESULT lines = offline Multi window"
    (QCheck.make gen_diff)
    (fun (steps, chunk_seed, (a0, a1), (b0, b1)) ->
      let rows = rows_of_steps steps in
      let chunks = chunks_of_rows rows chunk_seed in
      let n_chunks = List.length chunks in
      let clamp x = min x n_chunks in
      (* register at chunk [a], unregister at chunk [b] (b = n_chunks
         means "at the end, before QUIT"). *)
      let queries =
        [
          ("q0", q_join, clamp a0, max (clamp a0) (clamp (a0 + b0)));
          ("q1", q_pair, clamp a1, max (clamp a1) (clamp (a1 + b1)));
        ]
      in
      let rt = Runtime.create (Runtime.default_config ~schema) in
      let id = Runtime.add_conn rt in
      send rt id "AUTH t";
      send rt id "SUBSCRIBE";
      let boundary_action at =
        List.iter
          (fun (name, text, a, b) ->
            if b = at && b > a then send rt id ("UNREGISTER " ^ name);
            if a = at then send rt id ("REGISTER " ^ name ^ " " ^ text))
          queries
      in
      List.iteri
        (fun ci chunk ->
          boundary_action ci;
          (match chunk with
          | [ row ] -> send rt id ("EVENT " ^ row)
          | rows ->
              send rt id (Printf.sprintf "BATCH %d" (List.length rows));
              List.iter (send rt id) rows);
          Runtime.tick rt)
        chunks;
      boundary_action n_chunks;
      send rt id "QUIT";
      let lines = take_lines rt id in
      List.iter
        (fun l ->
          if String.length l >= 3 && String.sub l 0 3 = "ERR" then
            QCheck.Test.fail_reportf "unexpected error line %S" l)
        lines;
      (* chunk boundary -> event index *)
      let starts =
        let idx = ref 0 in
        List.map
          (fun c ->
            let s = !idx in
            idx := !idx + List.length c;
            s)
          chunks
        @ [ List.length rows ]
      in
      let ev_of_boundary b = List.nth starts b in
      List.for_all
        (fun (name, text, a, b) ->
          if b <= a then true
          else begin
            let expected =
              offline_window text rows (ev_of_boundary a) (ev_of_boundary b)
            in
            let prefix = Printf.sprintf "RESULT t %s " name in
            let np = String.length prefix in
            let got =
              List.filter_map
                (fun l ->
                  if String.length l >= np && String.sub l 0 np = prefix then
                    Some (String.sub l np (String.length l - np))
                  else None)
                lines
            in
            if
              List.equal String.equal
                (List.sort String.compare got)
                (List.sort String.compare expected)
            then true
            else
              QCheck.Test.fail_reportf
                "%s window [%d,%d): live %s vs offline %s" name
                (ev_of_boundary a) (ev_of_boundary b)
                (String.concat "; " got)
                (String.concat "; " expected)
          end)
        queries)

let suite =
  [
    Alcotest.test_case "session: auth gate" `Quick test_session_auth_gate;
    Alcotest.test_case "session: quit" `Quick test_session_quit;
    Alcotest.test_case "session: crlf" `Quick test_session_crlf;
    Alcotest.test_case "session: oversized lines" `Quick
      test_session_oversized;
    Alcotest.test_case "session: truncated batch" `Quick
      test_session_truncated_batch;
    Alcotest.test_case "runtime: golden exchange" `Quick test_runtime_golden;
    Alcotest.test_case "runtime: subscriber broadcast" `Quick
      test_runtime_broadcast;
    Alcotest.test_case "runtime: block backpressure" `Quick
      test_backpressure_block;
    Alcotest.test_case "runtime: drop-oldest backpressure" `Quick
      test_backpressure_drop;
    Alcotest.test_case "runtime: idle timeout" `Quick test_idle_timeout;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ session_chunking_invariant; runtime_matches_offline ]
