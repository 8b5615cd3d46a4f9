(* The five workloads: their inputs, generated from the seed, and the
   reference outputs every run is checked against. Both are made before
   any timing starts and cached on disk per workload, seed and digest of
   the inputs, since the reference costs as much as the engine work it
   checks.

   The reference is the plain engine ([Executor.run `Plain]) over exactly
   the rows the system under test saw: no index, no partitioning, no
   shared plan — none of the machinery the measured paths may use. *)

open Ses_event
open Ses_core
module Rw = Ses_gen.Random_workload

type size = Full | Quick

(* A query as the server sees it: registered before row [from_row] of its
   tenant's stream, unregistered after row [until_row - 1]. *)
type query = {
  qname : string;
  text : string;
  tau : int;
  from_row : int;
  until_row : int;
}

type tenant = {
  tname : string;
  rows : string array;  (** CSV rows as sent, timestamp last *)
  ts : int array;
  queries : query list;  (** in registration order *)
}

type loop =
  | Closed of { frame : int; window : int }
      (** BATCH size, and how many frames may await their OK *)
  | Open of { rate : float; tick : float }
      (** rows/s per tenant, and the driver's wake-up period in s *)

type serve_input = {
  tenants : tenant list;
  loop : loop;
  expected : (string * string) list;  (** sorted (tenant.query, match) *)
}

type match_input = {
  query : string;
  data : string;  (** the CSV file *)
  header_only : string;  (** the same header with no rows *)
  rows : int;
  expected_matches : string list;  (** sorted rendered substitutions *)
}

type input = Match of match_input | Serve of serve_input

let render pattern subst = Format.asprintf "%a" (Substitution.pp pattern) subst

(* Finalized matches of [text] over [events], rendered and sorted. *)
let reference schema text events =
  let pattern = Ses_lang.Lang.parse_pattern_exn schema text in
  let outcome =
    Executor.run `Plain (Automaton.of_pattern pattern) events
  in
  List.sort String.compare
    (List.map (render pattern) outcome.Engine.matches)

(* ---- on-disk cache ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_lines path lines =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      List.iter
        (fun l ->
          Out_channel.output_string oc l;
          Out_channel.output_char oc '\n')
        lines);
  Sys.rename tmp path

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.equal l ""))

(* A cache entry's directory: the workload, the seed and a digest of
   everything else the reference depends on, so an entry made by another
   version of a generator is never reused. *)
let entry cache ~workload ~seed parts =
  Filename.concat cache
    (Printf.sprintf "%s-%d-%s" workload seed
       (String.sub (Digest.to_hex (Digest.string (String.concat "\n" parts))) 0 12))

(* [expected.txt] is written last, so its presence marks a complete
   entry; anything else in the directory is rebuilt. *)
let cached dir ~build =
  let expected = Filename.concat dir "expected.txt" in
  if Sys.file_exists expected then read_lines expected
  else begin
    mkdir_p dir;
    let lines = build () in
    write_lines expected lines;
    lines
  end

(* ---- match workloads ---- *)

let q1 =
  "PATTERN (c, p+, d) -> (b) WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND \
   b.L = 'B' AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID WITHIN 264"

let p3 =
  "PATTERN (c, d, p+) -> (b) WHERE c.L = 'P' AND d.L = 'P' AND p.L = 'P' AND \
   b.L = 'B' WITHIN 264"

let scan_query =
  "PATTERN (a) -> (b) WHERE a.L = 'a' AND b.L = 'b' AND a.V >= 4 AND b.V >= 4 \
   AND a.ID = b.ID WITHIN 4"

let row_text id label v ts =
  Printf.sprintf "%d,%s,%d,%d" id (Ses_store.Csv.escape_field label) v ts

let int_of = function Value.Int i -> i | _ -> invalid_arg "int column"

let str_of = function Value.Str s -> s | _ -> invalid_arg "string column"

let write_header_only path schema =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Ses_store.Csv.header_of_schema schema ^ "\n"))

(* [Random_workload.duplicated_relation], streamed: the same rows (each
   base event copied [copies] times at its own timestamp, ids shifted into
   disjoint per-copy ranges) without materializing two million events. *)
let duplicated_events base ~copies ~n_ids =
  Seq.flat_map
    (fun e ->
      let id = int_of (Event.attr e 0) in
      Seq.init copies (fun c ->
          let payload = Array.copy e.Event.payload in
          payload.(0) <- Value.Int (id + (c * n_ids));
          (payload, Event.ts e)))
    (Relation.to_seq base)
  |> Seq.mapi (fun seq (payload, ts) -> Event.make ~seq ~ts payload)

let scan_input ~cache ~size ~seed =
  let copies = match size with Full -> 128 | Quick -> 8 in
  let spec =
    {
      Rw.n_events = 4000;
      n_labels = 26;
      n_ids = 4;
      min_gap = 2;
      max_gap = 3;
      max_value = 5;
    }
  in
  let dir =
    entry cache ~workload:"match_scan" ~seed [ scan_query; string_of_int copies ]
  in
  let data = Filename.concat dir "data.csv" in
  let header_only = Filename.concat dir "header.csv" in
  let events () =
    let base = Rw.relation (Ses_gen.Prng.create (Int64.of_int seed)) spec in
    duplicated_events base ~copies ~n_ids:spec.n_ids
  in
  let expected =
    cached dir ~build:(fun () ->
        Out_channel.with_open_bin data (fun oc ->
            Out_channel.output_string oc
              (Ses_store.Csv.header_of_schema Rw.schema ^ "\n");
            Seq.iter
              (fun e ->
                let a = Event.attr e in
                Out_channel.output_string oc
                  (row_text (int_of (a 0)) (str_of (a 1)) (int_of (a 2))
                     (Event.ts e));
                Out_channel.output_char oc '\n')
              (events ()));
        write_header_only header_only Rw.schema;
        reference Rw.schema scan_query (events ()))
  in
  {
    query = scan_query;
    data;
    header_only;
    rows = spec.n_events * copies;
    expected_matches = expected;
  }

let chemo_input ~cache ~name ~query ~patients ~seed =
  let dir = entry cache ~workload:name ~seed [ query; string_of_int patients ] in
  let data = Filename.concat dir "data.csv" in
  let header_only = Filename.concat dir "header.csv" in
  let relation () =
    Ses_gen.Chemo.generate
      { Ses_gen.Chemo.default with seed = Int64.of_int seed; patients }
  in
  let expected =
    cached dir ~build:(fun () ->
        let r = relation () in
        (match Ses_store.Csv.save data r with
        | Ok () -> ()
        | Error msg -> failwith msg);
        write_header_only header_only (Relation.schema r);
        reference (Relation.schema r) query (Relation.to_seq r))
  in
  let rows = Ses_store.Csv_stream.count data |> Result.get_ok in
  { query; data; header_only; rows; expected_matches = expected }

(* ---- serve workloads ---- *)

let letter i = String.make 1 (Char.chr (Char.code 'a' + i))

let tenant_rows rng spec =
  let r = Rw.relation rng spec in
  let events = Relation.events r in
  ( events,
    Array.map
      (fun e ->
        let a = Event.attr e in
        row_text (int_of (a 0)) (str_of (a 1)) (int_of (a 2)) (Event.ts e))
      events,
    Array.map Event.ts events )

(* Expected RESULT lines: each query over the rows it saw, keyed
   "tenant.query" so two tenants' same-named queries stay apart. *)
(* What a serve reference depends on: every row and every query with the
   rows it sees. *)
let tenant_parts t =
  t.tname
  :: (Array.to_list t.rows
     @ List.map
         (fun q -> Printf.sprintf "%s %d %d %s" q.qname q.from_row q.until_row q.text)
         t.queries)

(* [List.map f] on two domains. The references are made before any
   timing starts, while both cores are free, and each query's engine run
   is independent of the others'. *)
let parallel_map f l =
  let half k = List.filteri (fun i _ -> i mod 2 = k) l in
  let other = Domain.spawn (fun () -> List.map f (half 1)) in
  let mine = List.map f (half 0) in
  let rec interleave a b =
    match (a, b) with
    | x :: a', y :: b' -> x :: y :: interleave a' b'
    | rest, [] | [], rest -> rest
  in
  interleave mine (Domain.join other)

let serve_expected tname (events : Event.t array) queries =
  let parsed =
    List.map (fun q -> (q, Ses_lang.Lang.parse_pattern_exn Rw.schema q.text)) queries
  in
  let outcomes =
    parallel_map
      (fun (q, pattern) ->
        Executor.run `Plain (Automaton.of_pattern pattern)
          (Array.to_seq (Array.sub events q.from_row (q.until_row - q.from_row))))
      parsed
  in
  List.concat
    (List.map2
       (fun (q, pattern) (o : Engine.outcome) ->
         List.map
           (fun s -> tname ^ "." ^ q.qname ^ "\t" ^ render pattern s)
           o.Engine.matches)
       parsed outcomes)

let bulk_queries =
  [
    "PATTERN (a) -> (b) WHERE a.L='a' AND b.L='b' AND a.ID=b.ID WITHIN 200";
    "PATTERN (a, c) -> (d) WHERE a.L='a' AND c.L='c' AND d.L='d' AND \
     a.ID=c.ID AND a.ID=d.ID AND c.ID=d.ID WITHIN 200";
    "PATTERN (e, f+) -> (g) WHERE e.L='e' AND f.L='f' AND g.L='g' AND \
     e.ID=f.ID AND e.ID=g.ID AND f.ID=g.ID WITHIN 200";
    "PATTERN (h) -> NOT (x) -> (i) WHERE h.L='h' AND i.L='i' AND x.L='x' AND \
     h.ID=i.ID AND h.ID=x.ID WITHIN 200";
  ]

let split_expected lines =
  List.map
    (fun l ->
      match String.index_opt l '\t' with
      | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
      | None -> invalid_arg ("malformed cached reference line: " ^ l))
    lines

let bulk_input ~cache ~size ~seed =
  let n = match size with Full -> 125_000 | Quick -> 5_000 in
  let spec =
    { Rw.n_events = n; n_labels = 26; n_ids = 64; min_gap = 0; max_gap = 2;
      max_value = 9 }
  in
  let events, rows, ts = tenant_rows (Ses_gen.Prng.create (Int64.of_int seed)) spec in
  let queries =
    List.mapi
      (fun i text ->
        { qname = Printf.sprintf "q%d" (i + 1); text; tau = 200; from_row = 0;
          until_row = n })
      bulk_queries
  in
  let tenant = { tname = "bulk"; rows; ts; queries } in
  let dir = entry cache ~workload:"serve_bulk" ~seed (tenant_parts tenant) in
  let expected = cached dir ~build:(fun () -> serve_expected "bulk" events queries) in
  {
    tenants = [ tenant ];
    (* Eight 256-row frames in flight exceed the server's 1024-row queue,
       so the server never waits for input. *)
    loop = Closed { frame = 256; window = 8 };
    expected = split_expected expected;
  }

(* Three distinct labels, so every drawn pattern's sets are mutually
   exclusive (Theorem 1's case): no query can blow up the instance pool
   and drown the routing cost the workload is meant to measure. *)
let three_labels rng ~label =
  let a = Ses_gen.Prng.int rng 26 in
  let b = (a + 1 + Ses_gen.Prng.int rng 25) mod 26 in
  let rec third () =
    let c = Ses_gen.Prng.int rng 26 in
    if c = a || c = b then third () else c
  in
  (label a, label b, label (third ()))

(* The [i]th query of a tenant's mix: 24 of template A, 24 of template B,
   then 16 non-templated ones rotating through four shapes; the fresh
   queries churned in later continue the same rotation. [rng] draws the
   structure over label indices; [label] names them. *)
let mixed_query rng ~label i =
  let l1, l2, l3 = three_labels rng ~label in
  let slot = i mod 64 in
  if slot < 24 then
    ( Printf.sprintf
        "PATTERN (p) -> (s) WHERE p.L='%s' AND s.L='%s' AND p.ID=s.ID WITHIN 120"
        l1 l2,
      120 )
  else if slot < 48 then
    ( Printf.sprintf
        "PATTERN (p, s) -> (r) WHERE p.L='%s' AND s.L='%s' AND r.L='%s' AND \
         r.V >= %d AND p.ID=s.ID AND p.ID=r.ID AND s.ID=r.ID WITHIN 160"
        l1 l2 l3 (Ses_gen.Prng.int rng 10),
      160 )
  else
    let tau = 80 + Ses_gen.Prng.int rng 121 in
    match slot mod 4 with
    | 0 ->
        ( Printf.sprintf
            "PATTERN (x, y+) -> (z) WHERE x.L='%s' AND y.L='%s' AND z.L='%s' \
             AND x.ID=y.ID AND x.ID=z.ID AND y.ID=z.ID WITHIN %d"
            l1 l2 l3 tau,
          tau )
    | 1 ->
        ( Printf.sprintf
            "PATTERN (x) -> NOT (n) -> (z) WHERE x.L='%s' AND n.L='%s' AND \
             z.L='%s' AND x.ID=z.ID AND x.ID=n.ID WITHIN %d"
            l1 l2 l3 tau,
          tau )
    | 2 ->
        ( Printf.sprintf
            "PATTERN (x, y, w) WHERE x.L='%s' AND y.L='%s' AND w.L='%s' AND \
             w.V <= 2 AND x.ID=y.ID AND x.ID=w.ID WITHIN %d"
            l1 l2 l3 tau,
          tau )
    | _ ->
        ( Printf.sprintf
            "PATTERN (x) -> (y) -> (z) WHERE x.L='%s' AND y.L='%s' AND \
             z.L='%s' AND x.V > y.V AND x.ID=y.ID AND y.ID=z.ID WITHIN %d"
            l1 l2 l3 tau,
          tau )

let mixed_rate = 5000.

(* Each tenant's stream lasts the run's [seconds] at [mixed_rate]; every
   [churn] rows the oldest live query is unregistered and a fresh one
   registered in its place.

   A tenant's query set has a fixed structure — which queries share a
   label, their windows and thresholds — drawn from a constant stream
   over label indices; the seed permutes the 26 labels and draws the rows.
   Every seed thus poses the same routing and sharing problem on other
   data, and the cost does not swing with a lucky draw of shared labels.

   The queries are all distinct: the shared plan aliases byte-identical
   registrations onto one executor, and unregistering one of two aliases
   drops the matches still pending in that executor, so a duplicate would
   fail the run on a known defect rather than measure it. *)
let mixed_input ~cache ~size ~seed ~seconds =
  let n = int_of_float (mixed_rate *. seconds) in
  let churn = match size with Full -> 20_000 | Quick -> 500 in
  let rng = Ses_gen.Prng.create (Int64.of_int seed) in
  let spec =
    { Rw.n_events = n; n_labels = 26; n_ids = 64; min_gap = 0; max_gap = 2;
      max_value = 9 }
  in
  let tenants =
    List.mapi
      (fun k tname ->
        let events, rows, ts = tenant_rows rng spec in
        let perm = Array.of_list (Ses_gen.Prng.shuffle rng (List.init 26 Fun.id)) in
        let label i = letter perm.(i) in
        let structure = Ses_gen.Prng.create (Int64.of_int (0x5E5 + k)) in
        let used = Hashtbl.create 128 in
        let rec distinct i =
          let text, tau = mixed_query structure ~label i in
          if Hashtbl.mem used text then distinct i
          else begin
            Hashtbl.add used text ();
            (text, tau)
          end
        in
        let make i ~from_row =
          let text, tau = distinct i in
          { qname = Printf.sprintf "q%d" i; text; tau; from_row; until_row = n }
        in
        let initial = List.init 64 (fun i -> make i ~from_row:0) in
        (* Churn: retire the oldest live query at each boundary. *)
        let rec churn_at b live retired next =
          if b >= n then List.rev_append retired live
          else
            match live with
            | [] -> List.rev retired
            | oldest :: rest ->
                let fresh = make next ~from_row:b in
                churn_at (b + churn) (rest @ [ fresh ])
                  ({ oldest with until_row = b } :: retired)
                  (next + 1)
        in
        let queries =
          churn_at churn initial [] 64
          |> List.sort (fun a b ->
                 let c = Int.compare a.from_row b.from_row in
                 if c <> 0 then c else String.compare a.qname b.qname)
        in
        (tname, events, { tname; rows; ts; queries }))
      [ "t1"; "t2" ]
  in
  let dir =
    entry cache ~workload:"serve_mixed" ~seed
      (List.concat_map (fun (_, _, t) -> tenant_parts t) tenants)
  in
  let expected =
    cached dir ~build:(fun () ->
        List.concat_map
          (fun (tname, events, t) -> serve_expected tname events t.queries)
          tenants)
  in
  {
    tenants = List.map (fun (_, _, t) -> t) tenants;
    loop = Open { rate = mixed_rate; tick = 0.001 };
    expected = split_expected expected;
  }

let prepare name ~cache ~size ~seed ~seconds =
  match name with
  | "match_scan" -> Match (scan_input ~cache ~size ~seed)
  | "match_q1" ->
      Match
        (chemo_input ~cache ~name ~query:q1
           ~patients:(match size with Full -> 120 | Quick -> 20)
           ~seed)
  | "match_case3" ->
      Match
        (chemo_input ~cache ~name ~query:p3
           ~patients:(match size with Full -> 7 | Quick -> 3)
           ~seed)
  | "serve_bulk" -> Serve (bulk_input ~cache ~size ~seed)
  | "serve_mixed" -> Serve (mixed_input ~cache ~size ~seed ~seconds)
  | other -> failwith ("no workload named " ^ other)
