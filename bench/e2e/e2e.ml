(* The repository benchmark: five workloads run the built [ses] binary
   end to end, as a user would — [ses match] over a CSV file, [ses serve]
   on loopback driven over TCP — and check every output against a
   reference computed in-process. A traced run replays the same workload
   in-process and splits its time by layer. BENCHMARK.json is the
   metric catalogue: a run emits exactly the metrics listed there, with
   their units.

   Usage:
     e2e.exe --workload NAME --seed N --seconds S --trace 0|1
             [--quick] [--ses PATH] [--cache DIR] [--benchmark FILE]
             [--out FILE]
     e2e.exe compare A.jsonl B.jsonl [--benchmark FILE]
     e2e.exe smoke [--ses PATH] [--cache DIR] [--benchmark FILE]

   A run prints progress on stderr and, as the last line of stdout, one
   JSON object {correct, attempted, failed, metrics}. With [--out] it
   also appends a full record (provenance, per-unit samples, quartiles,
   failures) to FILE as one JSON line; [compare] reads two such files. *)

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s)) fmt

(* ---- the metric catalogue ---- *)

type metric = { name : string; unit_ : string; lower_better : bool; bound : float }

type catalogue = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let load_catalogue path =
  match Json.read_file path with
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  | Ok j ->
      let metrics key =
        List.map
          (fun m ->
            let str k =
              match Json.to_str (Json.member k m) with
              | Some s -> s
              | None -> failwith (Printf.sprintf "%s: %s entry lacks %S" path key k)
            in
            {
              name = str "name";
              unit_ = str "unit";
              lower_better = not (String.equal (str "better") "higher");
              bound = Option.value (Json.to_num (Json.member "bound" m)) ~default:0.;
            })
          (Json.to_list (Json.member key j))
      in
      {
        workloads =
          List.filter_map
            (fun w -> Json.to_str (Json.member "name" w))
            (Json.to_list (Json.member "workloads" j));
        end_to_end = metrics "end_to_end";
        per_layer = metrics "per_layer";
      }

(* ---- one run ---- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  samples : (string * float list) list;  (** per measured unit *)
  units : int;  (** invocations or sessions measured *)
  failures : string list;
}

(* Repeats [f] until [seconds] are spent — starting no unit that would
   end past it by its typical duration — and at least [min_units] times. *)
let measure_units ~seconds ~min_units f =
  let t0 = Proc.now () in
  let rec go acc durations =
    let typical = match durations with [] -> 0. | d -> Stats.median d in
    if List.length acc >= min_units && Proc.now () -. t0 +. typical > seconds
    then List.rev acc
    else
      let t = Proc.now () in
      let r = f () in
      go (r :: acc) ((Proc.now () -. t) :: durations)
  in
  go [] []

(* Set-ups measured per run, after [setup_warmup] unmeasured ones: the
   first spawns after the driver's own set-up run up to 40% slower, a cost
   no user pays on every invocation. *)
let setup_repeats = 9

let setup_warmup = 2

let drop n l = List.filteri (fun i _ -> i >= n) l

(* The run's values: each metric's median over the measured units, except
   the latency, whose median is taken over all samples pooled. *)
let summarize samples ~latency =
  List.map
    (fun (name, l) ->
      (name, if String.equal name "latency_p50_ms" then latency else Stats.median l))
    samples

type tally = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let tally () = { attempted = 0; failed = 0; failures = [] }

let fail t n fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + n;
      t.failures <- msg :: t.failures;
      log "FAIL: %s" msg)
    fmt

let sorted_equal a b = List.equal String.equal (List.sort String.compare a) (List.sort String.compare b)

(* The first few lines each side has and the other lacks, for a failure
   message. *)
let diff ~want ~have =
  let minus a b =
    List.filter (fun x -> not (List.exists (String.equal x) b)) a
  in
  let first l = String.concat " " (List.filteri (fun i _ -> i < 3) l) in
  Printf.sprintf "missing: [%s] unexpected: [%s]" (first (minus want have))
    (first (minus have want))

let latency_metrics samples =
  let n = List.length samples in
  let p, v =
    match Stats.tail samples with
    | Some pv -> pv
    | None -> (100., List.fold_left Float.max 0. samples)
  in
  [
    ("driver.latency_samples", float_of_int n);
    ("driver.latency_tail_ms", v);
    ("driver.latency_tail_pct", p);
  ]

let p50 = function
  | [] -> Float.nan
  | l -> Stats.percentile_sorted (Stats.sorted l) 50.

(* -- ses match -- *)

let match_lines (r : Proc.finished) =
  List.filter_map
    (fun (l : Proc.line) ->
      if String.starts_with ~prefix:"  {" l.text then
        Some (String.sub l.text 2 (String.length l.text - 2), l.at)
      else None)
    r.lines

let invoke_match ~ses ~query data = Proc.run ses [ "match"; "-d"; data; "-q"; query ]

let check_match t ~what ~expected (r : Proc.finished) =
  t.attempted <- t.attempted + 1;
  let got = List.map fst (match_lines r) in
  if r.usage.status <> 0 then fail t 1 "%s: ses match exited %d" what r.usage.status
  else if not (sorted_equal got expected) then
    fail t 1 "%s: %d matches, the reference has %d; %s" what (List.length got)
      (List.length expected) (diff ~want:expected ~have:got)

(* A file's rows are all due when ses match starts, so a result line's
   latency is its arrival time. The "matches: N" header counts as one: it
   delivers the result even when the result is empty. *)
let match_latencies (r : Proc.finished) =
  List.filter_map
    (fun (l : Proc.line) ->
      if
        String.starts_with ~prefix:"matches: " l.text
        || String.starts_with ~prefix:"  {" l.text
      then
        Some ((l.at -. r.spawned) *. 1000.)
      else None)
    r.lines

let match_e2e ~ses ~seconds (m : Workload.match_input) =
  let t = tally () in
  let setups =
    List.init (setup_warmup + setup_repeats) (fun _ ->
        let r = invoke_match ~ses ~query:m.query m.header_only in
        check_match t ~what:"header-only" ~expected:[] r;
        r)
    |> drop setup_warmup
  in
  (* One unmeasured invocation on the data, so the first measured one does
     not pay for a cold page cache and a cold allocator. *)
  check_match t ~what:"warm-up" ~expected:m.expected_matches
    (invoke_match ~ses ~query:m.query m.data);
  let runs =
    measure_units ~seconds ~min_units:3 (fun () ->
        let r = invoke_match ~ses ~query:m.query m.data in
        check_match t ~what:"match" ~expected:m.expected_matches r;
        log "invocation: %.3f s, %d matches" (r.exited -. r.spawned)
          (List.length (match_lines r));
        r)
  in
  let wall (r : Proc.finished) = r.exited -. r.spawned in
  let per f = List.map f runs in
  let samples =
    [
      ("setup_s", List.map wall setups);
      ("wall_s", per wall);
      ("cpu_s", per (fun r -> r.usage.cpu_s));
      ("peak_rss_mb", per (fun (r : Proc.finished) -> r.peak_rss_mb));
      ("events_per_s", per (fun r -> float_of_int m.rows /. wall r));
      ("latency_p50_ms", per (fun r -> p50 (match_latencies r)));
    ]
  in
  let values = summarize samples ~latency:(p50 (List.concat_map match_latencies runs)) in
  (t, values, samples, List.length runs)

let match_traced ~ses (m : Workload.match_input) =
  let t = tally () in
  let due = Proc.now () in
  let r = invoke_match ~ses ~query:m.query m.data in
  check_match t ~what:"match" ~expected:m.expected_matches r;
  let traced = Traced.match_run m in
  t.attempted <- t.attempted + 1;
  if not (List.equal String.equal traced.outputs m.expected_matches) then
    fail t 1 "traced run: %d matches, the reference %d; %s"
      (List.length traced.outputs) (List.length m.expected_matches)
      (diff ~want:m.expected_matches ~have:traced.outputs);
  let cpu = r.usage.cpu_s in
  let values =
    traced.layers
    @ [
        ("trace.wall_s", traced.wall_s);
        ("trace.coverage", traced.coverage);
        ("trace.overhead_pct", 100. *. (traced.wall_s -. cpu) /. cpu);
        ("process.idle_frac", 1. -. (cpu /. (r.exited -. r.spawned)));
        ("queue.slow_signals", 0.);
        ("queue.dropped", 0.);
        ("runtime.output_bytes", float_of_int r.out_bytes);
        ("driver.late_p99_ms", (r.spawned -. due) *. 1000.);
      ]
    @ latency_metrics (match_latencies r)
  in
  (t, values)

(* -- ses serve -- *)

(* The smallest row number named in a substitution ("{p/e12, s/e15}"),
   0-based. *)
let first_row subst =
  let n = String.length subst in
  let rec scan i best =
    if i + 1 >= n then best
    else if Char.equal subst.[i] '/' && Char.equal subst.[i + 1] 'e' then begin
      let j = ref (i + 2) in
      while !j < n && subst.[!j] >= '0' && subst.[!j] <= '9' do
        incr j
      done;
      let v = int_of_string_opt (String.sub subst (i + 2) (!j - i - 2)) in
      scan !j
        (match (v, best) with
        | Some v, Some b -> Some (min b (v - 1))
        | Some v, None -> Some (v - 1)
        | None, b -> b)
    end
    else scan (i + 1) best
  in
  scan 0 None

(* First index whose timestamp exceeds [limit] ([ts] is sorted). *)
let first_after ts limit =
  let lo = ref 0 and hi = ref (Array.length ts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ts.(mid) > limit then hi := mid else lo := mid + 1
  done;
  !lo

(* Per MATCH line: receive time minus the due time of the first row past
   the match's window — the row whose arrival lets the engine emit it. *)
let serve_latencies (input : Workload.serve_input) (s : Serve_run.session) =
  List.concat_map
    (fun (c : Serve_run.conn) ->
      let tn = c.tenant in
      List.filter_map
        (fun (q, subst, at) ->
          match
            ( List.find_opt (fun (x : Workload.query) -> String.equal x.qname q) tn.queries,
              first_row subst )
          with
          | Some query, Some f when f < Array.length tn.ts ->
              let closing = first_after tn.ts (tn.ts.(f) + query.tau) in
              if closing >= Array.length tn.ts then None
              else
                let due =
                  match input.loop with
                  | Workload.Open { rate; _ } ->
                      s.origin +. (float_of_int closing /. rate)
                  | Workload.Closed _ -> c.sent_at.(closing)
                in
                if Float.is_finite due then Some ((at -. due) *. 1000.) else None
          | _ -> None)
        c.matches)
    s.conns

let key tenant q = tenant ^ "." ^ q

let check_session t (input : Workload.serve_input) (s : Serve_run.session) ~setup_only =
  if s.usage.status <> 0 then fail t 1 "ses serve exited %d" s.usage.status;
  t.attempted <- t.attempted + 1;
  List.iter
    (fun (c : Serve_run.conn) ->
      let tn = c.tenant.tname in
      t.attempted <- t.attempted + c.expected_acks + if setup_only then 0 else c.next_row;
      (match c.errors with
      | [] -> ()
      | errs -> fail t (List.length errs) "%s: ERR %s" tn (List.hd (List.rev errs)));
      if c.acks < c.expected_acks then
        fail t (c.expected_acks - c.acks) "%s: %d of %d replies missing" tn
          (c.expected_acks - c.acks) c.expected_acks;
      if not setup_only then begin
        let stat k = Option.bind (List.assoc_opt k c.stats) int_of_string_opt in
        (match stat "dropped" with
        | Some 0 -> ()
        | Some d -> fail t d "%s: %d rows dropped" tn d
        | None -> fail t 1 "%s: no STATS reply" tn);
        match stat "events" with
        | Some e when e = c.next_row -> ()
        | e ->
            fail t 1 "%s: server accepted %s of %d rows" tn
              (Option.fold ~none:"?" ~some:string_of_int e)
              c.next_row
      end)
    s.conns;
  if not setup_only then begin
    (* RESULT lines per query against the reference over the rows it saw. *)
    let got =
      List.concat_map
        (fun (c : Serve_run.conn) ->
          List.map (fun (q, sub) -> (key c.tenant.tname q, sub)) c.results)
        s.conns
    in
    let counts =
      List.concat_map
        (fun (c : Serve_run.conn) ->
          List.map (fun (q, m) -> (key c.tenant.tname q, m)) c.unregistered)
        s.conns
    in
    List.iter
      (fun (tn : Workload.tenant) ->
        List.iter
          (fun (q : Workload.query) ->
            let k = key tn.tname q.qname in
            let of_key l = List.filter_map (fun (k', m) -> if String.equal k k' then Some m else None) l in
            let want = of_key input.expected and have = of_key got in
            t.attempted <- t.attempted + 1;
            if not (sorted_equal want have) then
              fail t 1 "%s: %d RESULT lines, the reference has %d; %s" k
                (List.length have) (List.length want) (diff ~want ~have)
            else
              match List.assoc_opt k counts with
              | Some n when n = List.length want -> ()
              | _ -> fail t 1 "%s: UNREGISTER reported a different match count" k)
          tn.queries)
      input.tenants
  end

let run_session ~ses ~input ~setup_only ~record t =
  let s = Serve_run.run ~ses ~input ~setup_only ~record in
  check_session t input s ~setup_only;
  s

let stream_wall (s : Serve_run.session) = s.stream_end -. s.stream_start

(* What a measured session leaves behind: it is reduced to its numbers as
   soon as it is checked, so the driver's heap stays the same size from
   one session to the next. *)
type session_numbers = {
  setup : float;
  wall : float;
  cpu : float;
  rss : float;
  latencies : float list;
}

let serve_e2e ~ses ~seconds (input : Workload.serve_input) =
  let t = tally () in
  let setups =
    List.init
      (setup_warmup + setup_repeats - 1)
      (fun _ -> (run_session ~ses ~input ~setup_only:true ~record:false t).setup_s)
    |> drop setup_warmup
  in
  let sessions =
    measure_units ~seconds ~min_units:1 (fun () ->
        let s = run_session ~ses ~input ~setup_only:false ~record:false t in
        log "session: %d rows in %.3f s, server CPU %.3f s" s.rows (stream_wall s)
          s.usage.cpu_s;
        {
          setup = s.setup_s;
          wall = stream_wall s;
          cpu = s.usage.cpu_s;
          rss = s.peak_rss_mb;
          latencies = serve_latencies input s;
        })
  in
  let rows = List.fold_left (fun acc (tn : Workload.tenant) -> acc + Array.length tn.rows) 0 input.tenants in
  let per f = List.map f sessions in
  let samples =
    [
      ("setup_s", setups @ per (fun s -> s.setup));
      ("wall_s", per (fun s -> s.wall));
      ("cpu_s", per (fun s -> s.cpu));
      ("peak_rss_mb", per (fun s -> s.rss));
      ("events_per_s", per (fun s -> float_of_int rows /. s.wall));
      ("latency_p50_ms", per (fun s -> p50 s.latencies));
    ]
  in
  ( t,
    summarize samples ~latency:(p50 (List.concat_map (fun s -> s.latencies) sessions)),
    samples,
    List.length sessions )

(* The RESULT lines a session received, in the traced run's comparable
   form. Streamed MATCH lines are left out: the batched engine may hold an
   instance whose window closed mid-batch until the next sweep or close,
   so which raw emissions stream as MATCH and which only reach the final
   RESULT depends on how the input was chunked. *)
let session_results (s : Serve_run.session) =
  List.concat_map
    (fun (c : Serve_run.conn) ->
      List.map (fun (q, sub) -> "RESULT " ^ key c.tenant.tname q ^ " " ^ sub) c.results)
    s.conns
  |> List.sort String.compare

let serve_traced ~ses (input : Workload.serve_input) =
  let t = tally () in
  let s = run_session ~ses ~input ~setup_only:false ~record:true t in
  let traced = Traced.serve input s.writes in
  t.attempted <- t.attempted + 1;
  let e2e = session_results s in
  if not (List.equal String.equal traced.outputs e2e) then
    fail t 1 "traced run: %d RESULT lines, the end-to-end run %d; %s"
      (List.length traced.outputs) (List.length e2e)
      (diff ~want:e2e ~have:traced.outputs);
  let cpu = s.usage.cpu_s in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 s.conns in
  let values =
    traced.layers
    @ [
        ("trace.wall_s", traced.wall_s);
        ("trace.coverage", traced.coverage);
        ("trace.overhead_pct", 100. *. (traced.wall_s -. cpu) /. cpu);
        ("process.idle_frac", 1. -. (cpu /. (s.reaped -. s.spawned)));
        ("queue.slow_signals", float_of_int (sum (fun c -> c.Serve_run.slow_signals)));
        ( "queue.dropped",
          float_of_int
            (sum (fun c ->
                 Option.value ~default:0
                   (Option.bind (List.assoc_opt "dropped" c.Serve_run.stats)
                      int_of_string_opt))) );
        ("runtime.output_bytes", float_of_int s.out_bytes);
        ("driver.late_p99_ms", Stats.percentile_sorted (Stats.sorted s.late_ms) 99.);
      ]
    @ latency_metrics (serve_latencies input s)
  in
  (t, values)

(* ---- provenance ---- *)

let git_rev () =
  match
    Proc.run ~stderr:(Lazy.force Proc.devnull) "git" [ "rev-parse"; "HEAD" ]
  with
  | { usage = { status = 0; _ }; lines = l :: _; _ } -> l.text
  | _ -> "unknown"
  | exception Unix.Unix_error _ -> "unknown"

let provenance () =
  Json.Obj
    [
      ("git_rev", Json.Str (git_rev ()));
      ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Json.Str Sys.ocaml_version);
    ]

(* ---- driver ---- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Workload.size;
  ses : string;
  cache : string;
  benchmark : string;
  out : string option;
}

let run_workload opts =
  let t_prep = Proc.now () in
  let input =
    Workload.prepare opts.workload ~cache:opts.cache ~size:opts.size ~seed:opts.seed
      ~seconds:opts.seconds
  in
  log "%s: inputs ready in %.2f s" opts.workload (Proc.now () -. t_prep);
  Gc.compact ();
  let t, values, samples, units =
    match (input, opts.trace) with
    | Workload.Match m, false -> match_e2e ~ses:opts.ses ~seconds:opts.seconds m
    | Workload.Serve s, false -> serve_e2e ~ses:opts.ses ~seconds:opts.seconds s
    | Workload.Match m, true ->
        let t, v = match_traced ~ses:opts.ses m in
        (t, v, [], 1)
    | Workload.Serve s, true ->
        let t, v = serve_traced ~ses:opts.ses s in
        (t, v, [], 1)
  in
  {
    correct = t.failed = 0;
    attempted = max 1 t.attempted;
    failed = t.failed;
    values;
    samples;
    units;
    failures = List.rev t.failures;
  }

(* The catalogue's metrics for this kind of run, in its order; a metric
   the run did not compute is a driver bug, not a measurement. *)
let selected (cat : catalogue) ~trace o =
  List.map
    (fun m ->
      match List.assoc_opt m.name o.values with
      | Some v when Float.is_finite v -> (m, v)
      | Some _ -> failwith (Printf.sprintf "metric %s is not finite" m.name)
      | None -> failwith (Printf.sprintf "metric %s was not computed" m.name))
    (if trace then cat.per_layer else cat.end_to_end)

let result_line o metrics =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m, v) ->
               (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
             metrics) );
    ]

let full_record opts o metrics =
  let quart name =
    match List.assoc_opt name o.samples with
    | Some (_ :: _ as l) ->
        let q1, q2, q3 = Stats.quartiles l in
        [
          ("median", Json.Num q2);
          ("q1", Json.Num q1);
          ("q3", Json.Num q3);
          ("samples", Json.Arr (List.map (fun x -> Json.Num x) l));
        ]
    | _ -> []
  in
  Json.Obj
    [
      ("workload", Json.Str opts.workload);
      ("seed", Json.Num (float_of_int opts.seed));
      ("seconds", Json.Num opts.seconds);
      ("trace", Json.Bool opts.trace);
      ("quick", Json.Bool (match opts.size with Workload.Quick -> true | Full -> false));
      ("provenance", provenance ());
      ("units", Json.Num (float_of_int o.units));
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("error_rate", Json.Num (float_of_int o.failed /. float_of_int o.attempted));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) o.failures));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m, v) ->
               ( m.name,
                 Json.Obj
                   (("value", Json.Num v) :: ("unit", Json.Str m.unit_) :: quart m.name) ))
             metrics) );
    ]

let run opts =
  let cat = load_catalogue opts.benchmark in
  if not (List.exists (String.equal opts.workload) cat.workloads) then
    failwith
      (Printf.sprintf "unknown workload %S (expected one of: %s)" opts.workload
         (String.concat ", " cat.workloads));
  if not (Sys.file_exists opts.ses) then
    failwith (Printf.sprintf "ses binary not found at %s (build it first)" opts.ses);
  let o = run_workload opts in
  let metrics = selected cat ~trace:opts.trace o in
  List.iter
    (fun (m, v) -> log "%-28s %14s %s" m.name (Json.number v) m.unit_)
    metrics;
  Option.iter
    (fun path ->
      Out_channel.with_open_gen
        [ Open_wronly; Open_creat; Open_append; Open_text ]
        0o644 path
        (fun oc ->
          Out_channel.output_string oc (Json.to_string (full_record opts o metrics));
          Out_channel.output_char oc '\n'))
    opts.out;
  print_endline (Json.to_string (result_line o metrics))

(* ---- compare ---- *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* The choosing-metrics rule. A spread wider than the bound leaves the
   metric unresolved unless every run of one side beats every run of the
   other. Otherwise B is worse when its median is worse by more than the
   bound, and better only when it wins nine tenths of the index-paired
   runs and its median moved by more than A's own quartile distance. *)
let verdict m a b =
  let beats x y = if m.lower_better then x < y else x > y in
  let qa1, ma, qa3 = Stats.quartiles a and mb = Stats.median b in
  let worse_by = (if m.lower_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let every p xs ys = List.for_all (fun x -> List.for_all (fun y -> p x y) ys) xs in
  let rec pairs a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: pairs a b | _ -> []
  in
  let pairs = pairs a b in
  let wins = List.length (List.filter (fun (x, y) -> beats y x) pairs) in
  if Float.max (Stats.spread a) (Stats.spread b) > m.bound then
    if every beats b a then Better else if every beats a b then Worse else Unresolved
  else if worse_by > m.bound then Worse
  else if
    (-.worse_by *. Float.abs ma) > qa3 -. qa1
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
  then Better
  else Same

let read_records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.equal (String.trim l) ""))
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> j
         | Error msg -> failwith (Printf.sprintf "%s: %s" path msg))

(* A metric's values over the end-to-end records of one workload. *)
let values_of records ~workload name =
  List.filter_map
    (fun r ->
      match (Json.to_str (Json.member "workload" r), Json.member "trace" r) with
      | Some w, Some (Json.Bool false) when String.equal w workload ->
          Option.bind (Json.member "metrics" r) (fun ms ->
              Json.to_num (Option.bind (Json.member name ms) (Json.member "value")))
      | _ -> None)
    records

let compare_cmd ~benchmark a_path b_path =
  let cat = load_catalogue benchmark in
  let a = read_records a_path and b = read_records b_path in
  let any_worse = ref false in
  Printf.printf "%-12s %-16s %12s %25s %12s %25s %8s  %s\n" "workload" "metric"
    "A median" "A [q1, q3] (n)" "B median" "B [q1, q3] (n)" "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let va = values_of a ~workload:w m.name
          and vb = values_of b ~workload:w m.name in
          match (va, vb) with
          | _ :: _, _ :: _ ->
              let v = verdict m va vb in
              (match v with Worse -> any_worse := true | Better | Same | Unresolved -> ());
              let side l =
                let q1, md, q3 = Stats.quartiles l in
                (md, Printf.sprintf "[%.4g, %.4g] (%d)" q1 q3 (List.length l))
              in
              let ma, sa = side va and mb, sb = side vb in
              Printf.printf "%-12s %-16s %12.5g %25s %12.5g %25s %+7.1f%%  %s\n" w
                m.name ma sa mb sb
                (100. *. (mb -. ma) /. Float.abs ma)
                (verdict_name v)
          | _ -> ())
        cat.end_to_end)
    cat.workloads;
  if !any_worse then exit 1

(* ---- smoke ---- *)

(* Every workload at its quick size, end to end and traced: each run must
   pass its correctness checks and emit every catalogue metric. *)
let smoke opts =
  let cat = load_catalogue opts.benchmark in
  let failures =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun trace ->
            let opts = { opts with workload = name; trace; size = Workload.Quick } in
            let label = Printf.sprintf "%s (trace %b)" name trace in
            match run_workload opts with
            | o when not o.correct -> Some (label ^ ": " ^ String.concat "; " o.failures)
            | o -> (
                match selected cat ~trace o with
                | _ ->
                    log "smoke ok: %s" label;
                    None
                | exception Failure msg -> Some (label ^ ": " ^ msg))
            | exception Failure msg -> Some (label ^ ": " ^ msg))
          [ false; true ])
      cat.workloads
  in
  match failures with
  | [] -> print_endline "e2e smoke: all workloads correct, every metric emitted"
  | fs ->
      List.iter (fun f -> prerr_endline ("e2e smoke: FAIL " ^ f)) fs;
      exit 1

(* ---- command line ---- *)

let default_ses () =
  (* _build/default/bench/e2e/e2e.exe -> _build/default/bin/ses_cli.exe *)
  Filename.concat
    (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
    "bin/ses_cli.exe"

let usage_error msg =
  prerr_endline ("e2e: " ^ msg);
  prerr_endline
    "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick] \
     [--ses PATH] [--cache DIR] [--benchmark FILE] [--out FILE]\n\
    \       e2e.exe compare A.jsonl B.jsonl [--benchmark FILE]\n\
    \       e2e.exe smoke [--ses PATH] [--cache DIR] [--benchmark FILE]";
  exit 2

let () =
  (* A server that dies mid-stream must fail the run's checks, not kill
     the driver with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let mode, args =
    match args with
    | ("compare" | "smoke") as m :: rest -> (m, rest)
    | rest -> ("run", rest)
  in
  let opts =
    ref
      {
        workload = "";
        seed = -1;
        seconds = 0.;
        trace = false;
        size = Workload.Full;
        ses = default_ses ();
        cache = "bench/e2e/_cache";
        benchmark = "BENCHMARK.json";
        out = None;
      }
  in
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        opts := { !opts with workload = v };
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> opts := { !opts with seed = s }
        | None -> usage_error ("bad --seed " ^ v));
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> opts := { !opts with seconds = s }
        | _ -> usage_error ("bad --seconds " ^ v));
        parse rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> opts := { !opts with trace = false }
        | "1" -> opts := { !opts with trace = true }
        | _ -> usage_error ("bad --trace " ^ v));
        parse rest
    | "--quick" :: rest ->
        opts := { !opts with size = Workload.Quick };
        parse rest
    | "--ses" :: v :: rest ->
        opts := { !opts with ses = v };
        parse rest
    | "--cache" :: v :: rest ->
        opts := { !opts with cache = v };
        parse rest
    | "--benchmark" :: v :: rest ->
        opts := { !opts with benchmark = v };
        parse rest
    | "--out" :: v :: rest ->
        opts := { !opts with out = Some v };
        parse rest
    | arg :: _ when String.length arg > 2 && String.starts_with ~prefix:"--" arg ->
        usage_error ("unknown or incomplete option " ^ arg)
    | arg :: rest ->
        positional := arg :: !positional;
        parse rest
  in
  parse args;
  let positional = List.rev !positional in
  try
    match (mode, positional) with
    | "compare", [ a; b ] -> compare_cmd ~benchmark:!opts.benchmark a b
    | "compare", _ -> usage_error "compare takes two result files"
    | "smoke", [] -> smoke { !opts with seed = 1; seconds = 0.5 }
    | "run", [] ->
        if String.equal !opts.workload "" then usage_error "--workload is required";
        if !opts.seed < 0 then usage_error "--seed is required";
        if !opts.seconds <= 0. then usage_error "--seconds is required";
        run !opts
    | _ -> usage_error "unexpected arguments"
  with
  | Failure msg | Sys_error msg ->
      prerr_endline ("e2e: error: " ^ msg);
      exit 1
  | Unix.Unix_error (err, call, _) ->
      prerr_endline ("e2e: error: " ^ call ^ ": " ^ Unix.error_message err);
      exit 1
