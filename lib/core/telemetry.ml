(* Probe state is deliberately dumb: records of mutable ints. Everything
   clever (sorting, formatting) happens at snapshot time, off the hot
   path. *)

let default_clock () = int_of_float (Unix.gettimeofday () *. 1e9)

module Span = struct
  type t = {
    clock : unit -> int;
    mutable count : int;
    mutable total_ns : int;
    mutable max_ns : int;
  }

  let make clock = { clock; count = 0; total_ns = 0; max_ns = 0 }

  let start s = s.clock ()

  let stop_elapsed s token =
    let d = s.clock () - token in
    let d = if d < 0 then 0 else d in
    s.count <- s.count + 1;
    s.total_ns <- s.total_ns + d;
    if d > s.max_ns then s.max_ns <- d;
    d

  let stop s token = ignore (stop_elapsed s token)

  let record s f =
    let token = start s in
    Fun.protect ~finally:(fun () -> stop s token) f

  let count s = s.count

  let total_ns s = s.total_ns

  let max_ns s = s.max_ns
end

module Histogram = struct
  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable max_value : int;
  }

  let n_buckets = 32

  let make () =
    { buckets = Array.make n_buckets 0; count = 0; sum = 0; max_value = 0 }

  (* floor(log2 v) for v >= 2, clamped into the overflow bucket; values
     below 2 (including negatives) land in bucket 0. *)
  let bucket_of v =
    if v < 2 then 0
    else
      let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
      min (n_buckets - 1) (log2 0 v)

  let lower_bound i = if i <= 0 then 0 else 1 lsl i

  let observe h v =
    let b = h.buckets in
    b.(bucket_of v) <- b.(bucket_of v) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum + max 0 v;
    if v > h.max_value then h.max_value <- v

  let count h = h.count

  let sum h = h.sum

  let max_value h = h.max_value

  let bucket_counts h = Array.copy h.buckets
end

module Gauge = struct
  type t = {
    mutable samples : int;
    mutable last : int;
    mutable peak : int;
  }

  let make () = { samples = 0; last = 0; peak = 0 }

  let observe g v =
    g.samples <- g.samples + 1;
    g.last <- v;
    if v > g.peak then g.peak <- v

  let samples g = g.samples

  let last g = g.last

  let peak g = g.peak
end

module Counter = struct
  type t = { mutable value : int }

  let make () = { value = 0 }

  let incr c = c.value <- c.value + 1

  let add c n = c.value <- c.value + n

  let value c = c.value
end

type t = {
  clock : unit -> int;
  spans : (string, Span.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  counters : (string, Counter.t) Hashtbl.t;
}

type sink = t option

let create ?(clock = default_clock) () =
  {
    clock;
    spans = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    counters = Hashtbl.create 16;
  }

let now t = t.clock ()

let find_or_create table name make =
  match Hashtbl.find_opt table name with
  | Some x -> x
  | None ->
      let x = make () in
      Hashtbl.replace table name x;
      x

let span t name = find_or_create t.spans name (fun () -> Span.make t.clock)

let histogram t name = find_or_create t.histograms name Histogram.make

let gauge t name = find_or_create t.gauges name Gauge.make

let counter t name = find_or_create t.counters name Counter.make

(* Profiles *)

type span_data = {
  span_count : int;
  span_total_ns : int;
  span_max_ns : int;
}

type histogram_data = {
  hist_count : int;
  hist_sum : int;
  hist_max : int;
  hist_buckets : int array;
}

type gauge_data = {
  gauge_samples : int;
  gauge_last : int;
  gauge_peak : int;
}

type profile = {
  spans : (string * span_data) list;
  histograms : (string * histogram_data) list;
  gauges : (string * gauge_data) list;
  counters : (string * int) list;
}

let trim_trailing_zeros a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  Array.sub a 0 !n

let snapshot (t : t) =
  let sorted fold table conv =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (fold (fun name v acc -> (name, conv v) :: acc) table [])
  in
  {
    spans =
      sorted Hashtbl.fold t.spans (fun (s : Span.t) ->
          {
            span_count = s.Span.count;
            span_total_ns = s.Span.total_ns;
            span_max_ns = s.Span.max_ns;
          });
    histograms =
      sorted Hashtbl.fold t.histograms (fun h ->
          {
            hist_count = Histogram.count h;
            hist_sum = Histogram.sum h;
            hist_max = Histogram.max_value h;
            hist_buckets = trim_trailing_zeros (Histogram.bucket_counts h);
          });
    gauges =
      sorted Hashtbl.fold t.gauges (fun g ->
          {
            gauge_samples = Gauge.samples g;
            gauge_last = Gauge.last g;
            gauge_peak = Gauge.peak g;
          });
    counters = sorted Hashtbl.fold t.counters Counter.value;
  }

(* JSON export: fixed section order, sorted names, one named probe per
   line — line-oriented filters (the cram tests) rely on this shape. *)

let to_json p =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let section name entries render last =
    add (Printf.sprintf "  %S: {" name);
    (match entries with
    | [] -> add "}"
    | _ ->
        add "\n";
        List.iteri
          (fun i (n, v) ->
            add (Printf.sprintf "    %S: %s%s\n" n (render v)
                   (if i = List.length entries - 1 then "" else ",")))
          entries;
        add "  }");
    if not last then add ",";
    add "\n"
  in
  add "{\n";
  section "spans" p.spans
    (fun s ->
      Printf.sprintf "{\"count\":%d,\"total_ns\":%d,\"max_ns\":%d}" s.span_count
        s.span_total_ns s.span_max_ns)
    false;
  section "histograms" p.histograms
    (fun h ->
      Printf.sprintf "{\"count\":%d,\"sum\":%d,\"max\":%d,\"buckets\":[%s]}"
        h.hist_count h.hist_sum h.hist_max
        (String.concat ","
           (List.map string_of_int (Array.to_list h.hist_buckets))))
    false;
  section "gauges" p.gauges
    (fun g ->
      Printf.sprintf "{\"samples\":%d,\"last\":%d,\"peak\":%d}" g.gauge_samples
        g.gauge_last g.gauge_peak)
    false;
  section "counters" p.counters string_of_int true;
  add "}";
  Buffer.contents buf

(* A minimal parser for the JSON subset [to_json] emits: objects,
   arrays, double-quoted strings (with backslash escapes for the quote
   and the backslash itself), and integers. Enough for a faithful
   round-trip without a JSON dependency. *)

type json = Obj of (string * json) list | Arr of json list | Int of int

exception Parse_error of string

let of_json text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let peek_is c = !pos < n && Char.equal text.[!pos] c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\') as c) ->
              Buffer.add_char buf c;
              advance ()
          | _ -> fail "unsupported escape");
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if peek_is '-' then advance ();
    while
      !pos < n && match text.[!pos] with '0' .. '9' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail "expected integer";
    match int_of_string_opt (String.sub text start (!pos - start)) with
    | Some i -> i
    | None -> fail "invalid integer"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek_is '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek_is ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some '"' -> fail "unexpected string value"
    | Some _ -> Int (parse_int ())
    | None -> fail "unexpected end of input"
  in
  let field obj name =
    match obj with
    | Obj fields -> (
        match List.assoc_opt name fields with
        | Some v -> v
        | None -> fail (Printf.sprintf "missing field %S" name))
    | _ -> fail "expected object"
  in
  let int_field obj name =
    match field obj name with Int i -> i | _ -> fail "expected integer"
  in
  let entries obj conv =
    match obj with
    | Obj fields -> List.map (fun (name, v) -> (name, conv v)) fields
    | _ -> fail "expected object"
  in
  try
    let root = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    Ok
      {
        spans =
          entries (field root "spans") (fun v ->
              {
                span_count = int_field v "count";
                span_total_ns = int_field v "total_ns";
                span_max_ns = int_field v "max_ns";
              });
        histograms =
          entries (field root "histograms") (fun v ->
              {
                hist_count = int_field v "count";
                hist_sum = int_field v "sum";
                hist_max = int_field v "max";
                hist_buckets =
                  (match field v "buckets" with
                  | Arr items ->
                      Array.of_list
                        (List.map
                           (function
                             | Int i -> i | _ -> fail "expected integer")
                           items)
                  | _ -> fail "expected array");
              });
        gauges =
          entries (field root "gauges") (fun v ->
              {
                gauge_samples = int_field v "samples";
                gauge_last = int_field v "last";
                gauge_peak = int_field v "peak";
              });
        counters =
          entries (field root "counters") (function
            | Int i -> i
            | _ -> fail "expected integer");
      }
  with Parse_error msg -> Error msg

(* Prometheus text exposition. Histogram buckets are cumulative with
   inclusive upper bounds (bucket i covers [2^i, 2^(i+1)-1]), the
   overflow bucket is +Inf. *)

let to_prometheus p =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# TYPE ses_span_count counter";
  List.iter
    (fun (name, s) -> line "ses_span_count{name=%S} %d" name s.span_count)
    p.spans;
  line "# TYPE ses_span_duration_ns_total counter";
  List.iter
    (fun (name, s) ->
      line "ses_span_duration_ns_total{name=%S} %d" name s.span_total_ns)
    p.spans;
  line "# TYPE ses_span_duration_ns_max gauge";
  List.iter
    (fun (name, s) ->
      line "ses_span_duration_ns_max{name=%S} %d" name s.span_max_ns)
    p.spans;
  line "# TYPE ses_histogram histogram";
  List.iter
    (fun (name, h) ->
      let cumulative = ref 0 in
      Array.iteri
        (fun i c ->
          cumulative := !cumulative + c;
          let le =
            if i = Histogram.n_buckets - 1 then "+Inf"
            else string_of_int ((Histogram.lower_bound (i + 1)) - 1)
          in
          line "ses_histogram_bucket{name=%S,le=%S} %d" name le !cumulative)
        h.hist_buckets;
      if Array.length h.hist_buckets < Histogram.n_buckets then
        line "ses_histogram_bucket{name=%S,le=\"+Inf\"} %d" name h.hist_count;
      line "ses_histogram_sum{name=%S} %d" name h.hist_sum;
      line "ses_histogram_count{name=%S} %d" name h.hist_count)
    p.histograms;
  line "# TYPE ses_gauge_peak gauge";
  List.iter
    (fun (name, g) -> line "ses_gauge_peak{name=%S} %d" name g.gauge_peak)
    p.gauges;
  line "# TYPE ses_gauge_last gauge";
  List.iter
    (fun (name, g) -> line "ses_gauge_last{name=%S} %d" name g.gauge_last)
    p.gauges;
  line "# TYPE ses_counter counter";
  List.iter (fun (name, c) -> line "ses_counter{name=%S} %d" name c) p.counters;
  Buffer.contents buf
