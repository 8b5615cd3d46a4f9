open Ses_event

type source = {
  ic : In_channel.t;
  schema : Schema.t;
  reader : Csv.reader;
  row : Csv.row;
  mutable filter : (Csv.row -> bool) option;
  mutable seq : int;  (** next sequence number to assign *)
  mutable last_ts : int;
  mutable dropped : int;
  mutable closed : bool;
}

let open_source ?selection path =
  match In_channel.open_text path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      let fail msg =
        In_channel.close ic;
        Error msg
      in
      let reader = Csv.reader_of_channel ic in
      match Csv.read_header reader with
      | Error msg -> fail msg
      | Ok schema -> (
          let filter =
            match selection with
            | None -> Ok None
            | Some p -> Result.map Option.some (Selection.compile_row schema p)
          in
          match filter with
          | Error msg -> fail msg
          | Ok filter ->
              Ok
                {
                  ic;
                  schema;
                  reader;
                  row = Csv.row reader schema;
                  filter;
                  seq = 0;
                  last_ts = min_int;
                  dropped = 0;
                  closed = false;
                }))

let source_schema src = src.schema

let push_selection ?trace src p =
  Result.map
    (fun f -> src.filter <- Some f)
    (Selection.compile_row ?trace src.schema p)

let scanned src = src.seq

let dropped src = src.dropped

let last_ts src = if src.seq = 0 then None else Some src.last_ts

let close_source src =
  if not src.closed then begin
    src.closed <- true;
    In_channel.close src.ic
  end

(* Advances to the next row that passes the filter: [Ok true] leaves it
   decoded in [src.row] with sequence number [src.seq - 1]. Every row is
   validated and order-checked before the filter sees it, so a rejected
   row still reports its errors. *)
let rec next_row src =
  if src.closed then Ok false
  else
    match Csv.next_record src.reader with
    | (Error _ | Ok false) as r -> r
    | Ok true -> (
        match Csv.decode src.row with
        | Error msg -> Error (Printf.sprintf "row %d: %s" (src.seq + 1) msg)
        | Ok () -> (
            let ts = Csv.ts src.row in
            match Csv.in_order ~row:(src.seq + 1) ~last:src.last_ts ts with
            | Error _ as e -> e
            | Ok () -> (
                src.last_ts <- ts;
                src.seq <- src.seq + 1;
                match src.filter with
                | Some keep when not (keep src.row) ->
                    src.dropped <- src.dropped + 1;
                    next_row src
                | Some _ | None -> Ok true)))

let current src = Csv.event src.row ~seq:(src.seq - 1)

let next src =
  match next_row src with
  | Ok true -> Ok (Some (current src))
  | Ok false -> Ok None
  | Error _ as e -> e

(* Chunked scan: up to [max] filtered events per call, so downstream
   batch consumers (the stream runner, [Executor.feed_batch]) pay their
   per-call plumbing once per chunk instead of once per row. Every chunk
   is a fresh array: a consumer may hand it to another domain. *)
let next_batch src max =
  if max < 1 then invalid_arg "Csv_stream.next_batch: max < 1";
  match next_row src with
  | Error _ as e -> e
  | Ok false -> Ok [||]
  | Ok true ->
      let chunk = Array.make max (current src) in
      let rec fill k =
        if k = max then Ok chunk
        else
          match next_row src with
          | Error _ as e -> e
          | Ok false -> Ok (Array.sub chunk 0 k)
          | Ok true ->
              chunk.(k) <- current src;
              fill (k + 1)
      in
      fill 1

let fold_source src ~init ~f =
  let rec go acc =
    match next src with
    | Error _ as e -> e
    | Ok None -> Ok acc
    | Ok (Some e) -> go (f acc e)
  in
  go init

let with_source ?selection path k =
  match open_source ?selection path with
  | Error _ as e -> e
  | Ok src -> Fun.protect ~finally:(fun () -> close_source src) (fun () -> k src)

let fold path ~init ~f =
  with_source path (fun src ->
      Result.map (fun acc -> (src.schema, acc)) (fold_source src ~init ~f))

let iter path ~f =
  Result.map fst (fold path ~init:() ~f:(fun () e -> f e))

let count path =
  with_source path (fun src ->
      let rec go () =
        match next_row src with
        | Error _ as e -> e
        | Ok true -> go ()
        | Ok false -> Ok src.seq
      in
      go ())

let stats ?cap path =
  with_source path (fun src ->
      let b = Stats.builder src.schema in
      Result.map
        (fun () -> (src.schema, Stats.finish ?cap b))
        (fold_source src ~init:() ~f:(fun () e -> Stats.observe b e)))

(* One CSV data record outside any file scan — the entry point a live
   ingestion path (the server's [EVENT] lines) uses: the caller owns the
   sequence counter and the chronological-order check, this module owns
   the CSV grammar. A decoder is one string reader and its typed row,
   refilled line by line. *)
type line_decoder = {
  line_reader : Csv.reader;
  line_row : Csv.row;
}

let line_decoder schema =
  let line_reader = Csv.reader_of_string "" in
  { line_reader; line_row = Csv.row line_reader schema }

let decode_line d ~seq line =
  Csv.set_string d.line_reader line;
  match Csv.single_record d.line_reader with
  | Error _ as e -> e
  | Ok () -> (
      match Csv.decode d.line_row with
      | Error _ as e -> e
      | Ok () -> Ok (Csv.event d.line_row ~seq))

let row_of_line schema ~seq line = decode_line (line_decoder schema) ~seq line
