open Ses_event

let needs_quoting s =
  String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) s

let escape_field s =
  if not (needs_quoting s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

(* ---- the record scanner ---- *)

let buffer_size = 65_536

(* The current record's fields are the byte ranges
   [starts.(k), stops.(k)) of [buf], for [k < n]. Unquoted fields are
   plain slices of the input; a quoted field is unescaped in place (its
   content moves left over the quotes it drops), as is an unquoted field
   that contained a CR. The record being scanned starts at [pos]; the
   bytes [pos, len) are input not yet consumed by a finished record. *)
type reader = {
  ic : In_channel.t option;  (** [None]: [buf] holds the whole input *)
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  mutable eof : bool;
  mutable failure : string option;  (** a read error ends the input *)
  mutable starts : int array;
  mutable stops : int array;
  mutable n : int;
}

let make_reader ic buf len =
  {
    ic;
    buf;
    pos = 0;
    len;
    eof = ic = None;
    failure = None;
    starts = Array.make 8 0;
    stops = Array.make 8 0;
    n = 0;
  }

let reader_of_channel ic = make_reader (Some ic) (Bytes.create buffer_size) 0

let reader_of_string s = make_reader None (Bytes.of_string s) (String.length s)

(* The buffer grows only for a longer input, so a reader that decodes
   line after line stops allocating once it has seen its longest. *)
let set_string r s =
  (match r.ic with
  | Some _ -> invalid_arg "Csv.set_string: a channel reader"
  | None -> ());
  let n = String.length s in
  if Bytes.length r.buf < n then
    r.buf <- Bytes.create (max n (2 * Bytes.length r.buf));
  Bytes.blit_string s 0 r.buf 0 n;
  r.pos <- 0;
  r.len <- n;
  r.failure <- None;
  r.n <- 0

(* Reads more input behind the current record. The record's bytes
   [pos, len) move to the front of the buffer (which doubles when the
   record already fills it), and every recorded field offset moves with
   them. Returns that shift; the caller shifts its own offsets by it and
   sees more input iff its next offset is now below [len]. *)
let refill r =
  match r.ic with
  | None -> 0
  | Some _ when r.eof -> 0
  | Some ic ->
      let shift = r.pos in
      let keep = r.len - shift in
      if keep = Bytes.length r.buf then begin
        let bigger = Bytes.create (2 * Bytes.length r.buf) in
        Bytes.blit r.buf 0 bigger 0 keep;
        r.buf <- bigger
      end
      else if shift > 0 then Bytes.blit r.buf shift r.buf 0 keep;
      for k = 0 to r.n - 1 do
        r.starts.(k) <- r.starts.(k) - shift;
        r.stops.(k) <- r.stops.(k) - shift
      done;
      r.pos <- 0;
      r.len <- keep;
      (match In_channel.input ic r.buf keep (Bytes.length r.buf - keep) with
      | 0 -> r.eof <- true
      | got -> r.len <- keep + got
      | exception Sys_error msg ->
          r.eof <- true;
          r.failure <- Some msg);
      shift

let add_field r start stop =
  if r.n = Array.length r.starts then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    r.starts <- grow r.starts;
    r.stops <- grow r.stops
  end;
  r.starts.(r.n) <- start;
  r.stops.(r.n) <- stop;
  r.n <- r.n + 1

(* The scanner states, one function each so that every state's loop
   dispatches on the byte alone (a single function matching on the pair
   of state and byte scanned about 15% slower). [i] is the next byte to
   read, [fstart, w) the current field's content so far ([w <= i]: bytes
   dropped from the field leave a gap the later ones are moved over).
   RFC 4180 with two leniencies: a CR outside quotes is dropped wherever
   it appears, and a quote inside an unquoted field is kept literally. A
   field opens a quoted section only when the quote is its first kept
   byte. *)
type status =
  | Record
  | End
  | Failed of string

let rec plain r buf i w fstart started =
  if i >= r.len then begin
    let shift = refill r in
    let i = i - shift and w = w - shift and fstart = fstart - shift in
    if i < r.len then plain r r.buf i w fstart started
    else begin
      r.pos <- i;
      if started then begin
        add_field r fstart w;
        Record
      end
      else End
    end
  end
  else
    match Bytes.unsafe_get buf i with
    | ',' ->
        add_field r fstart w;
        plain r buf (i + 1) (i + 1) (i + 1) true
    | '\n' ->
        add_field r fstart w;
        r.pos <- i + 1;
        Record
    | '\r' -> plain r buf (i + 1) w fstart started
    | '"' when w = fstart -> quoted r buf (i + 1) (i + 1) (i + 1)
    | c ->
        if w < i then Bytes.unsafe_set buf w c;
        plain r buf (i + 1) (w + 1) fstart true

and quoted r buf i w fstart =
  if i >= r.len then begin
    let shift = refill r in
    let i = i - shift and w = w - shift and fstart = fstart - shift in
    if i < r.len then quoted r r.buf i w fstart
    else Failed "csv: unterminated quoted field"
  end
  else
    match Bytes.unsafe_get buf i with
    | '"' -> quote_seen r buf (i + 1) w fstart
    | c ->
        if w < i then Bytes.unsafe_set buf w c;
        quoted r buf (i + 1) (w + 1) fstart

(* Just past a quote inside a quoted section: a second quote is an
   escaped one, anything else closes the section. *)
and quote_seen r buf i w fstart =
  if i >= r.len then begin
    let shift = refill r in
    let i = i - shift and w = w - shift and fstart = fstart - shift in
    if i < r.len then quote_seen r r.buf i w fstart
    else begin
      add_field r fstart w;
      r.pos <- i;
      Record
    end
  end
  else if Bytes.unsafe_get buf i = '"' then begin
    Bytes.unsafe_set buf w '"';
    quoted r buf (i + 1) (w + 1) fstart
  end
  else after_quote r buf i w fstart

and after_quote r buf i w fstart =
  if i >= r.len then begin
    let shift = refill r in
    let i = i - shift and w = w - shift and fstart = fstart - shift in
    if i < r.len then after_quote r r.buf i w fstart
    else begin
      add_field r fstart w;
      r.pos <- i;
      Record
    end
  end
  else
    match Bytes.unsafe_get buf i with
    | ',' ->
        add_field r fstart w;
        plain r buf (i + 1) (i + 1) (i + 1) true
    | '\n' ->
        add_field r fstart w;
        r.pos <- i + 1;
        Record
    | '\r' -> after_quote r buf (i + 1) w fstart
    | c -> Failed (Printf.sprintf "csv: unexpected %C after closing quote" c)

let next_record r =
  r.n <- 0;
  let status = plain r r.buf r.pos r.pos r.pos false in
  match r.failure, status with
  | Some msg, _ | None, Failed msg -> Error msg
  | None, Record -> Ok true
  | None, End -> Ok false

let field r k = Bytes.sub_string r.buf r.starts.(k) (r.stops.(k) - r.starts.(k))

let fields r = List.init r.n (field r)

(* After the first record of a one-line input: whatever follows must hold
   no further record. Every later record is still scanned, so a malformed
   one reports its own error first. The first record's unescaping never
   writes at or past [pos], so the rest is intact. *)
let check_rest r =
  if r.pos >= r.len then Ok ()
  else
    let rest = reader_of_string (Bytes.sub_string r.buf r.pos (r.len - r.pos)) in
    let rec go seen =
      match next_record rest with
      | Error _ as e -> e
      | Ok true -> go true
      | Ok false ->
          if seen then Error "csv: embedded record separator" else Ok ()
    in
    go false

let single_record r =
  match next_record r with
  | Error _ as e -> e
  | Ok false -> Ok ()
  | Ok true -> check_rest r

let split_line line =
  let r = reader_of_string line in
  Result.map (fun () -> fields r) (single_record r)

(* ---- headers ---- *)

let ty_name = function
  | Value.Tint -> "int"
  | Value.Tfloat -> "float"
  | Value.Tstr -> "string"

let ty_of_name = function
  | "int" -> Ok Value.Tint
  | "float" -> Ok Value.Tfloat
  | "string" -> Ok Value.Tstr
  | other -> Error (Printf.sprintf "csv: unknown type %S in header" other)

let header_of_schema schema =
  let cells =
    List.map
      (fun (name, ty) -> escape_field (name ^ ":" ^ ty_name ty))
      (Schema.attributes schema)
  in
  String.concat "," (cells @ [ "T" ])

let schema_of_cells = function
  | [] -> Error "csv: empty header"
  | cells -> (
      match List.rev cells with
      | "T" :: rev_attrs ->
          let parse_cell cell =
            match String.rindex_opt cell ':' with
            | None ->
                Error (Printf.sprintf "csv: header cell %S lacks a type" cell)
            | Some i -> (
                let name = String.sub cell 0 i in
                let ty =
                  String.sub cell (i + 1) (String.length cell - i - 1)
                in
                match ty_of_name ty with
                | Ok ty -> Ok (name, ty)
                | Error _ as e -> e)
          in
          let rec all acc = function
            | [] -> Schema.make (List.rev acc)
            | cell :: rest -> (
                match parse_cell cell with
                | Ok attr -> all (attr :: acc) rest
                | Error _ as e -> e)
          in
          all [] (List.rev rev_attrs)
      | _ -> Error "csv: header must end with the timestamp column T")

let schema_of_header line = Result.bind (split_line line) schema_of_cells

(* A header record of one empty cell (an empty first line) reads as an
   empty header, as it does when that line is parsed on its own. *)
let read_header r =
  match next_record r with
  | Error _ as e -> e
  | Ok false -> Error "csv: empty input"
  | Ok true -> (
      match fields r with
      | [ "" ] -> schema_of_cells []
      | cells -> schema_of_cells cells)

(* ---- typed rows ---- *)

type row = {
  rd : reader;
  types : Value.ty array;
  ints : int array;
      (** parsed [Tint] attributes, then the timestamp at index [arity] *)
  floats : float array;  (** parsed [Tfloat] attributes *)
}

let row rd schema =
  let n = Schema.arity schema in
  let types = Array.init n (Schema.type_of schema) in
  { rd; types; ints = Array.make (n + 1) 0; floats = Array.make n 0. }

(* The helpers below are top-level, not local closures: the scan calls
   them for every field of every row, and a local recursive function
   that captures variables is allocated on each call. *)

let rec digits_value buf i stop acc =
  if i = stop then acc
  else
    match Bytes.unsafe_get buf i with
    | '0' .. '9' as c ->
        digits_value buf (i + 1) stop ((acc * 10) + (Char.code c - 48))
    | _ -> -1

(* [int_of_string] of the trimmed field [k] into [row.ints.(k)]. The
   common shape, an optional '-' and 1 to 18 decimal digits (which cannot
   overflow), is parsed in place; any other shape takes the library's
   path. *)
let parse_int row k =
  let r = row.rd in
  let buf = r.buf and start = r.starts.(k) and stop = r.stops.(k) in
  let neg = start < stop && Bytes.unsafe_get buf start = '-' in
  let first = if neg then start + 1 else start in
  let digits = stop - first in
  let x =
    if digits < 1 || digits > 18 then -1 else digits_value buf first stop 0
  in
  if x >= 0 then begin
    row.ints.(k) <- (if neg then -x else x);
    true
  end
  else
    match int_of_string_opt (String.trim (field r k)) with
    | Some x ->
        row.ints.(k) <- x;
        true
    | None -> false

(* Validates fields [k..] of the current record exactly as
   [Value.of_string] would parse them, keeping the parsed numbers;
   strings stay slices until [event] copies them out. *)
let rec decode_from row k =
  let arity = Array.length row.types in
  if k = arity then
    if parse_int row k then Ok ()
    else Error (Printf.sprintf "csv: bad timestamp %S" (field row.rd k))
  else
    match row.types.(k) with
    | Value.Tstr -> decode_from row (k + 1)
    | Value.Tint ->
        if parse_int row k then decode_from row (k + 1)
        else Error (Printf.sprintf "%S is not an integer" (field row.rd k))
    | Value.Tfloat -> (
        match float_of_string_opt (String.trim (field row.rd k)) with
        | Some x ->
            row.floats.(k) <- x;
            decode_from row (k + 1)
        | None ->
            Error (Printf.sprintf "%S is not a float" (field row.rd k)))

let decode row =
  let arity = Array.length row.types in
  if row.rd.n <> arity + 1 then
    Error
      (Printf.sprintf "csv: expected %d fields, found %d" (arity + 1) row.rd.n)
  else decode_from row 0

let ts row = row.ints.(Array.length row.types)

let int_field row k = row.ints.(k)

let rec bytes_equal buf start s j n =
  j = n
  || Bytes.unsafe_get buf (start + j) = String.unsafe_get s j
     && bytes_equal buf start s (j + 1) n

let str_equal row k s =
  let r = row.rd in
  let start = r.starts.(k) in
  let n = String.length s in
  r.stops.(k) - start = n && bytes_equal r.buf start s 0 n

let rec bytes_compare buf start len s j =
  let n = String.length s in
  if j = len || j = n then Int.compare len n
  else
    let c = Char.compare (Bytes.unsafe_get buf (start + j)) (String.unsafe_get s j) in
    if c <> 0 then c else bytes_compare buf start len s (j + 1)

(* Agrees in sign with [String.compare] on the field's content. *)
let str_compare row k s =
  let r = row.rd in
  let start = r.starts.(k) in
  bytes_compare r.buf start (r.stops.(k) - start) s 0

let value row k =
  match row.types.(k) with
  | Value.Tint -> Value.Int row.ints.(k)
  | Value.Tfloat -> Value.Float row.floats.(k)
  | Value.Tstr -> Value.Str (field row.rd k)

let field_value row = function
  | Schema.Field.Attr k -> value row k
  | Schema.Field.Timestamp -> Value.Int (ts row)

let payload row = Array.init (Array.length row.types) (value row)

let event row ~seq = Event.make ~seq ~ts:(ts row) (payload row)

(* ---- whole relations ---- *)

let render_value = function
  | Value.Int x -> string_of_int x
  | Value.Float x -> Printf.sprintf "%.12g" x
  | Value.Str s -> escape_field s

let to_string r =
  let schema = Relation.schema r in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header_of_schema schema);
  Buffer.add_char buf '\n';
  Relation.iter
    (fun e ->
      let cells =
        Array.to_list (Array.map render_value e.Event.payload)
        @ [ string_of_int (Event.ts e) ]
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n')
    r;
  Buffer.contents buf

let in_order ~row ~last ts =
  if ts < last then
    Error
      (Printf.sprintf "row %d: timestamps out of order (%d after %d)" row ts
         last)
  else Ok ()

let read_relation rd =
  match read_header rd with
  | Error _ as e -> e
  | Ok schema ->
      let row = row rd schema in
      let rec rows acc idx last =
        match next_record rd with
        | Error _ as e -> e
        | Ok false -> Relation.of_rows schema (List.rev acc)
        | Ok true -> (
            match decode row with
            | Error msg -> Error (Printf.sprintf "row %d: %s" idx msg)
            | Ok () -> (
                let t = ts row in
                match in_order ~row:idx ~last t with
                | Error _ as e -> e
                | Ok () -> rows ((payload row, t) :: acc) (idx + 1) t))
      in
      rows [] 1 min_int

let of_string src = read_relation (reader_of_string src)

let save path r =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (to_string r));
    Ok ()
  with Sys_error msg -> Error msg

let load path =
  match In_channel.open_text path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () -> read_relation (reader_of_channel ic))
