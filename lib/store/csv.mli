(** CSV serialization of event relations.

    The paper reads its events from an Oracle database; this repository's
    stand-in persists relations as self-describing CSV files. The header
    row carries [name:type] cells for the non-temporal attributes followed
    by the literal cell [T]; data rows carry the attribute values and the
    integer timestamp. Fields containing commas, quotes or newlines are
    double-quoted with [""] escaping, per RFC 4180; a CR outside quotes is
    dropped.

    Every reader in the store — {!load}, {!of_string}, {!split_line},
    {!Csv_stream} and the server's rows — goes through one decoder: a
    record scanner over a reusable byte buffer that slices fields by index,
    and a typed {!row} view that validates each field in place and builds
    values only on request. *)

open Ses_event

val escape_field : string -> string

val split_line : string -> (string list, string) result
(** Splits one CSV record into raw fields (unescaped). An input holding a
    second record is an error. *)

(** {1 Record scanner} *)

type reader
(** A record at a time over a channel, read through one byte buffer of
    {!buffer_size} bytes that grows only for a longer record. *)

val buffer_size : int

val reader_of_channel : In_channel.t -> reader

val reader_of_string : string -> reader

val set_string : reader -> string -> unit
(** [set_string r s] makes [s] the whole remaining input of a reader
    made by {!reader_of_string}, as if [r] were [reader_of_string s]:
    the reader's buffers are reused, and grow only for a longer [s].
    Raises [Invalid_argument] on a channel reader. *)

val next_record : reader -> (bool, string) result
(** Scans the next record: [Ok true] makes it current, [Ok false] is a
    clean end of input. [Error] (a quoting error or a read error) ends
    the scan. *)

val single_record : reader -> (unit, string) result
(** Scans the one record of a one-line input (an empty input leaves a
    current record of no fields). A second record is an error. *)

val read_header : reader -> (Schema.t, string) result
(** Reads the first record as a header. *)

(** {1 Typed rows} *)

type row
(** The current record of a {!reader} seen as a data row of a schema.
    Numbers are parsed in place; string fields stay slices of the
    reader's buffer, valid until the next {!next_record}. *)

val row : reader -> Schema.t -> row

val decode : row -> (unit, string) result
(** Validates the current record: its field count, each typed field
    exactly as {!Value.of_string} parses it (so ints and floats are
    trimmed, strings are not), and the timestamp. The error carries no
    row number. The accessors below read the last decoded record. *)

val ts : row -> Time.t

val int_field : row -> int -> int
(** The value of an [int] attribute. *)

val str_equal : row -> int -> string -> bool
(** Whether a [string] attribute's bytes equal the given string. *)

val str_compare : row -> int -> string -> int
(** [String.compare] of a [string] attribute with the given string, up
    to the magnitude of the result. *)

val field_value : row -> Schema.Field.t -> Value.t
(** One field, decoded. *)

val event : row -> seq:int -> Event.t
(** The row as an event; its strings are fresh copies. *)

(** {1 Headers and relations} *)

val header_of_schema : Schema.t -> string

val schema_of_header : string -> (Schema.t, string) result

val to_string : Relation.t -> string

val in_order : row:int -> last:Time.t -> Time.t -> (unit, string) result
(** [in_order ~row ~last t] is [Error "row N: timestamps out of order
    (t after last)"] when [t < last]: the text every reader of a file
    reports for a decreasing timestamp. *)

val of_string : string -> (Relation.t, string) result
(** Rows must be in chronological order: a row whose timestamp is below
    its predecessor's is an error ({!in_order}), as in a streamed
    read. *)

val save : string -> Relation.t -> (unit, string) result
(** Writes to a file path. *)

val load : string -> (Relation.t, string) result
(** Like {!of_string}, reading the file a buffer at a time. *)
