(** A minimal JSON document builder, serialiser and parser.

    The telemetry subsystem emits Chrome traces, metrics dumps, NDJSON
    progress lines and run manifests; all of them build a {!t} and print
    it.  The parser ({!of_string}) exists for the one place the system
    reads JSON back: anytime-search checkpoints ([Bnb.Checkpoint]),
    which must round-trip through files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val output : out_channel -> t -> unit

val write_file : string -> t -> unit
(** Serialise to [path] followed by a newline (truncating). *)

(** {2 Enumerations}

    An enumeration's spellings live in one [(string * 'a) list] table
    in the module that defines its type: canonical names first, then
    any accepted aliases.  Decoding is [List.assoc_opt]; these give the
    canonical spelling back. *)

val enum_name : (string * 'a) list -> 'a -> string
(** The first name a spelling table binds to the value.
    @raise Not_found if the table does not cover the value. *)

val enum : (string * 'a) list -> 'a -> t
(** [String (enum_name table v)]. *)

(** {2 Parsing} *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  Numbers
    without [.], [e] or a leading sign quirk that fit in an OCaml [int]
    become [Int]; all others become [Float] ([1e999] round-trips the
    serialiser's infinity encoding).  [\uXXXX] escapes are decoded to
    UTF-8.  [Error msg] carries the byte offset of the failure. *)

val read_file : string -> (t, string) result
(** {!of_string} over the file's contents; [Error] also covers IO
    failures. *)

(** {2 Accessors}

    Total functions for walking parsed documents; all return [None] on
    a type mismatch or missing key. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] (first binding wins). *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] widens to float. *)

val to_string_opt : t -> string option
val to_list_opt : t -> t list option
