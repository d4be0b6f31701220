(** A hand-rolled JSON tree, serializer, and parser.

    The telemetry layer and the benchmark harness need machine-readable
    output (BENCH.json, --metrics dumps) but the repo deliberately takes
    no external dependencies, so this is a small, complete JSON
    implementation: every value {!to_string} emits is standard JSON, and
    {!of_string} parses everything the serializer can produce (plus
    arbitrary whitespace, escapes, and \uXXXX sequences), so values
    round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Minified serialization.  Non-finite floats (which JSON cannot
    represent) are emitted as [null]; finite floats print with enough
    digits to round-trip and always carry a ['.'] or exponent so the
    parser maps them back to [Float]. *)

val pp : Format.formatter -> t -> unit
(** Indented, human-readable serialization (still valid JSON). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  Numbers with a fraction or exponent
    become [Float]; bare integers become [Int] (or [Float] when they
    exceed native [int] range).  Errors carry a byte offset. *)

val equal : t -> t -> bool [@@test_only]
(** Structural equality ([Obj] field order is significant). *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k], if any. *)

val to_float : t -> float option
(** Numeric coercion for [Int] and [Float]. *)
