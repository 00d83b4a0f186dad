(** The toolchain's one JSON module: the string escaper, the number
    printer, the object/array writer and the reader.

    Every machine-readable output — campaign and atlas documents,
    SPACE.json, MANIFEST.json, journal lines, serve replies,
    certificates, lint reports and metrics exports — is built here,
    and every stored document is read back here.

    {2 Determinism contract}

    The writer assembles strings, not a value tree: {!obj} and {!arr}
    join already-rendered members, in the order given. Equal inputs
    therefore render identical bytes, and documents of the same shape
    agree byte-for-byte whichever layer wrote them.

    - {!string} escapes the double quote, the backslash and every
      control character, and copies every other byte as is.
    - {!float} prints the shortest decimal that round-trips, so equal
      floats always print identical bytes; integers below 1e15 print
      without a fraction, and non-finite values print as [null]. The
      ensemble's byte-for-byte determinism rests on this.
    - Integers are printed by the caller with [string_of_int], so ints
      beyond 2{^53} (the 62-bit job seeds) keep every digit.

    The reader reads numbers as [float]s, which round-trips every value
    {!float} prints: [parse] of a printed report re-renders to the
    identical bytes. The campaign store's resume-determinism contract
    rests on this. *)

(** {2 Writer} *)

val string : string -> string
(** A quoted, escaped string literal. *)

val float : float -> string
(** The shortest decimal that round-trips; [null] when not finite. *)

val bool : bool -> string

val option : ('a -> string) -> 'a option -> string
(** [option render x] is [null] for [None] and [render v] for
    [Some v]. *)

val obj : (string * string) list -> string
(** [obj [(k1, v1); ...]] is [{"k1":v1,...}]: each key escaped with
    {!string}, each value an already-rendered JSON text, in the given
    order. *)

val arr : string list -> string
(** [arr [v1; ...]] is [[v1,...]], of already-rendered JSON texts. *)

(** {2 Reader}

    A complete little JSON parser: objects, arrays, strings (with
    escapes, including [\uXXXX] and surrogate pairs), numbers and the
    three literals. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

val parse : string -> (value, string) result
(** Whole-input parse: trailing non-whitespace is an error, so a
    truncated (crash-interrupted) document never parses. *)

val member : value -> string -> value option
(** Field of an [Object]; [None] on missing field or non-object. *)

val to_bool : value -> bool option
val to_number : value -> float option

val to_int : value -> int option
(** [Some] only for integral numbers within the exact float range. *)

val to_str : value -> string option
val to_list : value -> value list option

(** {3 Typed field accessors}

    [int_field v k] is {!member} [v k] read with {!to_int}, and so on
    for each kind: [None] when [v] is not an object, lacks [k], or
    holds a value of another kind there. *)

val bool_field : value -> string -> bool option
val number_field : value -> string -> float option
val int_field : value -> string -> int option
val str_field : value -> string -> string option
val list_field : value -> string -> value list option
