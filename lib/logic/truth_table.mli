(** Truth tables of [n]-input single-output Boolean functions.

    A table over [arity] inputs has [2^arity] rows. Row [r] is the input
    combination whose bit [i] (counting from the least significant bit) is
    the value of input [i]; e.g. for a 3-input table, row [0b011] assigns
    input 0 = 1, input 1 = 1, input 2 = 0.

    The hexadecimal {e code} of a table — the encoding used by Cello
    (Nielsen et al., Science 2016) to name circuits such as [0x0B] — packs
    the output column into an integer: bit [r] of the code is the output of
    row [r]. *)

type t

val arity : t -> int
(** Number of inputs. *)

val rows : t -> int
(** Number of rows, i.e. [2^arity]. *)

val create : arity:int -> (int -> bool) -> t
(** [create ~arity f] tabulates [f row] for every row.
    @raise Invalid_argument if [arity] is not in [0..16]. *)

val of_minterms : arity:int -> int list -> t
(** [of_minterms ~arity ms] is the table that is true exactly on the rows
    listed in [ms].
    @raise Invalid_argument if a minterm is outside [0 .. 2^arity - 1]. *)

val of_code : arity:int -> int -> t
(** [of_code ~arity c] decodes a Cello-style hexadecimal truth-table code.
    @raise Invalid_argument if [c] has bits beyond row [2^arity - 1]. *)

val to_code : t -> int
(** Inverse of {!of_code}. *)

val of_outputs : bool list -> t
(** [of_outputs os] builds a table from the full output column, row 0 first.
    @raise Invalid_argument if the length of [os] is not a power of two. *)

val output : t -> int -> bool
(** [output t row] is the output of [t] on [row].
    @raise Invalid_argument if [row] is out of range. *)

val eval : t -> bool array -> bool
(** [eval t inputs] evaluates the table on named input values, where
    [inputs.(i)] is the value of input [i].
    @raise Invalid_argument if [Array.length inputs <> arity t]. *)

val minterms : t -> int list
(** Rows on which the table is true, in increasing order. *)

val maxterms : t -> int list
(** Rows on which the table is false, in increasing order. *)

val is_constant : t -> bool option
(** [Some b] if the table is constantly [b], [None] otherwise. *)

val complement : t -> t
(** Pointwise negation. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hamming_distance : t -> t -> int
(** Number of rows on which two tables of equal arity disagree.
    @raise Invalid_argument on arity mismatch. *)

val row_of_bits : bool array -> int
(** [row_of_bits bs] packs input values into a row index (input 0 at the
    least significant bit). *)

val bits_of_row : arity:int -> int -> bool array
(** Inverse of {!row_of_bits} for a given arity. *)

val combination : arity:int -> int -> string
(** [combination ~arity row] spells the row as its [arity] bits, most
    significant first — how the paper prints an input combination:
    [combination ~arity:3 3 = "011"]. Every report, certificate and CLI
    line prints rows through it. *)

val pp : Format.formatter -> t -> unit
(** Renders the full table, one row per line. *)

val pp_code : Format.formatter -> t -> unit
(** Renders the Cello-style code, e.g. [0x0B]. *)
