(** Enumeration and synthesis of the Boolean function space.

    One stop for "give me function [0xNN] as a thing I can simulate":
    names, minimal NOT/NOR netlists, assembled gate-library circuits
    and the static facts the atlas reports about each function
    (NPN class, gate count, depth, bio-class flags).

    All 256 3-input functions synthesise within the stock
    twelve-repressor library (the worst case, parity [0x69], needs
    exactly 12 gates); 4-input functions extend the library
    automatically ({!Glc_gates.Cello.of_code}). *)

type info = {
  i_code : int;  (** truth-table code *)
  i_arity : int;
  i_name : string;  (** {!Glc_gates.Cello.name_of_code} *)
  i_class : int;  (** NPN representative, {!Npn.canonical} *)
  i_gates : int;  (** NOT/NOR gates in the minimal netlist *)
  i_depth : int;  (** longest input→output gate path *)
  i_unate : bool;
  i_canalizing : bool;
  i_nested_canalizing : bool;
}

val name_of_code : arity:int -> int -> string
(** Alias of {!Glc_gates.Cello.name_of_code}. *)

val netlist : arity:int -> int -> Glc_logic.Netlist.t
(** Minimal NOT/NOR netlist of the function over
    {!Glc_gates.Assembly.netlist_inputs}. *)

val describe : arity:int -> int -> info
(** Synthesises the netlist and classifies the function. *)

val all_codes : arity:int -> int list
(** [0 .. 2^2^arity - 1]. *)

val sample_codes : arity:int -> seed:int -> int -> int list
(** A deterministic uniform sample (without replacement) of [n] codes,
    sorted ascending — a seeded Fisher–Yates prefix over the full
    space. [n] larger than the space returns every code.
    @raise Invalid_argument if [n < 1]. *)
