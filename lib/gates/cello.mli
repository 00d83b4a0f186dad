(** Cello-style circuits named by truth-table code.

    Nielsen et al. (Science 2016) name each 3-input circuit by the
    hexadecimal code of its output column ([0x0B], [0x04], [0x1C], …).
    {!of_code} runs the full synthesis flow for any such code; {!codes}
    lists the ten circuits used in the paper's evaluation, including the
    three whose analytics appear in the paper's Fig. 4. *)

val name_of_code : arity:int -> int -> string
(** Canonical circuit name of a truth-table code: ["0x"] plus the code
    zero-padded to one hex digit per four rows, never fewer than two —
    ["0x0B"] at arity 3, ["0x06F2"] at arity 4. Injective across
    arities (the digit count encodes the arity). *)

val code_of_name : string -> (int * int) option
(** Parses a {!name_of_code}-shaped name back to [(arity, code)]: one
    or two hex digits mean arity 3 (the historical convention — arity-2
    codes share these names), three or four mean arity 4. [None] when
    the string is not such a name or the code exceeds the arity's
    [2^2^n - 1]. *)

val of_code : ?arity:int -> int -> Circuit.t
(** [of_code code] synthesises the circuit of that truth-table code
    (default [arity = 3]), named by {!name_of_code}. Beyond arity 3 the
    repressor library is automatically extended
    ({!Repressor.extended}) to the synthesised netlist's gate count.
    @raise Invalid_argument if the code does not fit the arity. *)

val circuit_0x0B : unit -> Circuit.t
(** Output high on combinations 000, 001 and 011 (minterms 0, 1, 3). *)

val circuit_0x04 : unit -> Circuit.t
(** Output high on combination 010 only. *)

val circuit_0x1C : unit -> Circuit.t
(** Output high on combinations 010, 011 and 100. *)

val codes : int list
(** The ten benchmark codes:
    [0x0B; 0x04; 0x1C; 0x70; 0x41; 0x8E; 0x5D; 0x3A; 0xB1; 0x17]. *)
