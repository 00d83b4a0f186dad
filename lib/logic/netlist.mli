(** Gate-level netlists over the genetic gate repertoire.

    Cello (Nielsen et al., Science 2016) builds genetic circuits out of
    NOT and 2-input NOR gates only, because those are the logic functions
    a single repressor-based genetic gate can realise. This module models
    such netlists and synthesises them from truth tables
    ({!of_truth_table}). *)

type net = string
(** Nets are named: input names, or synthesised internal names [n1], … *)

type gate =
  | Not of net
  | Nor of net * net
  | Const of bool
      (** Degenerate case for constant functions; never produced for
          non-constant tables. *)

type t = private {
  inputs : string array;  (** primary input nets, index = table input *)
  output : net;  (** the net holding the circuit output *)
  gates : (net * gate) list;  (** definitions in topological order *)
}

val make : inputs:string array -> output:net -> gates:(net * gate) list -> t
(** Checks well-formedness: gate definitions are topologically ordered, no
    net is defined twice or shadows an input, every referenced net is
    defined, and the output net exists.
    @raise Invalid_argument otherwise. *)

val of_truth_table : inputs:string array -> Truth_table.t -> t
(** Synthesise a NOT/NOR netlist computing the given table. A constant
    table is one [Const] gate. A table of at most 3 inputs is extracted
    from a least-tree-cost search over NOT and NOR2, with structural
    sharing added on extraction, so not always the fewest gates. Above
    3 inputs, a table that reads at most 3 of its inputs gets the same
    search over just the inputs it reads, and its gates reference only
    those; any other table is a {!Qm}-minimised sum of products mapped
    onto NOT/NOR pairs with structural sharing, where a NOT of a NOT
    folds to its operand and only the gates the output reads are kept.
    @raise Invalid_argument if [inputs] and the table differ in arity. *)

val eval : t -> bool array -> bool
(** [eval t ins] computes the output for the given input values.
    @raise Invalid_argument if [Array.length ins <> Array.length t.inputs]. *)

val to_truth_table : t -> Truth_table.t
(** Exhaustive tabulation of {!eval}. *)

val gate_count : t -> int
(** Number of gates (NOT + NOR; [Const] counts as one). *)

val depth : t -> int
(** Longest input-to-output path measured in gates. 0 when the output is a
    primary input. *)

val logic_gates : t -> (net * gate) list
(** Alias for the [gates] field, in topological order. *)

val to_verilog : ?name:string -> t -> string
(** Structural Verilog of the netlist (gate primitives [not] and [nor]),
    one module with the primary inputs as ports and one output [y].
    Net names must already be valid Verilog identifiers (the synthesiser
    only produces such names). [name] defaults to ["circuit"]. *)
