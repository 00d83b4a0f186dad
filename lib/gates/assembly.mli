(** Technology mapping from logic netlists to genetic circuits.

    Turns a NOT/NOR netlist into a structural {!Glc_sbol.Document.t} the
    way Cello lays out its circuits, under the standard protein-level
    collapse: each net carries a protein; a gate is a promoter repressed
    by its input proteins (tandem repression) producing its output
    protein; the gate's response parameters are those of the repressor
    assigned to it, each library repressor being used at most once
    (orthogonality constraint).

    Sensors: input 1 is LacI, input 2 TetR, input 3 AraC (the Cello
    sensor modules), further inputs are [IN4], [IN5], …; the reporter is
    YFP. *)

module Netlist := Glc_logic.Netlist
module Truth_table := Glc_logic.Truth_table

val sensors : int -> string array
(** Sensor protein names for an [n]-input circuit, [I1] first. *)

val netlist_inputs : int -> string array
(** The sensors in netlist and truth-table variable order: net [i]
    (table bit [i]) is sensor [n-1-i], because a circuit's input 1 is
    the most significant bit of a row
    ({!Glc_logic.Truth_table.input_bit}). Every netlist built for
    assembly names its inputs with this array. *)

val reporter : string
(** ["YFP"]. *)

val sensor_affinity : string -> float * float
(** Binding [(K, n)] of a sensor protein on its cognate promoter. Sensor
    binding is tight ([K] around 4 molecules) so that a logic-1 input of
    one threshold's worth of molecules switches the first gate layer
    decisively. *)

val of_netlist :
  ?library:Repressor.t list ->
  name:string -> expected:Truth_table.t -> Netlist.t -> Circuit.t
(** Assembles a netlist whose input nets are {!netlist_inputs}. [library]
    defaults to {!Repressor.library}; pass {!Repressor.extended} for
    circuits beyond twelve gates.
    @raise Invalid_argument if the netlist needs more repressors than the
    library holds, or input nets are not the expected sensor names. *)

val synthesize :
  ?library:Repressor.t list -> name:string -> Truth_table.t -> Circuit.t
(** Full Cello-style flow: Quine–McCluskey minimisation, NOR mapping,
    repressor assignment, sensor and reporter wiring. The resulting
    circuit's expected table is the argument itself. *)
