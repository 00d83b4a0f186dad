(** A genetic logic circuit ready for the virtual laboratory.

    Bundles the structural document, the sensor (input) proteins in
    display order, the reporter (output) protein, the expected logic, and
    the response parameters of every promoter, so a kinetic model can be
    generated on demand.

    {b Input combination convention} (matching the paper's figures): with
    inputs [I1 .. In] in array order, input combination (row) [r] assigns
    input [Ij] the bit [(n-1-j)] of [r] — i.e. the combination printed
    "011" sets I1=0, I2=1, I3=1, and combinations count upward 000, 001, …
    The expected truth table uses the same row numbering. *)

module Document := Glc_sbol.Document
module Model := Glc_model.Model
module To_model := Glc_sbol.To_model
module Truth_table := Glc_logic.Truth_table

type t = {
  name : string;
  document : Document.t;
  inputs : string array;  (** sensor protein ids, [I1] first *)
  output : string;  (** reporter protein id *)
  expected : Truth_table.t;
  promoter_kinetics : (string * To_model.kinetics) list;
      (** transcription parameters per promoter; missing promoters use
          {!To_model.default_kinetics} *)
  regulator_affinity : (string * (float * float)) list;
      (** binding [(K, n)] per regulator protein; missing regulators use
          the regulated promoter's defaults *)
}

val make :
  name:string ->
  document:Document.t ->
  inputs:string array ->
  output:string ->
  expected:Truth_table.t ->
  ?promoter_kinetics:(string * To_model.kinetics) list ->
  ?regulator_affinity:(string * (float * float)) list ->
  unit ->
  t
(** Checks that inputs and output exist in the document, that the inputs
    are exactly the document's input proteins, and that the expected
    table's arity matches.
    @raise Invalid_argument otherwise. *)

val arity : t -> int

val model : ?degradation:float -> t -> Model.t
(** Kinetic model via {!To_model.convert} with this circuit's promoter
    parameters. *)

val n_gates : t -> int
(** Number of transcription units (promoters with a production
    interaction). *)

val n_components : t -> int
(** Number of DNA parts in the document. *)

val input_value : t -> row:int -> int -> bool
(** [input_value c ~row j] is the value of input [j] in combination
    [row] under the convention above. *)

val row_of_inputs : t -> bool array -> int
(** Inverse of {!input_value}: combination index of the given input
    values (ordered as [inputs]). *)

