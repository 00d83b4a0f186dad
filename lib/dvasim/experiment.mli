(** Running a circuit through the virtual laboratory.

    Generates the input stimulus schedule (every combination in counting
    order, each held for the propagation delay), simulates the kinetic
    model with the SSA, and logs all I/O species — the "SDAn" simulation
    data that Algorithm 1 of the paper consumes. *)

module Trace := Glc_ssa.Trace
module Events := Glc_ssa.Events
module Circuit := Glc_gates.Circuit
module Model := Glc_model.Model

type t = {
  circuit : Circuit.t;
  protocol : Protocol.t;
  trace : Trace.t;  (** all species, sampled every [protocol.dt] *)
}

val clamp :
  Protocol.t -> inputs:string array -> at:float -> int -> Events.event list
(** [clamp p ~inputs ~at row]: at time [at], every input species is set
    to [input_high] or [input_low] according to its value in [row]
    (input 0 of the array is the most significant bit,
    {!Glc_logic.Truth_table.input_value}), in array order. The one
    stimulus builder — the lab's schedule, the propagation-delay
    experiments and the atlas's ODE transitions all clamp here. *)

val stimulus : Protocol.t -> inputs:string array -> Events.schedule
(** The stimulus events the lab applies: at each slot boundary, every
    input species is clamped to [input_high] or [input_low] according to
    the slot's input combination (input 0 of the array is the most
    significant bit of the combination). *)

val stimulus_rows :
  Protocol.t -> inputs:string array -> rows:int array -> int -> Events.schedule
(** [stimulus_rows p ~inputs ~rows slots] is {!stimulus} restricted to a
    chosen set of input combinations: slot [s] applies
    [rows.(s mod Array.length rows)]. The symbolic verifier uses this to
    simulate only the rows its certificate left undecided.
    @raise Invalid_argument if [rows] is empty. *)

val run_trace_rows :
  ?metrics:Glc_obs.Metrics.t ->
  protocol:Protocol.t -> inputs:string array -> rows:int array -> int ->
  Model.t -> Trace.t
(** Simulates [slots] hold slots of the row-restricted stimulus
    ([t_end = slots * hold_time], protocol seed and algorithm).
    @raise Invalid_argument if [rows] is empty or [slots <= 0]. *)

val input_schedule : Protocol.t -> Circuit.t -> Events.schedule
(** {!stimulus} over the circuit's sensor proteins. *)

val run : ?protocol:Protocol.t -> ?metrics:Glc_obs.Metrics.t -> Circuit.t -> t
(** Simulates with {!Protocol.default} unless overridden. A live
    [metrics] registry (default {!Glc_obs.Metrics.noop}) is passed down
    to the SSA, which flushes its per-run counters and timings there —
    see {!Glc_ssa.Sim.run}. *)

val run_model :
  ?metrics:Glc_obs.Metrics.t ->
  protocol:Protocol.t -> circuit:Circuit.t -> Model.t -> t
(** Like {!run} but with a caller-supplied kinetic model (used to inject
    parameter variations while keeping the circuit's metadata). *)

val run_trace :
  ?metrics:Glc_obs.Metrics.t ->
  protocol:Protocol.t -> inputs:string array -> Model.t -> Trace.t
(** Circuit-free entry point: drives the named input species of an
    arbitrary kinetic model through all combinations and returns the
    logged trace — how an unknown SBML model is explored before its logic
    is known. *)

val applied_row : t -> float -> int
(** The input combination the lab was applying at a given time. *)

val log_csv : string -> t -> unit
(** Writes the logged simulation data to a CSV file, one row per sample —
    the equivalent of D-VASim's experiment log. *)
