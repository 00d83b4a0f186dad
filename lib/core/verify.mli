(** Verification of extracted logic against the intended behaviour.

    The paper verifies a circuit by comparing the Boolean expression
    Algorithm 1 extracts with the designer's intent (the circuit's truth
    table); Fig. 5 reports the mismatching combinations as "wrong
    states". *)

module Truth_table := Glc_logic.Truth_table
module Experiment := Glc_dvasim.Experiment

type report = {
  expected : Truth_table.t;
  extracted : Truth_table.t;
  wrong_states : int list;
      (** combinations where extracted and expected logic differ *)
  verified : bool;  (** no wrong states *)
  fitness : float;  (** PFoBE of the analysis *)
}

val against : expected:Truth_table.t -> Analyzer.result -> report
(** @raise Invalid_argument on arity mismatch. *)

val experiment :
  ?params:Analyzer.params -> Experiment.t -> Analyzer.result * report
(** Runs the analysis on an experiment and verifies it against the
    circuit's expected table. *)

(** {2 Certified-first verification}

    The symbolic analyser ({!Glc_symbolic.Certificate}) is consulted
    before any trajectory is sampled; rows it proves are taken on its
    word and only the undecided remainder is simulated — the
    row-restricted stimulus gives each of them the per-row slot budget
    of a full run. A fully certified circuit costs no simulation at
    all. *)

(** Where a row's verdict came from. *)
type provenance = Certified | Simulated

type hybrid = {
  h_certificate : Glc_symbolic.Certificate.t;
  h_result : Analyzer.result option;
      (** the row-restricted stochastic analysis; [None] when the
          certificate decided every row *)
  h_provenance : provenance array;  (** indexed by combination *)
  h_simulated_rows : int list;  (** the certificate's undecided rows *)
  h_report : report;
      (** certified verdicts and simulated extractions merged against
          the intent; [fitness] is 100 for a fully certified run,
          otherwise the simulated slice's PFoBE *)
}

val certified_first :
  ?params:Analyzer.params ->
  ?margin:float ->
  ?metrics:Glc_obs.Metrics.t ->
  ?protocol:Glc_dvasim.Protocol.t ->
  Glc_gates.Circuit.t ->
  hybrid
(** Certify, then simulate only what is left. The analyser threshold
    follows the protocol; [margin] is passed to
    {!Glc_symbolic.Certificate.certify}. Records the
    [symbolic.fallback_simulations] and [symbolic.fallback_rows]
    counters (next to the certificate's own [symbolic.*] counters) on
    [metrics]. *)

val provenance_string : provenance -> string
(** ["certified"] / ["simulated"]. *)

(** Why a combination came out wrong — each maps to a concrete remedy. *)
type cause =
  | Unobserved
      (** the combination never occurred in the log: lengthen the run *)
  | Unstable_output
      (** rejected by eq. (1): oscillation around the threshold — move
          the threshold or revisit the gate's noise margins *)
  | Weak_output
      (** rejected by eq. (2): mostly-low stream, typically a stale or
          slowly-rising output — lengthen the hold time *)
  | Unexpected_high
      (** a stable high where the intent says low: the circuit (or the
          chosen threshold) computes a different function *)

type finding = { f_row : int; f_cause : cause }

val diagnose : Analyzer.result -> report -> finding list
(** One finding per wrong state, in combination order.
    @raise Invalid_argument if result and report disagree on arity. *)

val pp_finding : arity:int -> Format.formatter -> finding -> unit
