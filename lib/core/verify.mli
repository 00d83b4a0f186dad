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
    before any trajectory is sampled, by the rule every stored campaign,
    atlas and serve job follows ([Glc_campaign.Runner.execute]): a
    certificate that settles every row is the verdict and costs no
    simulation; otherwise the circuit runs the whole protocol and
    Algorithm 1 decides, exactly as {!experiment} on
    {!Glc_dvasim.Experiment.run} does. *)

type outcome = {
  certificate : Glc_symbolic.Certificate.t;
  result : Analyzer.result option;
      (** the Algorithm 1 analysis of the whole protocol; [None] when
          the certificate decided every row *)
  report : report;
      (** the certificate's verdict (PFoBE 100) when it decided every
          row, otherwise the report of [result] *)
}

val certified_first :
  ?params:Analyzer.params ->
  ?margin:float ->
  ?metrics:Glc_obs.Metrics.t ->
  ?protocol:Glc_dvasim.Protocol.t ->
  Glc_gates.Circuit.t ->
  outcome
(** Certify, then simulate the whole protocol if any row is undecided.
    The analyser threshold follows the protocol; [margin] is passed to
    {!Glc_symbolic.Certificate.certify}. Records the
    [symbolic.fallback_simulations] (circuits simulated because a row
    is undecided) and [symbolic.fallback_rows] (those undecided rows)
    counters, next to the certificate's own [symbolic.*] counters, on
    [metrics]. *)

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
