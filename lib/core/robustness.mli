(** Robustness analysis of genetic circuits.

    The paper concludes that simulation-based logic analysis "may help
    users to analyze the circuit's behavior and robustness for different
    parameter sets before creating them in the laboratory." This module
    packages the two studies the paper motivates:

    - {!threshold_window}: the Fig. 5 experiment as a sweep — for which
      threshold values (and hence logic-1 input amounts) does the circuit
      still verify?
    - {!parametric_yield}: Monte-Carlo over gate-parameter variation —
      biological parts vary batch to batch, so how often does a circuit
      built from perturbed parts still compute its function? *)

module Circuit := Glc_gates.Circuit
module Protocol := Glc_dvasim.Protocol

type window_point = {
  w_threshold : float;
  w_verified : bool;
  w_fitness : float;
  w_variations : int;  (** total output variations over all combinations *)
  w_expr : Glc_logic.Expr.t;  (** the extracted logic *)
}

val default_sweep : float list
(** The Fig. 5 thresholds [3, 8, 15, 25, 40, 60, 80, 90]. *)

val threshold_window :
  ?protocol:Protocol.t -> ?thresholds:float list -> Circuit.t ->
  window_point list
(** Verifies the circuit at each threshold (default {!default_sweep}),
    in order. *)

val operating_range : window_point list -> (float * float) option
(** Smallest and largest verified threshold of a sweep, or [None] if the
    circuit never verifies. *)

type yield = {
  y_trials : int;
  y_verified : int;
  y_mean_fitness : float;  (** over the verified trials; [nan] if none *)
}

val parametric_yield :
  ?protocol:Protocol.t ->
  ?trials:int ->
  ?spread:float ->
  Circuit.t ->
  yield
(** [parametric_yield c] builds [trials] (default 20) copies of the
    circuit with every promoter strength ([ymax], [ymin]) and every
    regulator affinity ([K]) scaled by an independent log-normal factor
    of the given [spread] (standard deviation of [log], default 0.2 —
    roughly ±20 % part-to-part variation), runs each through the
    laboratory with its own random seed, and reports how many still
    verify.
    @raise Invalid_argument if [trials <= 0] or [spread < 0]. *)

val pp_yield : Format.formatter -> yield -> unit
