(** Stochastic simulation of kinetic models.

    One exact SSA — Gillespie's direct method (Gillespie 1977, the
    algorithm cited by the paper) with sparse propensity updates: after
    each firing only the reactions in the fired reaction's compile-time
    dependency closure are re-evaluated, and trajectories are
    byte-identical to re-evaluating every propensity at every step for
    the same seed (the reference direct method in [test_ssa] checks
    this). It interprets each kinetic law as the reaction's propensity
    function, supports timed interventions on species (the virtual-lab
    input stimuli, applied by {!Compiled.apply_events_at}), and records
    a uniformly sampled {!Trace.t}. The Gibson–Bruck next-reaction
    method lives in [test_ssa] as an oracle the direct method is checked
    against. *)

module Model := Glc_model.Model

type config = {
  t0 : float;  (** start time *)
  t_end : float;  (** stop time *)
  dt : float;  (** trace sampling step *)
  seed : int;  (** RNG seed; equal seeds reproduce traces exactly *)
}

val config :
  ?t0:float -> ?dt:float -> ?seed:int -> t_end:float -> unit -> config
(** Defaults: [t0 = 0.], [dt = 1.], [seed = 42].
    @raise Invalid_argument if [t_end < t0], [dt <= 0] or a time is
    not finite. *)

type stats = {
  reactions_fired : int;
  events_applied : int;
  final_state : (string * float) list;
}

val run :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> config ->
  Model.t -> Trace.t
(** Compiles and simulates the model. Events clamp species to new values
    at their scheduled times; reaction firings never drive a count below
    zero (propensities are clamped at zero).

    When [metrics] is a live registry (default {!Glc_obs.Metrics.noop}),
    each run flushes per-run totals into it once, after the simulation:
    counters [ssa.runs.direct], [ssa.reactions_fired],
    [ssa.events_applied], [ssa.propensity_evals], [ssa.trace_samples],
    [ssa.ir.instructions] (all deterministic for a fixed seed) and the
    wall-time histogram [ssa.run_seconds.direct]. The inner loops
    accumulate in plain local fields, so instrumentation adds no atomic
    traffic to the hot path. *)

val run_with_stats :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> config ->
  Model.t -> Trace.t * stats

val run_compiled :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> config ->
  Compiled.t -> Trace.t * stats
(** Reuses an already compiled model (the benchmark harness simulates the
    same circuit many times). *)

val run_compiled_rng :
  ?events:Events.schedule -> ?metrics:Glc_obs.Metrics.t -> rng:Rng.t ->
  record:int array -> config -> Compiled.t -> Trace.t * stats
(** Like {!run_compiled} but draws randomness from a caller-supplied
    generator instead of seeding a fresh one from [config.seed] (which is
    ignored), and records only the state positions in [record], in that
    order (see {!Trace.Recorder.create}'s [columns]). The ensemble
    engine uses this to give every replicate its own
    {!Rng.split}-derived stream while sharing one compiled model, and
    to record only the species the analyser reads. *)

(**/**)

val select : float array -> float -> int
(** [select a target] is the index of the reaction the direct method
    fires for cumulative-propensity target [target ∈ \[0, sum a)]: the
    first index [i] with positive propensity whose running cumulative
    sum exceeds [target]. Zero-propensity reactions are never selected,
    even when floating-point rounding leaves the cumulative sum below
    [target]; the draw then falls back to the last positive-propensity
    index. Raises [Invalid_argument] if no propensity is positive.
    Exposed for tests. *)

(**/**)
