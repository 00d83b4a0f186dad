(** Deterministic (ODE) simulation of kinetic models.

    D-VASim offers deterministic simulation next to the SSA; the paper
    motivates the SSA by the small molecule counts in a cell, and the
    ablation benchmarks here use the ODE limit to separate what the
    analysis algorithm owes to noise handling from what it owes to logic
    reconstruction.

    Each kinetic law is read as a continuous flux (the thermodynamic
    limit of the propensity); species follow
    [dx/dt = sum over reactions of stoichiometry * flux]. Integration is
    classic fixed-step fourth-order Runge–Kutta, split at event times so
    the virtual-lab input steps stay sharp. States are clamped at zero.

    Every entry point runs the same stepper over a per-run workspace:
    propensities come from {!Compiled.propensities_into_in} and the
    reaction deltas are flattened in reaction order, so a step allocates
    nothing and the floating-point operation order — hence every state —
    is fixed. *)

module Model := Glc_model.Model

type config = {
  t0 : float;
  t_end : float;
  dt : float;  (** trace sampling step *)
  step : float;  (** RK4 integration step; must not exceed [dt] *)
}

val config : ?t0:float -> ?dt:float -> ?step:float -> t_end:float -> unit
  -> config
(** Defaults: [t0 = 0.], [dt = 1.], [step = 0.1].
    @raise Invalid_argument if [step <= 0], [step > dt] or
    [t_end < t0]. *)

val run : ?events:Events.schedule -> config -> Model.t -> Trace.t

val run_compiled :
  ?events:Events.schedule -> config -> Compiled.t -> Trace.t

type until = {
  u_time : float option;
      (** the grid time of the first trace sample at or after [from]
          whose state satisfies the predicate; [None] if none does up
          to [t_end] *)
  u_steps : int;  (** RK4 steps taken *)
}

val run_until :
  ?events:Events.schedule -> from:float -> config -> Compiled.t ->
  (float array -> bool) -> until
(** [run_until ?events ~from cfg c holds] integrates as {!run_compiled}
    does but records no trace, and stops at the first sample of the
    trace grid ([t0 + k * dt]) at or after [from] whose held state
    satisfies [holds] — the sample {!run_compiled}'s trace
    would show there, so events due at a sample's time are applied
    before it is checked. The result is exactly what scanning the
    {!run_compiled} trace would find; integration just ends at the
    answer instead of at [t_end]. [holds] receives the state vector
    (indexed like [c_names]) and must not modify it. *)

val steady_state :
  ?max_time:float -> ?tolerance:float -> Model.t ->
  (string * float) list
(** Integrates until the largest relative change per unit time falls
    below [tolerance] (default [1e-9], [max_time] 100,000) and returns
    the settled amounts — a DC operating-point analysis. *)
