(** Models compiled for simulation.

    Species are resolved to dense indices, parameters are folded into the
    kinetic laws, and each law is compiled once into a flat instruction
    array over a register file (constant folding, common-subexpression
    elimination, tight dispatch loop — see {!module:Ir}), so the
    simulator's inner loop does no name resolution. IR evaluation is
    bit-identical to {!Glc_model.Math.eval}; the reference direct method
    in [test_ssa] recomputes every propensity through [Math.eval] and
    holds traces byte-identical to [Sim]. *)

module Model := Glc_model.Model

type reaction = {
  c_id : string;
  c_delta_species : int array;
      (** net state change, species side: the species a firing
          changes, in increasing index order. Boundary species are
          excluded at compile time (SBML [boundaryCondition]: they
          participate in the kinetics but are never changed by
          firings), so every algorithm that applies deltas — and the
          ODE derivative — holds them fixed for free. *)
  c_delta_amount : float array;
      (** net state change, amount side: [c_delta_amount.(k)] is the
          signed change of species [c_delta_species.(k)]; never 0. *)
  c_expr : Ir.expr;
      (** the compiled kinetic law — raw, unclamped and unchecked;
          simulators go through {!propensities_into_in}/
          {!refresh_affected_in} instead *)
  c_reads : int list;  (** species indices the propensity depends on *)
  c_cost : int;  (** IR instructions executed per evaluation *)
}

type t = {
  c_model : Model.t;
  c_names : string array;  (** species ids, index = state position *)
  c_initial : float array;
  c_boundary : bool array;
  c_reactions : reaction array;
  c_affected : int array array;
      (** [c_affected.(r)] is the dependency closure of reaction [r]:
          every reaction whose propensity reads a species [r] changes,
          sorted, duplicate-free, precomputed once at compile time so
          a firing needs no dependency list of its own *)
  c_regs : int;
      (** largest register file any reaction's program needs — the size
          of the scratch {!make_regs} allocates *)
  c_eval_cost : int;
      (** IR instructions per full propensity refresh (sum of
          [c_cost]) *)
  c_affected_cost : int array;
      (** [c_affected_cost.(r)]: IR instructions per sparse refresh
          after reaction [r] fires *)
}

exception
  Non_finite_propensity of {
    nf_model : string;
    nf_reaction : string;
    nf_value : float;  (** the NaN or infinity the law evaluated to *)
    nf_state : (string * float) list;  (** offending state, by species *)
  }
(** Raised when a kinetic law evaluates to NaN or ±infinity — e.g.
    [0/0] at an empty state, or [ln] of a negative concentration.
    Before this check the clamp was [Float.max 0.], which {e returns
    NaN for a NaN argument}: the NaN flowed into the total propensity,
    every comparison against it came out false, and the run silently
    ended mid-trajectory with a truncated, corrupted trace. A
    registered [Printexc] printer renders the model id, reaction id and
    offending state. *)

val compile : ?metrics:Glc_obs.Metrics.t -> Model.t -> t
(** With a live [metrics] registry, records the [ssa.ir.programs],
    [ssa.ir.instructions_compiled], [ssa.ir.cse_hits] and
    [ssa.ir.const_folds] counters and the [ssa.ir.compile_seconds]
    histogram.
    @raise Invalid_argument if the model fails {!Model.validate}. *)

val species_index : t -> string -> int
(** @raise Not_found for unknown ids. *)

val make_regs : t -> float array
(** A fresh scratch register file sized for every program in [t] —
    what the [~regs] entry points below expect. Compiled models are
    shared read-only across the pool's domains, so the scratch lives
    with the caller: a simulator allocates one per trajectory and
    reuses it across every evaluation of the run. *)

val propensities_into_in :
  t -> regs:float array -> float array -> float array -> unit
(** [propensities_into_in t ~regs state a] writes every reaction's
    propensity in [state], evaluated against the caller's scratch from
    {!make_regs}, into the caller's buffer [a]. Finite negative values
    are clamped to zero (a kinetic law may dip below zero transiently
    in ill-parameterised models). It allocates nothing: the simulators reuse one
    buffer per trajectory, and each result operand is read inside this
    module instead of through {!Ir.eval}, whose float return is boxed
    under [-opaque] (dune's default dev profile, where nothing is
    inlined across modules). That keeps minor GCs — stop-the-world
    under domains — off the multicore hot path. The rule that keeps it
    true: no float crosses a module boundary per evaluation; results
    land in [a].
    @raise Invalid_argument if [a] is not one slot per reaction.
    @raise Non_finite_propensity on NaN or infinity. *)

val inert_reactions : t -> string list
(** Ids of reactions whose firing changes no state — every reactant and
    product is a boundary species, so the compiled deltas are empty.
    Such reactions still consume SSA steps whenever their propensity is
    positive; the linter flags them ([GLC004]). In declaration order. *)

val refresh_affected_in :
  t -> regs:float array -> float array -> int -> float array -> int
(** [refresh_affected_in t ~regs state ri a] re-evaluates into [a]
    exactly the propensities affected by a firing of reaction [ri] (the
    [c_affected.(ri)] row) and returns how many were evaluated. If [a]
    held fresh propensities for the pre-firing state, it holds fresh
    propensities for [state] afterwards — the sparse invariant the
    direct-method hot loop relies on. Allocates nothing, like
    {!propensities_into_in}.
    @raise Non_finite_propensity on NaN or infinity. *)

val eval_cost : t -> int
(** IR instructions executed by one full propensity refresh. O(1),
    precomputed. *)

val affected_cost : t -> int -> int
(** IR instructions executed by one sparse refresh after the given
    reaction fires. O(1), precomputed. *)

val apply_events_at :
  t -> float array -> Events.schedule -> (float * int * Events.schedule) option
(** [apply_events_at t state schedule] sets [state] for every event
    scheduled at the head time of [schedule] (negative values clamp to
    zero) and returns that time, the number applied and the rest of the
    schedule; [None] when the schedule is empty. The one event applier
    of both simulators, the direct method and the ODE.
    @raise Invalid_argument on an event for a species [t] does not
    have. *)

val catch_up :
  t -> float array -> t0:float -> Events.schedule -> int * Events.schedule
(** [catch_up t state ~t0 schedule] applies, batch by batch, every event
    due at or before [t0] — the interventions that initialise a run's
    state — and returns how many it applied and the rest.
    @raise Invalid_argument as {!apply_events_at}. *)
