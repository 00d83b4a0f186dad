(** Monotone steady-state analysis of a kinetic model.

    Bounds every species' long-run amount by an interval, given
    intervals for the input rails. The model is decomposed structurally:
    each non-boundary species [X] collects its {e production} reactions
    (net stoichiometric delta > 0, arbitrary rate law) and its {e decay}
    reactions, whose rates must factor as [coefficient * X] (the shape
    [To_model.convert] emits — [gamma * X]). Balancing production
    against decay at a fixed point gives the one-species transfer
    function

    {[ X  =  (sum of delta * rate) / (sum of delta * coefficient) ]}

    evaluated in the interval domain over the current environment.

    {2 Why descending iteration is sound}

    The engine starts every solved species at {!Interval.top}
    ([[0, inf)]) and iterates the transfer function {e downward},
    intersecting each new value with the old one
    ({!Interval.meet_sound}). Any concrete steady state lies in the
    initial environment; the interval transfer function is
    inclusion-monotone and a steady state is a pointwise fixed point of
    the concrete transfer, so by induction it lies in {e every}
    iterate — whether or not the iteration has stabilised. Convergence (typically one round per
    circuit layer: repressor cascades are feed-forward) only sharpens
    the bounds; stopping early never unsounds them. Ascending iteration
    from the initial state, by contrast, would only capture steady
    states reachable from it — wrong for multistable circuits — which
    is why {!Interval.widen} is kept as a safety valve rather than the
    engine.

    A species whose decay kinetics defeat the linear factorisation (or
    that has production but no decay) stays at [top] ([[0, inf)] is
    sound for any amount) and is listed in [ss_free]. A species no
    reaction touches is pinned to its initial amount. *)

type t = {
  ss_bounds : (string * Interval.t) list;
      (** every species, in model order; boundary species carry their
          input interval (or initial amount when undriven) *)
  ss_iterations : int;
      (** narrowing rounds executed before stabilising (or hitting the
          cap) *)
  ss_converged : bool;
      (** the last round changed nothing; [false] only means the bounds
          could be sharper, never that they are wrong *)
  ss_free : string list;
      (** species left at [top] because their kinetics defeated the
          production/decay decomposition *)
}

val analyse :
  ?max_iters:int -> ?inputs:(string * Interval.t) list ->
  Glc_model.Model.t -> t
(** [analyse ~inputs m] bounds the steady states of [m] with each
    boundary species clamped to its interval in [inputs] (defaulting to
    its initial amount — the simulator's boundary semantics).
    [max_iters] caps the narrowing rounds (default 200, the cap every
    certificate uses; [test_symbolic] lowers it to check that stopping
    early never widens a bound). *)

val bound : t -> string -> Interval.t
(** The computed bound for a species ({!Interval.full} for a name the
    model does not declare). *)
