(** Interactive virtual-laboratory sessions.

    D-VASim's defining feature is {e interactive} stochastic simulation:
    the user loads a model, injects or withdraws species while the
    simulation runs, and watches the response — the workflow behind the
    paper's threshold and propagation-delay analyses. This module is that
    session, programmatically: a mutable experiment that can be advanced,
    intervened on, and logged piecewise.

    {[
      let lab = Lab.create (Circuit.model circuit) in
      Lab.run lab 500.;              (* let it settle        *)
      Lab.set lab "LacI" 15.;        (* inject the inducer   *)
      Lab.run lab 1_000.;            (* watch the response   *)
      assert (Lab.amount lab "GFP" > 15.);
      Trace.write_csv "session.csv" (Lab.history lab)
    ]} *)

module Model := Glc_model.Model
module Trace := Glc_ssa.Trace

type t

val create : ?seed:int -> ?dt:float -> Model.t -> t
(** A fresh session at time 0 in the model's initial state.
    Defaults: [seed = 42], [dt = 1.].
    @raise Invalid_argument if the model fails validation or
    [dt <= 0]. *)

val time : t -> float
(** Current session time. *)

val amount : t -> string -> float
(** Current amount of a species.
    @raise Not_found for unknown species. *)

val set : t -> string -> float -> unit
(** Clamps a species to an amount, effective immediately (negative
    amounts clamp to zero).
    @raise Not_found for unknown species. *)

val run : t -> float -> unit
(** [run lab d] advances the simulation by [d] time units.
    @raise Invalid_argument if [d] is not a positive multiple of [dt]
    (within rounding). *)

val history : t -> Trace.t
(** Everything logged since the session started (or the last {!reset}),
    sampled every [dt]. *)

val reset : t -> unit
(** Back to time 0 and the model's initial state; the log is cleared and
    the random stream restarts from the seed. *)
