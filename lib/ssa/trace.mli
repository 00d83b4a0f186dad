(** Uniformly sampled simulation traces.

    The analysis algorithm of the paper consumes the simulation data as a
    stream of samples ("number of simulated data points" in Fig. 2), so
    jump-process trajectories are resampled onto a uniform time grid with
    zero-order hold: the value at grid point [g] is the state that held
    just before [g]. *)

type t

val names : t -> string array
(** Recorded species identifiers, in recording order. *)

val length : t -> int
(** Number of grid samples. *)

val t0 : t -> float
val dt : t -> float

val time : t -> int -> float
(** [time tr k] is the time of sample [k]. *)

val value : t -> string -> int -> float
(** [value tr id k] is the amount of species [id] at sample [k].
    @raise Not_found if [id] was not recorded. *)

val column : t -> string -> float array
(** Whole sampled series of one species (a fresh copy).
    @raise Not_found if the species was not recorded. *)

val map_column : t -> string -> (float -> 'a) -> 'a array
(** [map_column tr id f] is [Array.map f (column tr id)] without the
    intermediate copy — one large allocation fewer per column, which
    matters to peak memory when every ensemble replicate is analysed.
    @raise Not_found if the species was not recorded. *)

val index : t -> string -> int option
(** Position of a species in {!names} (first occurrence). Lookups are
    O(1) amortized: a name→index table is built lazily on the first
    lookup and reused for the life of the trace. *)

val sub : t -> from:int -> until:int -> t
(** Samples [from .. until - 1] as a new trace.
    @raise Invalid_argument on out-of-range bounds. *)

val concat : t -> t -> t
(** [concat a b] glues two contiguous recordings: same species, same
    [dt], and [b] starting exactly one step after [a] ends (within one
    part in 10^6 of [dt]). An empty operand is the identity — the
    other trace is returned unchanged, wherever the empty trace's
    nominal [t0] lies.
    @raise Invalid_argument otherwise. *)

val mean_opt : t -> string -> float option
(** Time-average of a species over the whole trace; [None] when the
    trace has no samples (an empty trace has no mean — e.g. a
    zero-width {!sub} window). *)

val variance_opt : t -> string -> float option
(** Population variance of a species' samples; [None] on an empty
    trace. *)

val fano_factor_opt : t -> string -> float option
(** [variance / mean] — the standard dispersion measure of gene
    expression noise; 1 for a Poisson-distributed stationary process.
    [None] on an empty trace or when the mean is zero (no dispersion
    measure exists). *)

val mean : t -> string -> float
(** {!mean_opt} with the documented sentinel [0.] for an empty trace.
    Callers that must distinguish "empty" from "mean is zero" use
    {!mean_opt}. *)

val variance : t -> string -> float
(** {!variance_opt} with the documented sentinel [0.] for an empty
    trace. *)

val fano_factor : t -> string -> float
(** {!fano_factor_opt} with the documented sentinel [nan] for an empty
    trace or a zero mean. *)

val crossings : t -> string -> float -> int
(** Number of times the sampled series crosses the given level (in
    either direction) — the analog precursor of the paper's variation
    count. *)

val max_value : t -> string -> float

val to_csv : t -> string
(** Header [time,<id>,...] then one row per sample. *)

val of_csv : string -> (t, string) result
(** Parses {!to_csv} output (uniform grid required). *)

val write_csv : string -> t -> unit
val read_csv : string -> (t, string) result

(** Incremental construction from a jump process.

    One fill rule: when the state changes at time [t], every grid point
    strictly before [t] not yet written takes the state that held up to
    [t] — so the sample at [g] is the state of the last change at or
    before [g]. {!Recorder.advance} applies it to the caller's live
    state, just before the caller changes it; {!Recorder.observe}
    applies it to a copy it keeps of the last observed state. *)
module Recorder : sig
  type trace := t
  type t

  val create :
    ?columns:int array ->
    names:string array ->
    initial:float array ->
    t0:float ->
    t_end:float ->
    dt:float ->
    unit ->
    t
  (** Grid [t0, t0 + dt, …] up to and including the last point [<= t_end].
      [names] and [initial] describe the whole state vector; [columns]
      (default: every position, in order) lists the state positions to
      record, and the trace's {!names} are [names] at those positions.
      @raise Invalid_argument if [dt <= 0] or [t_end < t0] or the lengths
      of [names] and [initial] differ or a column is out of range. *)

  val advance : t -> float -> float array -> float
  (** [advance r t live] writes every unwritten grid point strictly
      before [t] from [live], the state vector that held up to [t], and
      returns the next unwritten grid time ([infinity] once the grid is
      full). A simulator calls it just before it changes the state at
      time [t], and only needs to when [t] passes the time the last
      call returned — so a recorder costs nothing between grid points.
      @raise Invalid_argument if [t] is earlier than the time of the
      previous [advance] or {!observe}. *)

  val observe : t -> float -> float array -> unit
  (** [observe r t state] records that the system state is [state] from
      time [t] on: grid points strictly before [t] take the previously
      observed state (the [initial] state before the first call), then
      [state] is copied. Times must be non-decreasing; do not mix with
      {!advance} on one recorder. *)

  val finish : t -> trace
  (** Fills the remaining grid with the last observed state and returns
      the trace (after {!advance}, call [advance r infinity live] first).
      The recorder must not be used afterwards. *)
end
