(** Per-truth-table-row verdicts proved without simulation.

    A certificate records, for every input combination of a circuit,
    the interval the steady-state analysis ({!Steady_state}) derives
    for the output species and the verdict that bound supports:

    {ul
    {- [Proved_high] — the lower bound clears the logic threshold with
       a stochastic noise margin to spare;}
    {- [Proved_low] — the upper bound stays under it with the same
       margin;}
    {- [Undecided] — the bound straddles the threshold (or is too
       loose), so only simulation can settle the row.}}

    The margin accounts for what the bound does not model: the SSA
    fluctuates around the deterministic steady state with roughly
    Poisson spread (standard deviation [sqrt m] at mean [m]), and the
    analyser's stability filter (eq. 1 of the paper) rejects
    threshold-hugging outputs. A row is proved only when the bound is
    at least [margin * sqrt m] molecules clear of the threshold, so a
    proved verdict also predicts what the stochastic analyser will
    extract. The default margin (4 standard deviations) is validated
    differentially against the SSA verifier over the full Table-1
    benchmark set and random monotone models in [test_symbolic.ml];
    an interval-vs-simulation disagreement is a test failure. *)

type verdict = Proved_high | Proved_low | Undecided

type row = {
  cr_row : int;  (** input combination, I1 at the most significant bit *)
  cr_bounds : Interval.t;  (** steady-state bound of the output species *)
  cr_verdict : verdict;
  cr_expected : bool;  (** the intended output for this combination *)
  cr_iterations : int;  (** fixpoint narrowing rounds for this row *)
  cr_converged : bool;
}

type t = {
  c_circuit : string;
  c_output : string;
  c_arity : int;
  c_threshold : float;
  c_margin : float;  (** noise margin, in Poisson standard deviations *)
  c_rows : row array;  (** indexed by combination *)
}

val default_margin : float
(** 4.0 standard deviations. *)

val decide : threshold:float -> margin:float -> Interval.t -> verdict
(** The decision rule alone: [Proved_high] iff
    [lo - margin * sqrt (max lo 1) > threshold], [Proved_low] iff
    [hi + margin * sqrt (max hi 1) < threshold] (finite bounds only).
    @raise Invalid_argument if [margin] is negative or not finite. *)

val rails :
  input_high:float -> input_low:float -> inputs:string array -> int ->
  (string * Interval.t) list
(** Each input species pinned to its rail level in [row]: the [?inputs]
    environment of {!Steady_state.analyse} for one truth-table row. *)

val certify :
  ?metrics:Glc_obs.Metrics.t ->
  ?margin:float ->
  ?protocol:Glc_dvasim.Protocol.t ->
  Glc_gates.Circuit.t ->
  t
(** Certifies a benchmark circuit under a protocol (threshold and input
    rail levels; default {!Glc_dvasim.Protocol.default}). Records the
    [symbolic.certificates], [symbolic.rows_proved],
    [symbolic.rows_undecided] and [symbolic.fixpoint_iterations]
    counters on [metrics].
    @raise Invalid_argument if [margin] is negative or not finite. *)

val certify_model :
  ?metrics:Glc_obs.Metrics.t ->
  ?margin:float ->
  threshold:float ->
  input_high:float ->
  input_low:float ->
  inputs:string array ->
  output:string ->
  expected:Glc_logic.Truth_table.t ->
  Glc_model.Model.t ->
  t
(** The engine behind {!certify}, usable on a bare kinetic model — the
    entry point the QCheck differential property drives with random
    monotone models. [inputs.(0)] is I1, the most significant bit of
    the combination index, as everywhere else in the code base.
    @raise Invalid_argument if [margin] is negative or not finite. *)

val rows : t -> int
val decided : t -> int
(** Rows with a [Proved_*] verdict. *)

val undecided_rows : t -> int list
val fully_decided : t -> bool

val contradictions : t -> int list
(** Proved rows whose verdict disagrees with the intended output — a
    symbolic proof that the circuit computes the wrong function there. *)

val verified : t -> bool option
(** [Some true] — every row proved and matching the intent;
    [Some false] — some proved row contradicts it (the circuit is
    wrong, no simulation needed); [None] — undecided rows remain and no
    contradiction was found. *)

val proved_output : t -> int -> bool option
(** The proved output bit for a row, [None] when undecided. *)

val verdict_string : verdict -> string
(** ["proved_high"], ["proved_low"], ["undecided"]. *)

val pp : Format.formatter -> t -> unit
val to_json : t -> string
(** Deterministic JSON (row order, shortest round-tripping floats;
    infinite bounds render as ["inf"]/["-inf"]), stable enough to diff
    and to embed in campaign job documents. *)
