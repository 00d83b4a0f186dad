(** Deterministic multicore ensemble simulation with aggregate
    verification.

    A single Gillespie trajectory is one sample of a stochastic process;
    the logic a circuit computes is a statistical property of the
    ensemble. [run] simulates [replicates] independent SSA trajectories
    of one experiment across a {!Pool} of domains — each replicate on
    its own counter-derived {!Seeds} stream — analyses every trajectory
    with Algorithm 1 ({!Glc_core.Analyzer}) and verifies it against the
    intent ({!Glc_core.Verify}), then aggregates:

    {ul
    {- mean / stddev / 95% CI of the PFoBE fitness across replicates;}
    {- a majority-vote {e consensus truth table} with a per-combination
       agreement fraction, and the flaky combinations where replicates
       disagree;}
    {- per-combination FOV_EST statistics (eq. 1 of the paper) across
       the ensemble;}
    {- the failed replicates, captured individually — one crashed
       trajectory degrades the ensemble instead of killing the run.}}

    Results are bit-identical for any worker count: seeds are derived up
    front, replicates are fully independent, and aggregation runs in a
    fixed order. *)

module Circuit := Glc_gates.Circuit
module Protocol := Glc_dvasim.Protocol
module Truth_table := Glc_logic.Truth_table
module Analyzer := Glc_core.Analyzer
module Verify := Glc_core.Verify

type config = {
  replicates : int;  (** number of independent trajectories *)
  jobs : int;  (** worker domains; 0 = {!Pool.default_jobs} *)
  seed : int;  (** root seed of the counter-based derivation *)
  protocol : Protocol.t;  (** per-replicate experimental protocol
                              (its [seed] field is ignored) *)
  fov_ud : float;  (** FOV_UD of the analysis, eq. (1) *)
}

val config :
  ?replicates:int -> ?jobs:int -> ?seed:int -> ?protocol:Protocol.t ->
  ?fov_ud:float -> unit -> config
(** Defaults: 16 replicates, [jobs = 0] (hardware-sized), seed 42,
    {!Protocol.default}, the paper's [fov_ud = 0.25].
    @raise Invalid_argument if [replicates < 1] or [jobs < 0]. *)

type replicate = {
  rep_index : int;
  rep_result : Analyzer.result;
  rep_verify : Verify.report;
}

type failure = {
  fail_index : int;
  fail_error : string;
}

type case_summary = {
  cs_row : int;  (** input combination *)
  cs_minterm_votes : int;  (** replicates that kept the row as a minterm *)
  cs_consensus : bool;  (** majority vote: minterm of the consensus?
                            Strict majority — ties vote low, like the
                            analyzer's eq. (2). *)
  cs_agreement : float;  (** fraction of replicates agreeing with the
                             consensus on this row; 1.0 when unanimous *)
  cs_flaky : bool;  (** some replicates disagree on this row *)
  cs_fov : Stats.summary;  (** FOV_EST across replicates, eq. (1) *)
}

type t = {
  name : string;  (** circuit name *)
  arity : int;
  seed : int;  (** root seed *)
  requested : int;  (** replicates requested *)
  expected : Truth_table.t;  (** the designer's intent *)
  replicates : replicate array;  (** completed replicates, index order *)
  failures : failure array;  (** failed replicates, index order *)
  fitness : Stats.summary;  (** PFoBE across completed replicates *)
  verified_count : int;  (** replicates individually verified *)
  consensus : Truth_table.t;  (** majority-vote extracted logic *)
  consensus_verified : bool;  (** consensus equals the intent *)
  cases : case_summary array;  (** indexed by combination *)
  flaky : int list;  (** combinations with disagreement, ascending *)
}

val aggregate :
  name:string -> seed:int -> requested:int -> expected:Truth_table.t ->
  replicates:replicate list -> failures:failure list -> t
(** Pure aggregation over per-replicate outcomes — what [run] applies to
    the pool's results, exposed so degraded ensembles can be built (and
    tested) without a simulator. Replicates and failures are re-sorted
    by index.
    @raise Invalid_argument if a replicate's arity disagrees with
    [expected]. *)

exception Interrupted
(** Raised {e inside} a replicate task when [should_stop] turns true —
    never escapes {!run}; it surfaces as that replicate's [failure]
    with the error text ["interrupted"]. *)

val run :
  ?pool:Pool.t -> ?progress:Progress.t -> ?cache:Cache.t ->
  ?metrics:Glc_obs.Metrics.t -> ?should_stop:(unit -> bool) ->
  config -> Circuit.t -> t
(** Runs the ensemble. [should_stop] (default: never) is polled as each
    replicate starts: once it returns [true], not-yet-started
    trajectories are skipped and recorded as ["interrupted"] failures
    while the in-flight ones finish — the graceful SIGINT/SIGTERM path
    of [glcv ensemble], which still aggregates and reports what
    completed. The model is compiled once (through [cache] when
    given, keyed by {!Cache.model_key} — circuit name plus a content
    fingerprint, so same-name kinetic variants never collide) and
    shared read-only by all workers. When [pool] is given its size
    overrides [config.jobs] and
    the pool survives the call; otherwise a pool of [config.jobs]
    domains is created and shut down.

    Each replicate is one pool task.

    A live [metrics] registry (default {!Glc_obs.Metrics.noop}) receives
    the counters [engine.ensembles], [engine.replicates_ok],
    [engine.replicates_failed] and [engine.seeds_derived], the per-run
    SSA counters (see {!Glc_ssa.Sim.run}) and the wall-time histogram
    [engine.ensemble_seconds]; it is also handed to the pool this call
    creates (when [pool] is absent — a caller-supplied pool keeps the
    registry it was created with). Counters are a pure function of
    (circuit, config), never of the worker count or the clock, so the
    deterministic section of the export stays byte-identical across
    runs. *)

val pp : Format.formatter -> t -> unit
(** Human-readable report in the style of {!Glc_core.Report}. *)

val to_json : t -> string
(** Machine-readable report. Deterministic: equal ensembles render to
    identical bytes, whatever worker count produced them. Contains no
    wall-clock or worker-count fields for exactly that reason. *)
