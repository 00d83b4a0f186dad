(** Drains pending campaign jobs through the ensemble engine.

    Jobs run sequentially in list order; {e within} a job the
    replicates fan out across one shared {!Glc_engine.Pool} of worker
    domains, and one shared compiled-model {!Glc_engine.Cache} (keyed
    by name + content fingerprint) serves all jobs, so grid axes that
    do not change the kinetic model — FOV_UD, replicate count — reuse
    the same compilation.

    Every job is journaled ([started], then [done] or [failed]) and its
    result persisted atomically before the next job begins, so a kill
    at any point loses at most the in-flight job. A job that raises —
    an unknown circuit, an invalid model — is captured in the journal
    and the campaign moves on: one bad model degrades the campaign
    rather than killing it.

    Determinism: a job's result depends only on the campaign spec and
    the job's own content (its seed is {!Grid.job_seed}) — never on
    worker count, execution order, or which jobs ran in the same
    process. *)

type progress = {
  p_completed : int;  (** jobs finished (succeeded + failed) this run *)
  p_failed : int;
  p_total : int;  (** jobs this run will attempt *)
  p_elapsed : float;  (** wall-clock seconds since the run began *)
  p_eta : float option;  (** estimated seconds remaining *)
}

type summary = {
  ran : int;  (** jobs attempted *)
  succeeded : int;
  failed : int;
  remaining : int;  (** pending jobs not attempted (limit cut-off) *)
}

val resolve : string -> (Glc_gates.Circuit.t, string) result
(** Benchmark name, or any truth-table code: [0xNN] (or bare decimal
    up to 255) is a 3-input function, [0xNNNN] a 4-input one — the hex
    digit count selects the arity ({!Glc_gates.Cello.code_of_name}).
    Builds exactly the one circuit named. The single name rule: the CLI,
    campaign jobs, serve admission and the atlas all resolve here. *)

val job_protocol : Grid.spec -> Grid.job -> Glc_dvasim.Protocol.t
(** The experimental protocol a job runs under: the spec's times, the
    job's threshold and (optional) input-high level. *)

val job_document :
  ?certificate:Glc_symbolic.Certificate.t ->
  seed:int -> Grid.job -> Glc_engine.Ensemble.t -> string
(** The stored result document of a {e simulated} job: the job's
    coordinates and seed, the provenance triple
    ([provenance]:["simulated"], [certified_rows], [total_rows] — zero
    when no [certificate] rode along), top-level [verified] and
    [fitness_mean] convenience fields, and the full deterministic
    ensemble report. Byte-deterministic for a given
    (job, seed, certificate, ensemble). *)

val certified_document :
  seed:int -> Grid.job -> Glc_symbolic.Certificate.t -> string
(** The stored result document of a job whose certificate settled every
    truth-table row: [provenance] is ["certified"], there is no
    [ensemble] member — the embedded [certificate] is the evidence —
    and [fitness_mean] is a clean [100] (a proof carries no sampling
    noise). [verified] is the certificate's own verdict. *)

type certified = Glc_gates.Circuit.t * Glc_symbolic.Certificate.t
(** A job's circuit and its certificate under {!job_protocol}. *)

val certify :
  ?metrics:Glc_obs.Metrics.t -> Grid.spec -> Grid.job ->
  (certified, string) result
(** Resolves the job's circuit ({!resolve}) and certifies it under the
    job's protocol — the first step of {!run_job}. [Error] on an
    unresolvable circuit. *)

val run_job :
  ?metrics:Glc_obs.Metrics.t ->
  pool:Glc_engine.Pool.t ->
  cache:Glc_engine.Cache.t ->
  Grid.spec ->
  Grid.job ->
  string
(** Executes one job — resolve the circuit, derive its content seed
    ({!Grid.job_seed}), consult the symbolic analyser
    ({!Glc_symbolic.Certificate.certify} under the job's protocol), and
    only when rows remain undecided run the ensemble on [pool] through
    [cache] — and returns its result document ({!certified_document} or
    {!job_document} accordingly). This is the single execution path
    shared by campaign drains and the serve daemon, which is what makes
    a job's stored bytes identical however it was scheduled.
    @raise Failure on an unresolvable circuit, or when no replicate of
    the ensemble completes (and whatever the ensemble itself raises). *)

val run :
  ?jobs:int ->
  ?limit:int ->
  ?on_progress:(progress -> unit) ->
  ?metrics:Glc_obs.Metrics.t ->
  ?should_stop:(unit -> bool) ->
  store:Store.t ->
  journal:Journal.t ->
  Grid.spec ->
  (Grid.job * certified option) list ->
  summary
(** [run ~store ~journal spec pending] journals every pending job as
    scheduled, then attempts the first [limit] of them (default: all)
    in order. A job that comes with its {!certify} result is not
    certified again; one without goes through {!run_job}. [jobs] sizes
    the worker pool (0 = hardware).

    [should_stop] (default: never) is polled before each job starts;
    once it returns [true] no further job begins — the in-flight job
    finishes, its result is persisted and journaled, and the drain
    returns with the untouched jobs counted in [remaining]. This is the
    graceful-interrupt hook: the CLI points it at a SIGINT/SIGTERM flag
    so a signalled campaign flushes instead of dying mid-write.

    A live [metrics] registry (default {!Glc_obs.Metrics.noop}) receives
    the campaign counters [campaign.jobs_scheduled] /
    [campaign.jobs_succeeded] / [campaign.jobs_failed], the gauge
    [campaign.jobs_todo], the wall-time histograms
    [campaign.job_seconds], [campaign.store_put_seconds] (atomic
    temp+fsync+rename write), [campaign.journal_append_seconds] (fsync
    per record) and [campaign.jobs_per_second] (one observation per
    run), one span [job:<id>] per attempted job, and everything the
    underlying pool, cache and ensemble engine record (see
    {!Glc_engine.Ensemble.run}).
    @raise Invalid_argument if [limit < 0]. *)

val counter_progress : ?oc:out_channel -> unit -> progress -> unit
(** A live [completed/total (+failures) + ETA] line rewritten in place
    (default [stderr]) — pass as [on_progress] when a human watches. *)
