(** The function-space atlas: verify a whole Boolean-function space.

    Drives every function of an [n]-input space (all 256 for [n = 3],
    a deterministic sample for [n = 4]) through the campaign stack as
    one job per function — certified-first via {!Glc_symbolic}, with
    stochastic ensembles only for the rows the interval analysis leaves
    undecided — then measures each circuit's worst-case propagation
    delay on the ODE limit and renders the result as a machine-readable
    [SPACE.json] plus a generated [ATLAS.md] of Pareto frontiers
    (PFoBE × delay × gate cost) per NPN class.

    The atlas directory {e is} a campaign directory
    ({!Glc_campaign.Store}): [MANIFEST.json] holds a regular
    {!Glc_campaign.Grid.spec} whose circuit axis is the function names,
    so [glcv campaign status/report] work on it too, kill + resume is
    inherited, and the stored bytes of every function's document are
    identical to what a plain campaign would store. Delay measurements
    ride along in the same store under [delay-<name>] ids. *)

module Grid := Glc_campaign.Grid
module Store := Glc_campaign.Store
module Runner := Glc_campaign.Runner

type config = {
  inputs : int;  (** function arity, 2..4 *)
  sample : int option;
      (** verify only a seeded uniform sample of this many functions
          ({!Fn.sample_codes}); [None] = the whole space. Required
          for [inputs = 4] (65,536 functions). *)
  seed : int;  (** campaign root seed, and the sampling seed *)
  replicates : int;  (** ensemble size for undecided functions *)
  threshold : float;  (** logic threshold, molecules *)
  total_time : float;  (** per-job simulation length *)
  hold_time : float;  (** per-combination hold *)
}

val default_config : config
(** The paper's protocol over the full 3-input space: arity 3, no
    sampling, seed 42, 16 replicates, threshold 15, 10,000/1,000 t.u. *)

val plan : config -> Grid.spec
(** The campaign spec of an atlas run: one job per selected function,
    names in {!Fn.name_of_code} form.
    @raise Invalid_argument on an arity outside 2..4, on [inputs = 4]
    without [sample], or when [total_time] cannot hold all [2^inputs]
    input combinations for [hold_time] each (the GLC011 lint
    condition — atlas jobs run unlinted, so it is enforced here). *)

val prepare : dir:string -> Grid.spec -> (Store.t * Grid.spec * bool, string) result
(** Opens or initialises the atlas directory: a fresh directory is
    created with the given plan as its manifest; an existing one keeps
    {e its own} manifest (this is what makes re-running the same
    command a resume). The boolean is [true] when the stored plan
    differs from the argument — the caller should tell the user their
    flags were ignored. *)

(** {2 Propagation delay}

    Worst-case delay on the deterministic (ODE) limit over the
    {!Glc_dvasim.Transition.adjacent} transitions, each followed for
    up to 2.5 hold-times after the switch. A transition starts at the
    switch from the from-row's steady state when the interval analysis
    ({!Glc_symbolic.Steady_state}) pins every species to a finite
    point, and holds the from-row for one hold-time first otherwise.
    Delay docs are stored as [delay-<name>] in the atlas store,
    individually resumable; a doc that parses but lacks a field counts
    as absent, so a resumed run measures it again. *)

type delay = {
  d_transitions : int;  (** output-changing transitions *)
  d_measured : int;  (** of which crossed within the timeout *)
  d_worst : (float * Glc_dvasim.Transition.t) option;
      (** the largest measured delay, t.u., and its transition (the
          first on a tie); [None] if none crossed *)
}

val measure :
  protocol:Glc_dvasim.Protocol.t -> Glc_gates.Circuit.t -> delay * int
(** One function's delay, and the RK4 steps it cost. Pure (no store)
    and deterministic: each transition integrates only up to its
    crossing. *)

val delay_id : string -> string
(** [delay-<circuit name>]. *)

val delay_coverage : Store.t -> Grid.spec -> int * int
(** [(measured, total)] well-formed delay docs over the spec's
    circuits. *)

(** {2 Running} *)

type summary = {
  a_functions : int;  (** functions in the plan *)
  a_done : int;  (** with a stored verification result *)
  a_verified : int;
  a_failed : int;  (** jobs that raised this run *)
  a_remaining : int;  (** functions still without a result *)
  a_delays : int;  (** delay docs present *)
  a_delays_total : int;  (** delay docs wanted (= done functions) *)
}

val run :
  ?jobs:int ->
  ?limit:int ->
  ?on_progress:(Runner.progress -> unit) ->
  ?metrics:Glc_obs.Metrics.t ->
  ?should_stop:(unit -> bool) ->
  ?certified_only:bool ->
  dir:string ->
  Grid.spec ->
  (summary, string) result
(** {!prepare}, drain the pending functions through
    {!Glc_campaign.Resume.run} (certified-only when [certified_only]:
    each function is certified once, and only those it settles are
    drained) on a worker pool of [jobs] domains (default: one per
    core), then measure, on the calling domain and in spec order, the
    delay of every completed function that lacks one, storing each doc
    as it is measured. Records [space.functions_synthesised],
    [space.functions_verified], [space.delays_measured] and
    [space.ode_steps] (RK4 steps, a deterministic cost counter)
    counters and the [space.delay_seconds] histogram (one observation
    per measured function) on [metrics]. [should_stop] is polled
    between jobs and before each function of the delay pass. *)

(** {2 Reporting} *)

val space_json : Store.t -> Grid.spec -> string
(** The [SPACE.json] document: run parameters, per-class summaries with
    bio flags and Pareto frontiers, one record per function (status,
    provenance, PFoBE, delay, gates, depth, frontier membership), and
    the global frontier. Deterministic bytes — a resumed atlas renders
    byte-identically to an uninterrupted one. *)

val markdown : string -> (string, string) result
(** Renders [ATLAS.md] from the bytes of a [SPACE.json] — the single
    renderer shared by [glcv space report] and
    [tools/gen_models_doc.exe --atlas], so the two can never drift.
    [Error] when the JSON does not parse or lacks the atlas shape. *)
