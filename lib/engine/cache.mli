(** A compiled-model cache.

    {!Glc_ssa.Compiled.compile} resolves names and folds parameters into
    propensity closures — worth doing once per circuit, not once per
    replicate (or once per ensemble in a sweep). Compiled models are
    immutable after construction and safe to share across domains (the
    simulator copies the initial state vector per run), so one cache can
    back a whole multicore ensemble.

    Entries are keyed by a caller-chosen string; the key must uniquely
    identify the kinetic model. A circuit name alone is {e not} enough:
    robustness sweeps and campaign grids run the same circuit under
    perturbed kinetics or different input-high levels, and keying by
    name would hand every variant the first variant's compilation. Use
    {!model_key}, which combines the name with a content
    {!fingerprint} of the model (the ensemble engine does). *)

module Model := Glc_model.Model
module Compiled := Glc_ssa.Compiled

type t

val create : ?metrics:Glc_obs.Metrics.t -> unit -> t
(** A live [metrics] registry (default {!Glc_obs.Metrics.noop}) counts
    lookups under [engine.cache_hits] / [engine.cache_misses] in
    addition to the in-process {!hits}/{!misses} accessors. *)

val fnv64 : string -> int64
(** FNV-1a, 64 bit: deterministic across runs and architectures. The
    toolchain's one content hash — model fingerprints here, campaign
    job ids and job seeds in [Glc_campaign.Grid]. *)

val fingerprint : Model.t -> string
(** Cheap content digest (FNV-1a 64, rendered as 16 hex digits) over
    species (id, initial amount, boundary flag), parameters and
    reactions including the full kinetic-law AST with exact float
    constants. Equal models always digest equally; models differing in
    any constant digest differently (modulo the 64-bit hash). *)

val model_key : name:string -> Model.t -> string
(** [name ^ "#" ^ fingerprint m] — the cache key the ensemble engine
    uses, collision-safe across same-name kinetic variants. *)

val compiled : t -> key:string -> (unit -> Model.t) -> Compiled.t
(** [compiled c ~key build] returns the cached compilation for [key], or
    builds the model, compiles it, stores it and returns it. [build] is
    only called on a miss. Thread-safe; a miss holds the cache lock
    while compiling, so concurrent callers of the same key compile
    once. *)

val hits : t -> int
val misses : t -> int

val clear : t -> unit
