(** Metrics registry: counters, gauges, histograms and spans with a
    no-op default sink and deterministic JSON export.

    A registry ({!t}) is either {e live} (created by {!create}) or the
    shared {e no-op} sink {!noop}. Instrumented code is written against
    the same API in both cases; every instrument handed out by {!noop}
    drops writes after a single branch on its liveness flag, so
    instrumentation costs nothing measurable when disabled. All
    instruments are safe to use from multiple domains.

    {2 Determinism contract}

    The export is split into two sections so it can be both diffed and
    trusted:

    - ["deterministic"] — counters and gauges. Instrumented code must
      only record values here that are a pure function of the inputs
      (model, seed, worker count): event counts, cache hits, job
      totals. Two runs with the same configuration produce
      byte-identical ["deterministic"] sections.
    - ["timings"] — histograms and spans. Everything measured with the
      wall clock lives here and is expected to differ run to run.

    Keys in every object are sorted, floats are printed
    shortest-round-trip, so equal registries export equal bytes. *)

type t
(** A metrics registry. *)

val create : unit -> t
(** A fresh live registry. Its span epoch (the zero point for span
    start times) is the moment of creation. *)

val noop : t
(** The shared no-op registry: every instrument it returns discards
    writes, {!span} and {!time} just run their argument, and it exports
    empty sections. This is the default sink everywhere in the
    codebase. *)

val enabled : t -> bool
(** [enabled t] is [false] exactly for {!noop}. Hot paths use it to
    skip clock reads and local bookkeeping entirely. *)

module Counter : sig
  type t
  (** A monotonically increasing integer, updated with a single atomic
      add — the only instrument cheap enough for per-event use. *)

  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Current value; [0] for a no-op counter. *)
end

module Gauge : sig
  type t
  (** A float that can move both ways (a level, a size, a setting). *)

  val set : t -> float -> unit
  val add : t -> float -> unit

  val value : t -> float
  (** Current value; [0.] for a no-op gauge. *)
end

module Histogram : sig
  type t
  (** Fixed-bucket histogram of float observations (by convention,
      seconds). Buckets are cumulative-free: [counts.(i)] is the number
      of observations [<= bounds.(i)], with one overflow bucket at the
      end. Also tracks count, sum, min and max. *)

  val observe : t -> float -> unit

  val count : t -> int
  (** Number of observations; [0] for a no-op histogram. *)

  val sum : t -> float
  (** Sum of observations; [0.] for a no-op histogram. *)
end

val counter : t -> string -> Counter.t
(** [counter t name] registers (or retrieves) the counter [name].
    Raises [Invalid_argument] if [name] is already registered as a
    different kind of instrument. *)

val gauge : t -> string -> Gauge.t
(** Like {!counter}, for gauges. *)

val histogram : ?buckets:float array -> t -> string -> Histogram.t
(** Like {!counter}, for histograms. [buckets] are the upper bounds of
    the buckets in strictly increasing order; the default is a latency
    ladder from 1 microsecond to 100 seconds. [buckets] is ignored when
    the histogram already exists. Raises [Invalid_argument] on an empty
    or non-increasing [buckets]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f ()] and observes its wall-clock duration in
    the histogram [name] (default buckets). On a no-op registry the
    clock is never read. The duration is recorded even if [f] raises. *)

val observe_since : t -> string -> float -> unit
(** [observe_since t name t0] observes [Clock.now () -. t0] in the
    histogram [name] — the open-coded form of {!time} for code that
    cannot be wrapped in a closure. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] and records a trace event [{name;
    start; duration}] with [start] relative to the registry's epoch.
    The event is recorded even if [f] raises. At most a fixed number of
    spans (4096) are kept; further spans are counted as dropped rather
    than stored, so the buffer cannot grow without bound. *)

val json_string : string -> string
(** A quoted JSON string literal: the double quote, the backslash and
    every control character are escaped, every other byte is copied as
    is. The toolchain's one JSON string escaper — every machine-readable
    export renders its strings through it, and
    [Glc_core.Report.Json.parse] reads them back. *)

val json_float : float -> string
(** The shortest decimal that round-trips, so equal floats always print
    identical bytes (the ensemble's byte-for-byte determinism rests on
    it); integers below 1e15 print without a fraction, and non-finite
    values as [null]. The toolchain's one JSON number printer. *)

val deterministic_json : t -> string
(** The ["deterministic"] section alone — [{"counters":{...},
    "gauges":{...}}] with sorted keys. Byte-identical across runs with
    the same configuration, provided instrumented code honours the
    determinism contract above. *)

val to_json : t -> string
(** Full export: [{"deterministic":{"counters":{...},"gauges":{...}},
    "timings":{"histograms":{...},"spans":{...}}}]. Keys are sorted in
    every object; spans are listed in the order they finished. Each
    histogram carries its bucket upper bounds, per-bucket counts
    (overflow bucket last), count, sum, min and max (min/max are [null]
    when empty). *)

val to_text : t -> string
(** Scrape-friendly text exposition of the registry, in the
    OpenMetrics/Prometheus style — what a live metrics endpoint (the
    [glcv serve] [GET /metrics] route) returns:

    {v
    # TYPE serve_jobs_submitted counter
    serve_jobs_submitted 3
    # TYPE serve_queue_depth gauge
    serve_queue_depth 0
    # TYPE serve_job_seconds histogram
    serve_job_seconds_bucket{le="0.001"} 0
    ...
    serve_job_seconds_bucket{le="+Inf"} 3
    serve_job_seconds_sum 1.91
    serve_job_seconds_count 3
    v}

    Instrument names are mangled to the exposition charset (every
    character outside [[A-Za-z0-9_]] becomes ['_'], so
    [serve.jobs_submitted] scrapes as [serve_jobs_submitted]); names
    are emitted in sorted mangled order, counters first, then gauges,
    then histograms (with cumulative bucket counts). Spans are not
    exported — they are a trace, not a scrapable level. Deterministic:
    equal registries render identical bytes. *)
