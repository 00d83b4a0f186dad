(** A fixed-size pool of worker domains fed from a shared work queue.

    Workers are spawned once at {!create} and blocked on a
    [Mutex]/[Condition] queue between jobs, so repeated {!map} calls
    reuse the same domains. Tasks must be independent: results land in a
    caller-indexed slot, which makes the output order (and therefore any
    aggregation over it) independent of the worker count and of
    scheduling. A task that raises is captured as an {!error} in its own
    slot instead of killing the pool or the run.

    Do not call {!map} from inside a pool task of the same pool — the
    caller blocks until all its tasks finish, so nested submission can
    deadlock once every worker is blocked waiting. *)

type t

type error = {
  task : int;  (** index of the failed task *)
  message : string;  (** [Printexc.to_string] of the exception *)
  backtrace : string;  (** may be empty when backtraces are off *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware-sized default. *)

val create : ?jobs:int -> ?metrics:Glc_obs.Metrics.t -> unit -> t
(** Spawns [jobs] worker domains (default {!default_jobs}).

    A live [metrics] registry (default {!Glc_obs.Metrics.noop}) receives
    the counter [pool.tasks] (tasks submitted — deterministic) and the
    wall-time histograms [pool.worker_busy_seconds] (per task),
    [pool.worker_idle_seconds] (per dequeue, time the worker spent
    blocked on the queue) and [pool.queue_wait_seconds] (per task, from
    enqueue to dequeue). Instruments are resolved once here; workers
    never touch the registry, and no clock is read when the registry is
    the no-op one.
    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** Number of worker domains. *)

val map : t -> (int -> 'a -> 'b) -> 'a array -> ('b, error) result array
(** [map pool f arr] computes [f i arr.(i)] for every [i] on the pool
    and waits for all of them. Slot [i] of the result is [Ok] of the
    value or [Error] capturing the exception the task raised.
    @raise Invalid_argument if the pool has been shut down. *)

val shutdown : t -> unit
(** Drains nothing, joins all workers. Idempotent. Pending {!map} calls
    from other threads must have completed first. *)

val with_pool : ?jobs:int -> ?metrics:Glc_obs.Metrics.t -> (t -> 'a) -> 'a
(** [create], run, [shutdown] — shutdown happens on exceptions too. *)
