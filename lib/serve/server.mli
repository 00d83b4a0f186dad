(** The verification daemon: unix-socket listener, worker, lifecycle.

    One process owns one state directory (guarded by
    {!Glc_campaign.Store.Lock}) and one unix socket. Three kinds of
    thread cooperate:

    - the {e accept loop} ({!run}, the calling thread) multiplexes a
      [select] with a 250 ms tick so shutdown flags are noticed
      promptly without busy-waiting;
    - one {e connection thread} per accepted client parses HTTP/1.1
      requests ({!Protocol_wire}) and answers through
      {!Session.handle}, keeping the connection open until the peer
      closes or sends [Connection: close];
    - one {e worker thread} pops the {!Scheduler} under the shared
      mutex and executes jobs on a shared {!Glc_engine.Pool} of
      domains through a shared compiled-model {!Glc_engine.Cache} —
      the same [Runner.run_job] path campaigns use, so a job's stored
      bytes are independent of how it arrived.

    {2 Settings}

    {!type-config} is the daemon's one settings record. {!create}
    checks it before it touches the state directory, and again after a
    stored manifest has overridden the seed and times; either failure
    is an [Error] that leaves nothing written or held.

    {2 Crash recovery}

    Admission persists every accepted job under
    [<state>/submitted/<id>.json] before acknowledging it, and the
    worker removes the record only after the result is in the store.
    {!create} therefore replays the leftover records through
    {!Admission.recover} (original priority and sequence number) — a
    daemon killed with [SIGKILL] mid-job resumes it on restart and,
    because the job's seed is content-derived, stores byte-identical
    results. The journal is history only; recovery reads the records
    and the result store.

    {2 Shutdown}

    {!stop} (or a [SIGINT]/[SIGTERM] via
    {!install_signal_handlers}) stops accepting, lets the in-flight
    job finish and persist, then closes the journal, removes the
    socket and releases the lock. Queued-but-unstarted jobs stay on
    disk for the next life. *)

type config = {
  socket_path : string;
  state_dir : string;
  pool_jobs : int;  (** worker-pool domains; 0 = hardware *)
  queue_capacity : int;
  seed : int;
  total_time : float;
  hold_time : float;
  lint_admission : bool;
  start_worker : bool;
      (** disable to keep admitted jobs queued — the deterministic
          cancel/restart test hook; the CLI always starts it *)
  metrics : Glc_obs.Metrics.t;
}

val config :
  socket_path:string ->
  state_dir:string ->
  ?pool_jobs:int ->
  ?queue_capacity:int ->
  ?seed:int ->
  ?total_time:float ->
  ?hold_time:float ->
  ?lint_admission:bool ->
  ?start_worker:bool ->
  ?metrics:Glc_obs.Metrics.t ->
  unit ->
  config
(** Defaults: pool 0 (hardware), queue 64, seed 42, the paper's
    10,000/1,000 t.u. protocol, lint on, worker on, metrics noop. *)

type t

val create : config -> (t, string) result
(** Checks the settings ([Error] on a queue capacity below 1 or a
    non-positive or non-finite time, before anything is written),
    acquires the state-directory lock, opens (or initialises) the
    store — a fresh directory gets a serve manifest
    [{"serve":1,"seed":…,…}]; an existing serve manifest {e overrides}
    the configured seed/times so a restart always resumes under the
    parameters the stored results were computed with, and is checked
    like the flags; a campaign manifest is refused — opens the
    journal, recovers persisted submissions, and binds + listens on
    [socket_path] (removing a stale socket file first). On [Error]
    nothing is left held. *)

val ctx : t -> Session.ctx
(** The shared state — what tests poke at directly. *)

val run : t -> unit
(** Serves until {!stop}; returns only after the worker has drained
    its in-flight job and every resource (socket, journal, lock) is
    released. Call at most once. *)

val stop : t -> unit
(** Requests shutdown; idempotent, callable from any thread (not from
    a signal handler — use {!install_signal_handlers}). Returns
    immediately; {!run} unblocks within its 250 ms tick. *)

val install_signal_handlers : t -> unit
(** Routes [SIGINT] and [SIGTERM] to an async-signal-safe shutdown
    flag that {!run}'s tick converts into {!stop}. *)
