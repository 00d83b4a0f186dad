(** Admission control: what happens to a submission at the door.

    The daemon spends simulation time only on jobs that deserve it, in
    an order it controls, under a memory bound it enforces. Admission
    is that policy, in sequence:

    + {b validate} — the submission must name a resolvable circuit and
      carry legal parameters (checked through the campaign grid
      constructor, so serve and batch enforce identical rules);
    + {b deduplicate} — the job id is content-derived, so a duplicate
      submission is recognised exactly: if the result is already in
      the {!Glc_campaign.Store} (this daemon life or a previous one)
      it is served straight from disk, and if the job is already
      queued/running the existing entry is returned — no simulation,
      no queue slot;
    + {b lint pre-flight} — the circuit runs the full
      {!Glc_lint.Lint.circuit} static pass under the job's protocol;
      lint {e errors} reject the submission with the GLC diagnostics
      in the response body, before any queue slot or SSA step is
      spent;
    + {b backpressure} — a full {!Scheduler} rejects with a
      retry-after hint derived from the observed job rate, rather than
      growing without bound;
    + {b persist} — an accepted job is recorded under
      [<state>/submitted/<id>.json] (atomic write) and journaled
      [scheduled] {e before} it is acknowledged, so a daemon killed at
      any instant re-discovers every acknowledged job on restart
      ({!recover}).

    Admission owns the facts a submission leaves behind: the registry
    (an entry is registered only when it is queued or its result is
    stored, so "queued" in a status reply means the {!Scheduler} holds
    it), the submission records, and the admission counter whose next
    number every registered entry takes as its [seq].

    All entry points must be called under the server's state mutex. *)

module Grid := Glc_campaign.Grid
module Store := Glc_campaign.Store
module Journal := Glc_campaign.Journal
module Diagnostic := Glc_lint.Diagnostic

type t = {
  registry : Jobstate.registry;
  scheduler : Jobstate.entry Scheduler.t;
  store : Store.t;
  journal : Journal.t;
  submitted_dir : string;
  metrics : Glc_obs.Metrics.t;
  spec_for : Grid.job -> Grid.spec;
      (** the campaign spec a job executes under — what the lint
          pre-flight checks and what the worker runs *)
  lint : bool;  (** run the lint pre-flight *)
  mutable next_seq : int;
      (** the admission counter: the next entry's sequence number *)
  mutable avg_job_seconds : float;
      (** EWMA of completed-job wall time; feeds the retry-after hint *)
}

val create :
  spec_for:(Grid.job -> Grid.spec) -> lint:bool -> capacity:int ->
  store:Store.t -> journal:Journal.t -> metrics:Glc_obs.Metrics.t ->
  state_dir:string -> t
(** Empty registry, a scheduler of [capacity] (which the {!Server} has
    already checked), and [<state_dir>/submitted/]. *)

val recover : t -> now:float -> (unit, string) result
(** Replays the persisted admission records, in sequence order. A
    record whose result is already stored registers as done and is
    removed; the others are re-enqueued under their original priority
    and sequence number, journaled [scheduled] and counted in
    [serve.jobs_resumed]. A record the queue refuses (a restart with a
    smaller capacity) is neither registered nor removed — it waits on
    disk for the next life. The counter moves past every persisted
    number, refused ones included. Unreadable records are skipped;
    [Error] only when the directory cannot be listed. *)

(** A parsed submission request body. *)
type submit = {
  sub_circuit : string;
  sub_threshold : float option;
  sub_fov_ud : float option;
  sub_input_high : float option;
  sub_replicates : int option;
  sub_priority : int option;  (** 0–9, default 5; higher runs earlier *)
}

val submit_of_json : string -> (submit, string) result
(** Parses [{"circuit":…,"threshold":…,…,"priority":…}]; only
    [circuit] is required. Unknown fields are ignored. *)

type outcome =
  | Accepted of Jobstate.entry  (** enqueued; signal the worker *)
  | Duplicate of Jobstate.entry
      (** already known to this daemon (any phase) — no new work *)
  | Completed of Jobstate.entry * string
      (** result already in the store; entry registered as done,
          document attached *)
  | Rejected_lint of Diagnostic.t list  (** lint errors; GLC codes *)
  | Rejected_busy of int  (** queue full; retry-after seconds *)
  | Invalid of string  (** unresolvable circuit / illegal parameters *)

val admit : t -> now:float -> submit -> outcome
(** Runs the policy above. Every entry it registers — queued or served
    from the store — takes the next admission number. Counts
    [serve.jobs_submitted], [serve.dedup_hits],
    [serve.admission_rejected_lint], [serve.admission_rejected_busy]
    and maintains the [serve.queue_depth] gauge. *)

val retry_after : queue_depth:int -> avg_job_seconds:float -> int
(** The backpressure hint: roughly the time the current queue needs to
    drain at the observed rate, [ceil (depth × avg)] clamped to
    [1–600] seconds. Pure — unit-tested against a fake clock's
    averages. *)

val note_job_seconds : t -> float -> unit
(** Feeds a completed job's wall time into the EWMA (worker calls it). *)

val note_queue_depth : t -> unit
(** Sets the [serve.queue_depth] gauge to the scheduler's length. *)

val remove_submission : t -> id:string -> unit
(** Removes the record once the job is done or cancelled. Never
    raises. *)
