(** Restarting an interrupted campaign.

    Resume is pure bookkeeping over the on-disk state: re-read the
    manifest, re-expand the grid (deterministically), skip every job
    whose result is present and parseable in the {!Store}, and re-queue
    the rest — including jobs that previously failed or were in flight
    when the process died. Because job seeds are content-derived
    ({!Grid.job_seed}), the re-run jobs produce exactly the bytes they
    would have produced in the uninterrupted run, and the final
    {!Store.report_json} of a resumed campaign is byte-identical to an
    uninterrupted one with the same root seed. *)

val load : dir:string -> (Store.t * Grid.spec, string) result
(** Opens the campaign directory and parses its manifest. *)

val pending : store:Store.t -> Grid.job list -> Grid.job list
(** The jobs without a stored result, in grid order. *)

type status = {
  s_total : int;
  s_done : int;
  s_pending : string list;  (** ids, grid order *)
  s_attempts : (string * int) list;  (** started-events per id, grid order *)
  s_failures : (string * string) list;  (** last failure per id, grid order *)
  s_jobs_per_second : float option;
      (** observed completion rate, from the modification times of the
          stored results; [None] until two results exist at distinct
          times *)
  s_eta_seconds : float option;
      (** [pending / rate] — [None] when the rate is unknown or nothing
          is pending *)
}

val status : dir:string -> (status, string) result
(** Store + journal summary: how far the campaign got, which jobs were
    attempted how often, the last recorded failure per job, and a
    throughput/ETA estimate for what remains. *)

val run :
  ?jobs:int ->
  ?limit:int ->
  ?on_progress:(Runner.progress -> unit) ->
  ?metrics:Glc_obs.Metrics.t ->
  ?should_stop:(unit -> bool) ->
  ?certified_only:bool ->
  dir:string ->
  unit ->
  (Store.t * Grid.spec * Runner.summary, string) result
(** Loads the campaign, computes the pending set and drains it through
    {!Runner.run} (appending to the existing journal). Also the
    implementation of a {e fresh} run — a fresh campaign is a resume
    with an empty store.

    The drain holds the directory's single-writer {!Store.Lock}: a
    second process draining the same campaign concurrently gets a clean
    [Error] instead of duplicated work and an interleaved journal (a
    stale lock left by a [kill -9] is detected and broken); a journal
    that cannot be opened is an [Error] too ({!Store.guard}), and the
    lock is released. [should_stop] is the graceful-interrupt hook,
    polled between jobs — see {!Runner.run}.

    [certified_only] (default [false]) prunes the pending set before
    the drain: every pending job is certified once ({!Runner.certify},
    counted on [metrics]), and only those whose certificate settles
    every row are kept, each handed its certificate so the drain does
    not certify it again. Pruned jobs are neither scheduled nor counted
    in [remaining]; unresolvable circuits stay, so the drain journals
    their failure. The function-space atlas uses it: a sweep finishes
    without simulating, and the undecided functions stay pending for a
    later full drain. *)
