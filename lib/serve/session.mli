(** Request routing: one HTTP exchange against the daemon's state.

    {!handle} is a pure-ish function from shared state + request to
    response — it owns no socket, spawns no thread and never blocks on
    job execution, so the whole API surface is testable without a
    listener. Connection threads call it once per parsed request; all
    state access happens under {!ctx}'s mutex. Every time the daemon
    reads — admission stamps, queue waits, request latencies, ages,
    uptime — comes from one clock, {!Glc_obs.Clock.now}.

    {2 Endpoints}

    {v
    POST   /v1/jobs             submit      202 queued / 200 dedup
                                            422 lint / 400 invalid
                                            429 busy (Retry-After)
    GET    /v1/jobs             list        200
    GET    /v1/jobs/ID          status      200 / 404
    GET    /v1/jobs/ID/result   result      200 done / 404 unknown
                                            409 not done / 500 failed
    DELETE /v1/jobs/ID          cancel      200 queued-only / 409 / 404
    GET    /health              liveness    200
    GET    /metrics             scrape      200 text/plain
    v}

    Submission replies wrap the job status as
    [{"dedup":BOOL,"job":{…}}]. The result endpoint falls back to the
    on-disk store when the id has no registry entry, so results
    outlive daemon restarts even though lifecycle entries do not.
    Every response is JSON except [/metrics], which serves
    {!Glc_obs.Metrics.to_text}. *)

(** Shared daemon state, owned by the {!Server}, accessed under
    [mutex]. *)
type ctx = {
  adm : Admission.t;
  mutex : Mutex.t;
  cond : Condition.t;  (** signalled when a job is enqueued *)
  started_at : float;
  mutable stopping : bool;
}

val make_ctx : Admission.t -> ctx
(** A fresh context; [started_at] is now. *)

val error_body : string -> string
(** [{"error":<message>}], the body of every plain error reply. *)

val handle : ctx -> Protocol_wire.request -> Protocol_wire.response
(** Routes one request. Counts [serve.requests] and [serve.http_errors]
    (status ≥ 400) and observes wall time in [serve.request_seconds].
    Never raises: an unmatched route is a 404, an internal exception a
    500 with the printed exception in the body. *)
