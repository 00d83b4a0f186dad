module W = Protocol_wire
module Store = Glc_campaign.Store
module Diagnostic = Glc_lint.Diagnostic
module Metrics = Glc_obs.Metrics
module Json = Glc_obs.Json
module Clock = Glc_obs.Clock

type ctx = {
  adm : Admission.t;
  mutex : Mutex.t;
  cond : Condition.t;
  started_at : float;
  mutable stopping : bool;
}

let make_ctx adm =
  {
    adm;
    mutex = Mutex.create ();
    cond = Condition.create ();
    started_at = Clock.now ();
    stopping = false;
  }

let locked ctx f =
  Mutex.lock ctx.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ctx.mutex) f

let error_with message fields =
  Json.obj (("error", Json.string message) :: fields)

let error_body message = error_with message []

let submit_reply ~now ~dedup entry =
  Json.obj
    [ ("dedup", Json.bool dedup); ("job", Jobstate.status_json ~now entry) ]

(* ---- handlers (called under the ctx mutex) ---- *)

let post_job ctx body =
  let now = Clock.now () in
  if ctx.stopping then
    W.response 503 (error_body "daemon is shutting down")
  else
    match Admission.submit_of_json body with
    | Error m -> W.response 400 (error_body m)
    | Ok sub -> (
        match Admission.admit ctx.adm ~now sub with
        | Admission.Accepted entry ->
            Condition.signal ctx.cond;
            W.response 202 (submit_reply ~now ~dedup:false entry)
        | Admission.Duplicate entry ->
            W.response 200 (submit_reply ~now ~dedup:true entry)
        | Admission.Completed (entry, _doc) ->
            W.response 200 (submit_reply ~now ~dedup:true entry)
        | Admission.Rejected_lint ds ->
            W.response 422
              (error_with "lint"
                 [ ("diagnostics", Json.arr (List.map Diagnostic.to_json ds)) ])
        | Admission.Rejected_busy retry_after ->
            W.response 429
              ~headers:[ ("Retry-After", string_of_int retry_after) ]
              (error_with "queue full"
                 [ ("retry_after_s", string_of_int retry_after) ])
        | Admission.Invalid m -> W.response 400 (error_body m))

let list_jobs ctx =
  let now = Clock.now () in
  let entries = Jobstate.entries ctx.adm.Admission.registry in
  W.response 200
    (Json.obj
       [
         ("jobs", Json.arr (List.map (Jobstate.status_json ~now) entries));
         ( "queue_depth",
           string_of_int (Scheduler.length ctx.adm.Admission.scheduler) );
       ])

let job_status ctx id =
  match Jobstate.find ctx.adm.Admission.registry id with
  | None -> W.response 404 (error_body ("unknown job " ^ id))
  | Some entry ->
      W.response 200 (Jobstate.status_json ~now:(Clock.now ()) entry)

let job_result ctx id =
  match Jobstate.find ctx.adm.Admission.registry id with
  | None -> (
      (* a previous daemon life may have completed it: results are
         durable even though registry entries are not *)
      match Store.get ctx.adm.Admission.store ~id with
      | Some doc -> W.response 200 doc
      | None -> W.response 404 (error_body ("unknown job " ^ id)))
  | Some entry -> (
      match entry.Jobstate.phase with
      | Jobstate.Done -> (
          match Store.get ctx.adm.Admission.store ~id with
          | Some doc -> W.response 200 doc
          | None ->
              W.response 500
                (error_body "result record missing from the store"))
      | Jobstate.Failed m ->
          W.response 500
            (error_with "job failed" [ ("detail", Json.string m) ])
      | Jobstate.Cancelled ->
          W.response 409 (error_body "job was cancelled")
      | Jobstate.Queued | Jobstate.Running ->
          let status = Jobstate.phase_label entry.Jobstate.phase in
          W.response 409
            (error_with "job not done" [ ("status", Json.string status) ]))

let cancel_job ctx id =
  match Jobstate.find ctx.adm.Admission.registry id with
  | None -> W.response 404 (error_body ("unknown job " ^ id))
  | Some entry -> (
      match entry.Jobstate.phase with
      | Jobstate.Queued -> (
          match
            Scheduler.remove ctx.adm.Admission.scheduler (fun e ->
                String.equal e.Jobstate.id id)
          with
          | None ->
              (* unreachable: a queued entry is in the scheduler *)
              W.response 409 (error_body "job already started")
          | Some _ ->
              entry.Jobstate.phase <- Jobstate.Cancelled;
              Admission.remove_submission ctx.adm ~id;
              Metrics.Counter.incr
                (Metrics.counter ctx.adm.Admission.metrics
                   "serve.jobs_cancelled");
              Admission.note_queue_depth ctx.adm;
              W.response 200
                (Jobstate.status_json ~now:(Clock.now ()) entry))
      | Jobstate.Running ->
          W.response 409 (error_body "job is running; cannot cancel")
      | Jobstate.Done | Jobstate.Failed _ | Jobstate.Cancelled ->
          W.response 409
            (error_body
               ("job is already " ^ Jobstate.phase_label entry.Jobstate.phase)))

let health ctx =
  let reg = ctx.adm.Admission.registry in
  let count phase = string_of_int (Jobstate.count reg phase) in
  W.response 200
    (Json.obj
       [
         ("ok", Json.bool true);
         ( "uptime_s",
           Json.float (Float.max 0. (Clock.now () -. ctx.started_at)) );
         ("queued", count Jobstate.Queued);
         ("running", count Jobstate.Running);
         ("done", count Jobstate.Done);
         ("failed", count (Jobstate.Failed ""));
         ("cancelled", count Jobstate.Cancelled);
       ])

let metrics_scrape ctx =
  W.response ~content_type:"text/plain; version=0.0.4" 200
    (Metrics.to_text ctx.adm.Admission.metrics)

let route ctx (req : W.request) =
  let path = W.path_of_target req.W.target in
  match (req.W.meth, W.split_path path) with
  | W.POST, [ "v1"; "jobs" ] -> locked ctx (fun () -> post_job ctx req.W.body)
  | W.GET, [ "v1"; "jobs" ] -> locked ctx (fun () -> list_jobs ctx)
  | W.GET, [ "v1"; "jobs"; id ] -> locked ctx (fun () -> job_status ctx id)
  | W.GET, [ "v1"; "jobs"; id; "result" ] ->
      locked ctx (fun () -> job_result ctx id)
  | W.DELETE, [ "v1"; "jobs"; id ] -> locked ctx (fun () -> cancel_job ctx id)
  | W.GET, [ "health" ] -> locked ctx (fun () -> health ctx)
  | W.GET, [ "metrics" ] ->
      (* to_text takes the registry's own locks; no ctx mutex needed *)
      metrics_scrape ctx
  | _ -> W.response 404 (error_body ("no route for " ^ path))

let handle ctx req =
  let metrics = ctx.adm.Admission.metrics in
  let t0 = Clock.now () in
  let resp = try route ctx req with e -> W.response 500 (error_body (Printexc.to_string e)) in
  Metrics.Counter.incr (Metrics.counter metrics "serve.requests");
  if resp.W.status >= 400 then
    Metrics.Counter.incr (Metrics.counter metrics "serve.http_errors");
  Metrics.Histogram.observe
    (Metrics.histogram metrics "serve.request_seconds")
    (Float.max 0. (Clock.now () -. t0));
  resp
