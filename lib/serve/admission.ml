module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Lint = Glc_lint.Lint
module Diagnostic = Glc_lint.Diagnostic
module Metrics = Glc_obs.Metrics
module Json = Glc_core.Report.Json

type config = {
  seed : int;
  total_time : float;
  hold_time : float;
  lint_admission : bool;
  queue_capacity : int;
}

let config ?(seed = 42) ?(total_time = 10_000.) ?(hold_time = 1_000.)
    ?(lint_admission = true) ?(queue_capacity = 64) () =
  if total_time <= 0. || hold_time <= 0. then
    invalid_arg "Admission.config: non-positive time";
  if queue_capacity < 1 then
    invalid_arg "Admission.config: queue_capacity < 1";
  { seed; total_time; hold_time; lint_admission; queue_capacity }

type t = {
  cfg : config;
  registry : Jobstate.registry;
  scheduler : Jobstate.entry Scheduler.t;
  store : Store.t;
  journal : Journal.t;
  submitted_dir : string;
  metrics : Glc_obs.Metrics.t;
  mutable avg_job_seconds : float;
}

let submitted_subdir = "submitted"

(* Instruments register on first use, which would leave untouched
   counters (a fresh daemon's serve.jobs_failed, say) out of the
   /metrics exposition entirely. Scrape consumers — CI ceilings
   included — want the whole family present from the first scrape, so
   touch every serve.* instrument up front. *)
let preregister metrics =
  List.iter
    (fun name -> ignore (Metrics.counter metrics name))
    [
      "serve.jobs_submitted"; "serve.jobs_completed"; "serve.jobs_failed";
      "serve.jobs_cancelled"; "serve.jobs_resumed"; "serve.dedup_hits";
      "serve.admission_rejected_lint"; "serve.admission_rejected_busy";
      "serve.admission_invalid"; "serve.requests"; "serve.http_errors";
    ];
  List.iter
    (fun name -> ignore (Metrics.gauge metrics name))
    [ "serve.queue_depth"; "serve.jobs_running" ];
  List.iter
    (fun name -> ignore (Metrics.histogram metrics name))
    [ "serve.job_seconds"; "serve.queue_wait_seconds";
      "serve.request_seconds" ]

let create ~cfg ~store ~journal ~metrics ~state_dir =
  let submitted_dir = Filename.concat state_dir submitted_subdir in
  Store.mkdir_p submitted_dir;
  preregister metrics;
  {
    cfg;
    registry = Jobstate.registry ();
    scheduler = Scheduler.create ~capacity:cfg.queue_capacity;
    store;
    journal;
    submitted_dir;
    metrics;
    avg_job_seconds = 0.;
  }

type submit = {
  sub_circuit : string;
  sub_threshold : float option;
  sub_fov_ud : float option;
  sub_input_high : float option;
  sub_replicates : int option;
  sub_priority : int option;
}

let submit_of_json text =
  match Json.parse text with
  | Error m -> Error (Printf.sprintf "request body is not JSON: %s" m)
  | Ok doc -> (
      match Option.bind (Json.member doc "circuit") Json.to_str with
      | None -> Error "submission lacks a \"circuit\" field"
      | Some sub_circuit ->
          let num k = Option.bind (Json.member doc k) Json.to_number in
          let int k = Option.bind (Json.member doc k) Json.to_int in
          Ok
            {
              sub_circuit;
              sub_threshold = num "threshold";
              sub_fov_ud = num "fov_ud";
              sub_input_high = num "input_high";
              sub_replicates = int "replicates";
              sub_priority = int "priority";
            })

type outcome =
  | Accepted of Jobstate.entry
  | Duplicate of Jobstate.entry
  | Completed of Jobstate.entry * string
  | Rejected_lint of Diagnostic.t list
  | Rejected_busy of int
  | Invalid of string

let retry_after ~queue_depth ~avg_job_seconds =
  let avg = if avg_job_seconds > 0. then avg_job_seconds else 1. in
  let hint = Float.ceil (float_of_int (max queue_depth 1) *. avg) in
  int_of_float (Float.min 600. (Float.max 1. hint))

let note_job_seconds t dt =
  (* EWMA with alpha 0.3: reacts within a few jobs, forgets bursts *)
  if dt >= 0. then
    t.avg_job_seconds <-
      (if t.avg_job_seconds <= 0. then dt
       else (0.7 *. t.avg_job_seconds) +. (0.3 *. dt))

let protocol_of t job =
  let spec =
    Jobstate.spec_for ~seed:t.cfg.seed ~total_time:t.cfg.total_time
      ~hold_time:t.cfg.hold_time job
  in
  Runner.job_protocol spec job

let submitted_path t ~id = Filename.concat t.submitted_dir (id ^ ".json")

(* a submission record is either fully present or absent after any
   crash, never truncated *)
let persist_submission t entry =
  Store.atomic_write (submitted_path t ~id:entry.Jobstate.id)
    (Jobstate.submission_json entry)

let remove_submission t ~id =
  try Sys.remove (submitted_path t ~id) with Sys_error _ -> ()

let pending_submissions ~state_dir =
  let dir = Filename.concat state_dir submitted_subdir in
  if not (Sys.file_exists dir) then Ok []
  else
    match Sys.readdir dir with
    | exception Sys_error m -> Error m
    | names ->
        Array.to_list names
        |> List.filter (fun n -> Filename.check_suffix n ".json")
        |> List.filter_map (fun n ->
               match Store.read_file (Filename.concat dir n) with
               | exception _ -> None
               | text -> (
                   match Jobstate.submission_of_json text with
                   | Ok r -> Some r
                   | Error _ -> None))
        |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
        |> Result.ok

let lint_errors t job =
  match Runner.resolve job.Grid.j_circuit with
  | Error m -> Error (Invalid m)
  | Ok circuit ->
      let ds = Lint.circuit ~protocol:(protocol_of t job) ~metrics:t.metrics circuit in
      if Diagnostic.exit_code ds >= 2 then Error (Rejected_lint ds) else Ok ()

let queue_depth_gauge t =
  Metrics.Gauge.set
    (Metrics.gauge t.metrics "serve.queue_depth")
    (float_of_int (Scheduler.length t.scheduler))

let admit t ~now (s : submit) =
  let counter name = Metrics.counter t.metrics name in
  Metrics.Counter.incr (counter "serve.jobs_submitted");
  match
    Jobstate.job ~circuit:s.sub_circuit ?threshold:s.sub_threshold
      ?fov_ud:s.sub_fov_ud ?input_high:s.sub_input_high
      ?replicates:s.sub_replicates ()
  with
  | Error m ->
      Metrics.Counter.incr (counter "serve.admission_invalid");
      Invalid m
  | Ok job -> (
      let priority =
        match s.sub_priority with
        | None -> 5
        | Some p -> max 0 (min 9 p)
      in
      let id = Grid.job_id job in
      match Jobstate.find t.registry id with
      | Some entry ->
          (* the same coordinates hash to the same id: this submission
             is already queued, running, or finished here *)
          Metrics.Counter.incr (counter "serve.dedup_hits");
          Duplicate entry
      | None -> (
          match Store.get t.store ~id with
          | Some doc ->
              (* a previous daemon life (or a campaign sharing the
                 store) already computed it: serve the stored bytes *)
              Metrics.Counter.incr (counter "serve.dedup_hits");
              let entry =
                Jobstate.make ~job ~priority
                  ~seq:(Scheduler.length t.scheduler) ~now
              in
              entry.Jobstate.phase <- Jobstate.Done;
              entry.Jobstate.from_cache <- true;
              Jobstate.add t.registry entry;
              Completed (entry, doc)
          | None -> (
              match
                if t.cfg.lint_admission then lint_errors t job else Ok ()
              with
              | Error (Rejected_lint _ as r) ->
                  Metrics.Counter.incr
                    (counter "serve.admission_rejected_lint");
                  r
              | Error (Invalid _ as r) ->
                  Metrics.Counter.incr (counter "serve.admission_invalid");
                  r
              | Error r -> r
              | Ok () ->
                  if Scheduler.is_full t.scheduler then begin
                    Metrics.Counter.incr
                      (counter "serve.admission_rejected_busy");
                    Rejected_busy
                      (retry_after
                         ~queue_depth:(Scheduler.length t.scheduler)
                         ~avg_job_seconds:t.avg_job_seconds)
                  end
                  else begin
                    let seq = Scheduler.next_seq t.scheduler in
                    let entry = Jobstate.make ~job ~priority ~seq ~now in
                    match
                      Scheduler.push_seq t.scheduler ~priority ~seq entry
                    with
                    | `Full ->
                        (* capacity re-checked above; unreachable, but
                           fail closed *)
                        Metrics.Counter.incr
                          (counter "serve.admission_rejected_busy");
                        Rejected_busy
                          (retry_after
                             ~queue_depth:(Scheduler.length t.scheduler)
                             ~avg_job_seconds:t.avg_job_seconds)
                    | `Queued _ ->
                        (* persist before acknowledging: a daemon killed
                           after this line still re-discovers the job *)
                        persist_submission t entry;
                        Journal.append t.journal (Journal.Scheduled id);
                        Jobstate.add t.registry entry;
                        queue_depth_gauge t;
                        Accepted entry
                  end)))
