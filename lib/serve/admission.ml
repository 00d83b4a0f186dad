module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Lint = Glc_lint.Lint
module Diagnostic = Glc_lint.Diagnostic
module Metrics = Glc_obs.Metrics
module Json = Glc_obs.Json

type t = {
  registry : Jobstate.registry;
  scheduler : Jobstate.entry Scheduler.t;
  store : Store.t;
  journal : Journal.t;
  submitted_dir : string;
  metrics : Glc_obs.Metrics.t;
  spec_for : Grid.job -> Grid.spec;
  lint : bool;
  mutable next_seq : int;
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

let create ~spec_for ~lint ~capacity ~store ~journal ~metrics ~state_dir =
  let submitted_dir = Filename.concat state_dir submitted_subdir in
  Store.mkdir_p submitted_dir;
  preregister metrics;
  {
    registry = Jobstate.registry ();
    scheduler = Scheduler.create ~capacity;
    store;
    journal;
    submitted_dir;
    metrics;
    spec_for;
    lint;
    next_seq = 0;
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
      match Json.str_field doc "circuit" with
      | None -> Error "submission lacks a \"circuit\" field"
      | Some sub_circuit ->
          let num = Json.number_field doc and int = Json.int_field doc in
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

let submitted_path t ~id = Filename.concat t.submitted_dir (id ^ ".json")

let remove_submission t ~id =
  try Sys.remove (submitted_path t ~id) with Sys_error _ -> ()

let pending_submissions dir =
  match Sys.readdir dir with
  | exception Sys_error m -> Error m
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n ".json")
      |> List.filter_map (fun n ->
             match
               In_channel.with_open_bin (Filename.concat dir n)
                 In_channel.input_all
             with
             | exception _ -> None
             | text -> Result.to_option (Jobstate.submission_of_json text))
      |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
      |> Result.ok

let note_queue_depth t =
  Metrics.Gauge.set
    (Metrics.gauge t.metrics "serve.queue_depth")
    (float_of_int (Scheduler.length t.scheduler))

(* Every registered entry carries its own admission number; the
   counter only ever moves past the numbers handed out. *)
let register t (e : Jobstate.entry) =
  t.next_seq <- max t.next_seq (e.Jobstate.seq + 1);
  Jobstate.add t.registry e

let register_done t e =
  e.Jobstate.phase <- Jobstate.Done;
  e.Jobstate.from_cache <- true;
  register t e

let recover t ~now =
  match pending_submissions t.submitted_dir with
  | Error m -> Error m
  | Ok records ->
      let resumed = ref 0 in
      List.iter
        (fun (job, priority, seq) ->
          (* a refused record still owns its number for the next life *)
          t.next_seq <- max t.next_seq (seq + 1);
          let entry = Jobstate.make ~job ~priority ~seq ~now in
          let id = entry.Jobstate.id in
          if Store.mem t.store ~id then begin
            (* the result landed before the crash removed the record *)
            register_done t entry;
            remove_submission t ~id
          end
          else
            match Scheduler.push t.scheduler ~priority ~seq entry with
            | `Full -> () (* capacity shrank across restarts: next life *)
            | `Queued ->
                incr resumed;
                Journal.append t.journal (Journal.Scheduled id);
                register t entry)
        records;
      if !resumed > 0 then
        Metrics.Counter.add (Metrics.counter t.metrics "serve.jobs_resumed")
          !resumed;
      note_queue_depth t;
      Ok ()

let lint_errors t job =
  match Runner.resolve job.Grid.j_circuit with
  | Error m -> Error (Invalid m)
  | Ok circuit ->
      let protocol = Runner.job_protocol (t.spec_for job) job in
      let ds = Lint.circuit ~protocol ~metrics:t.metrics circuit in
      if Diagnostic.exit_code ds >= 2 then Error (Rejected_lint ds) else Ok ()

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
      let entry = Jobstate.make ~job ~priority ~seq:t.next_seq ~now in
      let id = entry.Jobstate.id in
      match Jobstate.find t.registry id with
      | Some known ->
          (* the same coordinates hash to the same id: this submission
             is already queued, running, or finished here *)
          Metrics.Counter.incr (counter "serve.dedup_hits");
          Duplicate known
      | None -> (
          match Store.get t.store ~id with
          | Some doc ->
              (* a previous daemon life (or a campaign sharing the
                 store) already computed it: serve the stored bytes *)
              Metrics.Counter.incr (counter "serve.dedup_hits");
              register_done t entry;
              Completed (entry, doc)
          | None -> (
              match if t.lint then lint_errors t job else Ok () with
              | Error (Rejected_lint _ as r) ->
                  Metrics.Counter.incr
                    (counter "serve.admission_rejected_lint");
                  r
              | Error (Invalid _ as r) ->
                  Metrics.Counter.incr (counter "serve.admission_invalid");
                  r
              | Error r -> r
              | Ok () -> (
                  match
                    Scheduler.push t.scheduler ~priority ~seq:entry.Jobstate.seq
                      entry
                  with
                  | `Full ->
                      Metrics.Counter.incr
                        (counter "serve.admission_rejected_busy");
                      Rejected_busy
                        (retry_after
                           ~queue_depth:(Scheduler.length t.scheduler)
                           ~avg_job_seconds:t.avg_job_seconds)
                  | `Queued ->
                      (* persist before acknowledging: a daemon killed
                         after this line still re-discovers the job *)
                      Store.atomic_write (submitted_path t ~id)
                        (Jobstate.submission_json entry);
                      Journal.append t.journal (Journal.Scheduled id);
                      register t entry;
                      note_queue_depth t;
                      Accepted entry))))
