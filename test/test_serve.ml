(* Tests for lib/serve: HTTP framing from strings, the bounded priority
   scheduler, admission backpressure arithmetic, submission-record
   round-trips, and in-process end-to-end runs of the daemon — submit /
   dedup / lint-reject / cancel / restart-resume — over real unix
   sockets, including the headline contract: a job's result document is
   byte-identical whether it was computed by the daemon (in any life)
   or by a campaign drain. *)

module W = Glc_serve.Protocol_wire
module Scheduler = Glc_serve.Scheduler
module Jobstate = Glc_serve.Jobstate
module Admission = Glc_serve.Admission
module Server = Glc_serve.Server
module Client = Glc_serve.Client
module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Pool = Glc_engine.Pool
module Cache = Glc_engine.Cache
module Metrics = Glc_obs.Metrics
module Json = Glc_obs.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i n =
    if i + nn > nh then n
    else go (i + 1) (if String.sub hay i nn = needle then n + 1 else n)
  in
  go 0 0

let contains hay needle = occurrences hay needle > 0

(* ---- scratch state ---- *)

let fresh =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let base =
      Printf.sprintf "glc-serve-%d-%d" (Unix.getpid ()) !counter
    in
    ( Filename.concat (Filename.get_temp_dir_name ()) base,
      Filename.concat (Filename.get_temp_dir_name ()) (base ^ ".sock") )

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_state f =
  let dir, sock = fresh () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f ~dir ~sock)

(* A daemon running in its own thread for the duration of [f]. *)
let with_server ?(start_worker = true) ?queue_capacity ~dir ~sock f =
  let metrics = Metrics.create () in
  let cfg =
    Server.config ~socket_path:sock ~state_dir:dir ~pool_jobs:2
      ?queue_capacity ~total_time:2_000. ~hold_time:1_000. ~start_worker
      ~metrics ()
  in
  let server = Result.get_ok (Server.create cfg) in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Thread.join thread)
    (fun () -> f server metrics (Client.connect ~socket:sock))

(* The bytes an identical campaign cell stores — the byte-identity
   reference. Protocol parameters must match with_server's. *)
let reference_document job =
  let spec =
    Jobstate.spec_for ~seed:42 ~total_time:2_000. ~hold_time:1_000. job
  in
  Pool.with_pool ~jobs:2 (fun pool ->
      let cache = Cache.create () in
      Runner.run_job ~pool ~cache spec job)

let not_job () =
  Result.get_ok (Jobstate.job ~circuit:"genetic_NOT" ~replicates:2 ())

(* ---- protocol_wire ---- *)

let read_str s = W.read_request (W.string_reader s)

let test_wire_request_roundtrip () =
  let req =
    {
      W.meth = W.POST;
      target = "/v1/jobs";
      headers = [ ("content-type", "application/json") ];
      body = "{\"circuit\":\"x\"}";
    }
  in
  match read_str (W.render_request req) with
  | Ok (Some r) ->
      checkb "method" true (r.W.meth = W.POST);
      checks "target" "/v1/jobs" r.W.target;
      checks "body" req.W.body r.W.body;
      checkb "keep alive by default" true (W.keep_alive r)
  | Ok None -> Alcotest.fail "unexpected EOF"
  | Error m -> Alcotest.fail m

let test_wire_response_roundtrip () =
  let resp = W.response 202 "{\"ok\":true}" in
  match W.read_response (W.string_reader (W.render_response resp)) with
  | Error m -> Alcotest.fail m
  | Ok r ->
      checki "status" 202 r.W.status;
      checks "body" "{\"ok\":true}" r.W.resp_body;
      checkb "content-type carried" true
        (W.header r.W.resp_headers "content-type" <> None)

let test_wire_rejects () =
  let err s =
    match read_str s with Error _ -> true | Ok _ -> false
  in
  checkb "clean EOF is Ok None" true (read_str "" = Ok None);
  checkb "unsupported method" true (err "PUT /x HTTP/1.1\r\n\r\n");
  checkb "chunked rejected" true
    (err "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n");
  checkb "POST without length" true (err "POST /x HTTP/1.1\r\n\r\n");
  checkb "oversized body" true
    (err
       (Printf.sprintf "POST /x HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
          (W.max_body_bytes + 1)));
  checkb "garbage request line" true (err "not http\r\n\r\n");
  checkb "truncated head" true (err "GET /x HTTP/1.1\r\n")

let test_wire_connection_close () =
  match
    read_str "GET /health HTTP/1.1\r\nConnection: close\r\n\r\n"
  with
  | Ok (Some r) -> checkb "close honoured" false (W.keep_alive r)
  | _ -> Alcotest.fail "parse failed"

let test_wire_paths () =
  checks "query stripped" "/v1/jobs" (W.path_of_target "/v1/jobs?x=1");
  Alcotest.(check (list string))
    "segments" [ "v1"; "jobs"; "abc" ]
    (W.split_path "/v1/jobs/abc")

(* ---- scheduler ---- *)

let test_scheduler_priority_fifo () =
  let q = Scheduler.create ~capacity:8 in
  ignore (Scheduler.push q ~priority:5 ~seq:0 "a");
  ignore (Scheduler.push q ~priority:9 ~seq:1 "urgent");
  ignore (Scheduler.push q ~priority:5 ~seq:2 "b");
  ignore (Scheduler.push q ~priority:1 ~seq:3 "lazy");
  let pops = List.init 4 (fun _ -> Option.get (Scheduler.pop q)) in
  Alcotest.(check (list string))
    "priority order, FIFO within a level"
    [ "urgent"; "a"; "b"; "lazy" ] pops;
  checkb "drained" true (Scheduler.is_empty q)

let test_scheduler_backpressure () =
  let q = Scheduler.create ~capacity:2 in
  checkb "first fits" true (Scheduler.push q ~priority:5 ~seq:0 "a" = `Queued);
  checkb "second fits" true (Scheduler.push q ~priority:5 ~seq:1 "b" = `Queued);
  checkb "third rejected" true (Scheduler.push q ~priority:9 ~seq:2 "c" = `Full);
  checkb "full flag" true (Scheduler.is_full q);
  ignore (Scheduler.pop q);
  checkb "slot freed" true (Scheduler.push q ~priority:0 ~seq:3 "d" = `Queued)

(* An admission layer over a fresh state directory, without a daemon:
   no lint, so admitting a job never resolves its circuit. *)
let with_admission ~dir ~capacity f =
  let store = Result.get_ok (Store.create ~dir "{}") in
  let journal = Journal.open_ ~dir in
  Fun.protect
    ~finally:(fun () -> Journal.close journal)
    (fun () ->
      f
        (Admission.create
           ~spec_for:
             (Jobstate.spec_for ~seed:42 ~total_time:2_000. ~hold_time:1_000.)
           ~lint:false ~capacity ~store ~journal ~metrics:Metrics.noop
           ~state_dir:dir))

let submit_not replicates =
  {
    Admission.sub_circuit = "genetic_NOT";
    sub_threshold = None;
    sub_fov_ud = None;
    sub_input_high = None;
    sub_replicates = Some replicates;
    sub_priority = None;
  }

let test_scheduler_seq_resume () =
  with_state (fun ~dir ~sock:_ ->
      with_admission ~dir ~capacity:8 (fun adm ->
          (* a restart re-enqueues persisted seqs; fresh admissions
             continue after them *)
          let old = Jobstate.make ~job:(not_job ()) ~priority:5 ~seq:7 ~now:0. in
          Store.atomic_write
            (Filename.concat adm.Admission.submitted_dir (old.Jobstate.id ^ ".json"))
            (Jobstate.submission_json old);
          Result.get_ok (Admission.recover adm ~now:0.);
          checki "counter advanced past resumed seq" 8 adm.Admission.next_seq;
          (match Admission.admit adm ~now:0. (submit_not 3) with
          | Admission.Accepted e -> checki "fresh admission continues" 8 e.Jobstate.seq
          | _ -> Alcotest.fail "not accepted");
          checks "resumed pops first (same priority, lower seq)" old.Jobstate.id
            (Option.get (Scheduler.pop adm.Admission.scheduler)).Jobstate.id))

let test_scheduler_remove () =
  let q = Scheduler.create ~capacity:8 in
  ignore (Scheduler.push q ~priority:5 ~seq:0 "keep");
  ignore (Scheduler.push q ~priority:5 ~seq:1 "drop");
  checkb "removes the match" true
    (Scheduler.remove q (String.equal "drop") = Some "drop");
  checkb "no rematch" true (Scheduler.remove q (String.equal "drop") = None);
  checki "one left" 1 (Scheduler.length q)

(* ---- admission arithmetic and records ---- *)

let test_retry_after () =
  (* deterministic: pure function of depth and the observed average *)
  checki "empty queue, no data yet" 1
    (Admission.retry_after ~queue_depth:0 ~avg_job_seconds:0.);
  checki "ceil of depth x avg" 8
    (Admission.retry_after ~queue_depth:5 ~avg_job_seconds:1.5);
  checki "clamped above" 600
    (Admission.retry_after ~queue_depth:1000 ~avg_job_seconds:10.);
  checki "clamped below" 1
    (Admission.retry_after ~queue_depth:1 ~avg_job_seconds:0.001)

let test_submission_roundtrip () =
  let job =
    Result.get_ok
      (Jobstate.job ~circuit:"genetic_NAND" ~threshold:20. ~fov_ud:0.3
         ~input_high:25. ~replicates:4 ())
  in
  let entry = Jobstate.make ~job ~priority:7 ~seq:3 ~now:123. in
  let job', priority, seq =
    Result.get_ok (Jobstate.submission_of_json (Jobstate.submission_json entry))
  in
  checki "priority" 7 priority;
  checki "seq" 3 seq;
  checks "same job id" (Grid.job_id job) (Grid.job_id job');
  checkb "rejects junk" true
    (Result.is_error (Jobstate.submission_of_json "{\"priority\":1}"))

let test_job_validation () =
  checkb "unknown circuits resolve lazily (id is content-derived)" true
    (Result.is_ok (Jobstate.job ~circuit:"0x1C" ()));
  checkb "bad replicates rejected" true
    (Result.is_error (Jobstate.job ~circuit:"genetic_NOT" ~replicates:0 ()));
  checkb "bad threshold rejected" true
    (Result.is_error
       (Jobstate.job ~circuit:"genetic_NOT" ~threshold:(-1.) ()))

(* ---- end-to-end over the socket ---- *)

let submit_ok client =
  match Client.submit ~replicates:2 client ~circuit:"genetic_NOT" with
  | Error m -> Alcotest.fail m
  | Ok resp -> resp

let test_e2e_submit_result_dedup () =
  with_state (fun ~dir ~sock ->
      with_server ~dir ~sock (fun _server metrics client ->
          (* health answers before any job *)
          let h = Result.get_ok (Client.health client) in
          checki "health" 200 h.W.status;
          (* first submission queues *)
          let r1 = submit_ok client in
          checki "accepted" 202 r1.W.status;
          checkb "not a dedup" true (contains r1.W.resp_body "\"dedup\":false");
          let id = Option.get (Client.job_id_of_response r1) in
          (* the result document equals the campaign-path bytes *)
          let resp =
            Result.get_ok (Client.result ~wait:true ~timeout_s:120. client ~id)
          in
          checki "result ready" 200 resp.W.status;
          checks "byte-identical to the campaign path"
            (reference_document (not_job ()))
            resp.W.resp_body;
          (* duplicate submission: instant, no new work *)
          let r2 = submit_ok client in
          checki "dedup answers 200" 200 r2.W.status;
          checkb "flagged as dedup" true (contains r2.W.resp_body "\"dedup\":true");
          (* metrics surface the story *)
          let text = Result.get_ok (Client.metrics client) in
          checkb "completed counted" true
            (contains text "serve_jobs_completed 1");
          checkb "dedup counted" true (contains text "serve_dedup_hits 1");
          checkb "nothing failed" true (contains text "serve_jobs_failed 0"
                                        || not (contains text "serve_jobs_failed"));
          ignore metrics))

let test_e2e_lint_reject () =
  with_state (fun ~dir ~sock ->
      with_server ~dir ~sock (fun _server _metrics client ->
          (* logic-1 inputs below the threshold: GLC011, an error *)
          match
            Client.submit ~input_high:1.0 ~replicates:2 client
              ~circuit:"genetic_NOT"
          with
          | Error m -> Alcotest.fail m
          | Ok resp ->
              checki "rejected" 422 resp.W.status;
              checkb "carries the GLC code" true
                (contains resp.W.resp_body "GLC011");
              (* nothing was queued or persisted *)
              let l = Result.get_ok (Client.list_jobs client) in
              checkb "no job registered" true
                (contains l.W.resp_body "\"jobs\":[]")))

let test_e2e_invalid_and_routes () =
  with_state (fun ~dir ~sock ->
      with_server ~dir ~sock (fun _server metrics client ->
          (match Client.submit ~replicates:0 client ~circuit:"genetic_NOT" with
          | Ok resp -> checki "invalid params are 400" 400 resp.W.status
          | Error m -> Alcotest.fail m);
          (* a threshold that parses to infinity is no job either: 400,
             nothing queued, nothing persisted *)
          (match
             Client.request client
               {
                 W.meth = W.POST;
                 target = "/v1/jobs";
                 headers = [ ("content-type", "application/json") ];
                 body = "{\"circuit\":\"genetic_NOT\",\"threshold\":1e999}";
               }
           with
          | Ok resp -> checki "infinite threshold is 400" 400 resp.W.status
          | Error m -> Alcotest.fail m);
          checki "both submissions invalid" 2
            (Metrics.Counter.value
               (Metrics.counter metrics "serve.admission_invalid"));
          (match Client.list_jobs client with
          | Ok resp ->
              checkb "nothing queued" false
                (contains resp.W.resp_body "genetic_NOT")
          | Error m -> Alcotest.fail m);
          let submitted = Filename.concat dir "submitted" in
          checki "nothing persisted" 0
            (if Sys.file_exists submitted then
               Array.length (Sys.readdir submitted)
             else 0);
          (match Client.status client ~id:"nope" with
          | Ok resp -> checki "unknown id is 404" 404 resp.W.status
          | Error m -> Alcotest.fail m);
          match
            Client.request client
              { W.meth = W.GET; target = "/nope"; headers = []; body = "" }
          with
          | Ok resp -> checki "unknown route is 404" 404 resp.W.status
          | Error m -> Alcotest.fail m))

let test_e2e_cancel () =
  with_state (fun ~dir ~sock ->
      (* no worker: the job stays queued, so cancel is deterministic *)
      with_server ~start_worker:false ~dir ~sock
        (fun _server _metrics client ->
          let r = submit_ok client in
          checki "queued" 202 r.W.status;
          let id = Option.get (Client.job_id_of_response r) in
          (match Client.result client ~id with
          | Ok resp -> checki "not done yet" 409 resp.W.status
          | Error m -> Alcotest.fail m);
          (match Client.cancel client ~id with
          | Ok resp ->
              checki "cancelled" 200 resp.W.status;
              checkb "status says so" true
                (contains resp.W.resp_body "\"status\":\"cancelled\"")
          | Error m -> Alcotest.fail m);
          (* cancelling again conflicts; the slot is gone *)
          match Client.cancel client ~id with
          | Ok resp -> checki "second cancel conflicts" 409 resp.W.status
          | Error m -> Alcotest.fail m))

let test_e2e_restart_resume_identical () =
  with_state (fun ~dir ~sock ->
      (* life 1: accept the job but never run it (no worker) — the
         simulated kill leaves only the persisted admission record *)
      let id =
        with_server ~start_worker:false ~dir ~sock
          (fun _server _metrics client ->
            let r = submit_ok client in
            checki "accepted" 202 r.W.status;
            Option.get (Client.job_id_of_response r))
      in
      (* life 2: a fresh daemon on the same state must re-discover,
         run, and store the job without a client in the loop *)
      with_server ~dir ~sock (fun _server metrics client ->
          let resp =
            Result.get_ok (Client.result ~wait:true ~timeout_s:120. client ~id)
          in
          checki "resumed job completed" 200 resp.W.status;
          checks "byte-identical across the restart"
            (reference_document (not_job ()))
            resp.W.resp_body;
          checki "resume counted" 1
            (Metrics.Counter.value
               (Metrics.counter metrics "serve.jobs_resumed"));
          ignore client))

let test_e2e_lock_contention () =
  with_state (fun ~dir ~sock ->
      with_server ~dir ~sock (fun _server _metrics _client ->
          let cfg2 =
            Server.config ~socket_path:(sock ^ "2") ~state_dir:dir ()
          in
          match Server.create cfg2 with
          | Ok _ -> Alcotest.fail "second daemon must not start"
          | Error m -> checkb "error mentions the lock" true (contains m "lock")))

let test_e2e_result_survives_restart () =
  with_state (fun ~dir ~sock ->
      let id =
        with_server ~dir ~sock (fun _server _metrics client ->
          let r = submit_ok client in
          let id = Option.get (Client.job_id_of_response r) in
          let resp =
            Result.get_ok (Client.result ~wait:true ~timeout_s:120. client ~id)
          in
          checki "done in life 1" 200 resp.W.status;
          id)
      in
      with_server ~dir ~sock (fun _server _metrics client ->
          (* no registry entry in life 2, but the store remembers *)
          let resp = Result.get_ok (Client.result client ~id) in
          checki "served from the store" 200 resp.W.status;
          checks "same bytes" (reference_document (not_job ()))
            resp.W.resp_body))

let test_e2e_bad_settings () =
  with_state (fun ~dir ~sock ->
      let create ?queue_capacity ?hold_time () =
        Server.create
          (Server.config ~socket_path:sock ~state_dir:dir ?queue_capacity
             ?hold_time ())
      in
      let left_behind () =
        List.filter
          (fun f -> Sys.file_exists (Filename.concat dir f))
          [ "MANIFEST.json"; "LOCK"; "journal.jsonl" ]
      in
      checkb "queue 0 is an error" true
        (Result.is_error (create ~queue_capacity:0 ()));
      Alcotest.(check (list string)) "queue 0 writes nothing" [] (left_behind ());
      checkb "hold 0 is an error" true (Result.is_error (create ~hold_time:0. ()));
      Alcotest.(check (list string)) "hold 0 writes nothing" [] (left_behind ());
      (* a stored manifest overrides the flags, so it is checked too *)
      Store.mkdir_p dir;
      Store.atomic_write
        (Filename.concat dir "MANIFEST.json")
        "{\"serve\":1,\"seed\":42,\"total_time\":2000,\"hold_time\":0}";
      checkb "stored hold 0 is an error" true (Result.is_error (create ()));
      checkb "lock released" false (Sys.file_exists (Filename.concat dir "LOCK")))

let test_e2e_state_not_a_directory () =
  with_state (fun ~dir ~sock ->
      let create () =
        Server.create (Server.config ~socket_path:sock ~state_dir:dir ())
      in
      let lock = Filename.concat dir "LOCK" in
      close_out (open_out dir);
      checkb "a file as the state dir is an error" true
        (Result.is_error (create ()));
      Sys.remove dir;
      (* the lock is taken before the journal fails to open *)
      Store.mkdir_p (Filename.concat dir "journal.jsonl");
      checkb "a directory as the journal is an error" true
        (Result.is_error (create ()));
      checkb "lock released" false (Sys.file_exists lock))

(* life 1 persists three submissions without running them *)
let persist_three ~dir ~sock =
  with_server ~start_worker:false ~dir ~sock (fun _server _metrics client ->
      List.map
        (fun replicates ->
          match Client.submit ~replicates client ~circuit:"genetic_NOT" with
          | Ok r -> Option.get (Client.job_id_of_response r)
          | Error m -> Alcotest.fail m)
        [ 2; 3; 4 ])

let test_e2e_smaller_queue () =
  with_state (fun ~dir ~sock ->
      let ids = persist_three ~dir ~sock in
      with_server ~start_worker:false ~queue_capacity:1 ~dir ~sock
        (fun _server _metrics client ->
          let l = Result.get_ok (Client.list_jobs client) in
          checki "only the enqueued entry reports queued" 1
            (occurrences l.W.resp_body "\"status\":\"queued\"");
          (match Client.cancel client ~id:(List.nth ids 2) with
          | Ok resp -> checki "a refused record is unknown" 404 resp.W.status
          | Error m -> Alcotest.fail m);
          checki "refused records stay on disk" 3
            (Array.length (Sys.readdir (Filename.concat dir "submitted")))))

let test_e2e_seq_after_restart () =
  with_state (fun ~dir ~sock ->
      (* life 1 queues one job; a result for another lands in the store *)
      ignore
        (with_server ~start_worker:false ~dir ~sock (fun _ _ client ->
             submit_ok client));
      let stored =
        Result.get_ok (Jobstate.job ~circuit:"genetic_NOT" ~replicates:3 ())
      in
      let store, _ = Result.get_ok (Store.load ~dir) in
      Store.put store ~id:(Grid.job_id stored) "{\"verified\":true}";
      with_server ~start_worker:false ~dir ~sock (fun _server _metrics client ->
          let seq_of resp =
            let v = Result.get_ok (Json.parse resp.W.resp_body) in
            Option.get
              (Option.bind (Json.member v "job") (fun j ->
                   Option.bind (Json.member j "seq") Json.to_int))
          in
          let submit replicates =
            seq_of
              (Result.get_ok
                 (Client.submit ~replicates client ~circuit:"genetic_NOT"))
          in
          let hit = submit 3 in
          let fresh = submit 4 in
          checkb "store hit and fresh job get distinct seqs" true (hit <> fresh);
          let l = Result.get_ok (Client.list_jobs client) in
          let seqs =
            match
              Option.bind
                (Result.to_option (Json.parse l.W.resp_body))
                (fun v -> Option.bind (Json.member v "jobs") Json.to_list)
            with
            | Some jobs ->
                List.map
                  (fun j -> Option.get (Option.bind (Json.member j "seq") Json.to_int))
                  jobs
            | None -> Alcotest.fail "unparseable job list"
          in
          checki "three jobs listed" 3 (List.length seqs);
          checkb "seqs strictly increase" true
            (List.for_all2 ( < )
               (List.filteri (fun i _ -> i < 2) seqs)
               (List.tl seqs))))

let () =
  Alcotest.run "glc_serve"
    [
      ( "wire",
        [
          Alcotest.test_case "request roundtrip" `Quick
            test_wire_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_wire_response_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_wire_rejects;
          Alcotest.test_case "connection close" `Quick
            test_wire_connection_close;
          Alcotest.test_case "path helpers" `Quick test_wire_paths;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "priority + FIFO" `Quick
            test_scheduler_priority_fifo;
          Alcotest.test_case "bounded backpressure" `Quick
            test_scheduler_backpressure;
          Alcotest.test_case "seq resume" `Quick test_scheduler_seq_resume;
          Alcotest.test_case "remove (cancel path)" `Quick
            test_scheduler_remove;
        ] );
      ( "admission",
        [
          Alcotest.test_case "retry-after arithmetic" `Quick
            test_retry_after;
          Alcotest.test_case "submission record roundtrip" `Quick
            test_submission_roundtrip;
          Alcotest.test_case "job validation" `Quick test_job_validation;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "submit, result, dedup" `Slow
            test_e2e_submit_result_dedup;
          Alcotest.test_case "lint rejection" `Quick test_e2e_lint_reject;
          Alcotest.test_case "invalid input and routes" `Quick
            test_e2e_invalid_and_routes;
          Alcotest.test_case "cancel a queued job" `Quick test_e2e_cancel;
          Alcotest.test_case "restart resumes byte-identically" `Slow
            test_e2e_restart_resume_identical;
          Alcotest.test_case "state dir is single-daemon" `Quick
            test_e2e_lock_contention;
          Alcotest.test_case "results outlive restarts" `Slow
            test_e2e_result_survives_restart;
          Alcotest.test_case "bad settings are errors" `Quick
            test_e2e_bad_settings;
          Alcotest.test_case "restart with a smaller queue" `Quick
            test_e2e_smaller_queue;
          Alcotest.test_case "seqs stay distinct across restarts" `Quick
            test_e2e_seq_after_restart;
          Alcotest.test_case "state paths that are not directories" `Quick
            test_e2e_state_not_a_directory;
        ] );
    ]
