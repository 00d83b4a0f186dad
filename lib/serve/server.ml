module W = Protocol_wire
module Store = Glc_campaign.Store
module Runner = Glc_campaign.Runner
module Pool = Glc_engine.Pool
module Cache = Glc_engine.Cache
module Metrics = Glc_obs.Metrics
module Json = Glc_obs.Json
module Clock = Glc_obs.Clock

type config = {
  socket_path : string;
  state_dir : string;
  pool_jobs : int;
  queue_capacity : int;
  seed : int;
  total_time : float;
  hold_time : float;
  lint_admission : bool;
  start_worker : bool;
  metrics : Glc_obs.Metrics.t;
}

let config ~socket_path ~state_dir ?(pool_jobs = 0) ?(queue_capacity = 64)
    ?(seed = 42) ?(total_time = 10_000.) ?(hold_time = 1_000.)
    ?(lint_admission = true) ?(start_worker = true)
    ?(metrics = Metrics.noop) () =
  {
    socket_path;
    state_dir;
    pool_jobs;
    queue_capacity;
    seed;
    total_time;
    hold_time;
    lint_admission;
    start_worker;
    metrics;
  }

type t = {
  s_cfg : config;
  s_ctx : Session.ctx;
  s_lock : Store.Lock.lock;
  s_listen : Unix.file_descr;
  s_interrupt : bool Atomic.t;
}

let ctx t = t.s_ctx

(* The one check of the settings, for the flags and for a stored
   manifest alike: nothing is written or held when it fails. *)
let check cfg =
  let time x = x > 0. && Float.is_finite x in
  if cfg.queue_capacity < 1 then
    Error
      (Printf.sprintf "queue capacity must be at least 1, not %d"
         cfg.queue_capacity)
  else if not (time cfg.total_time && time cfg.hold_time) then
    Error
      (Printf.sprintf "total time %g and hold time %g must be finite and > 0"
         cfg.total_time cfg.hold_time)
  else Ok cfg

let manifest_json cfg =
  Json.obj
    [
      ("serve", "1");
      ("seed", string_of_int cfg.seed);
      ("total_time", Json.float cfg.total_time);
      ("hold_time", Json.float cfg.hold_time);
    ]

(* An existing manifest wins over the flags: the stored results were
   computed under its seed and protocol, and resume-determinism
   requires finishing under the same ones. *)
let manifest_override cfg text =
  match Json.parse text with
  | Error m -> Error (Printf.sprintf "unreadable serve manifest: %s" m)
  | Ok doc -> (
      match Json.member doc "serve" with
      | None ->
          Error
            "state directory holds a campaign manifest, not a serve one \
             (use a separate --state directory)"
      | Some _ -> (
          match
            ( Json.int_field doc "seed",
              Json.number_field doc "total_time",
              Json.number_field doc "hold_time" )
          with
          | Some seed, Some total_time, Some hold_time ->
              Result.map_error
                (Printf.sprintf "stored serve manifest in %s: %s"
                   cfg.state_dir)
                (check { cfg with seed; total_time; hold_time })
          | _ -> Error "serve manifest lacks seed/total_time/hold_time"))

let bind_socket path =
  if Sys.file_exists path then
    (* the state-dir lock is the liveness guard; a leftover socket file
       here is from a dead daemon (or a colliding path — either way,
       binding requires removing it) *)
    (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16
  with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))

let create cfg =
  let ( let* ) = Result.bind in
  let* cfg = check cfg in
  let* lock = Store.Lock.acquire ~dir:cfg.state_dir in
  let in_state f = Store.guard ~dir:cfg.state_dir f in
  let held =
    let* store, manifest =
      Store.open_or_create ~dir:cfg.state_dir (manifest_json cfg)
    in
    let* cfg = manifest_override cfg manifest in
    in_state (fun () ->
        let adm =
          Admission.create
            ~spec_for:
              (Jobstate.spec_for ~seed:cfg.seed ~total_time:cfg.total_time
                 ~hold_time:cfg.hold_time)
            ~lint:cfg.lint_admission ~capacity:cfg.queue_capacity ~store
            ~metrics:cfg.metrics ~state_dir:cfg.state_dir
        in
        let* () = Admission.recover adm ~now:(Clock.now ()) in
        let* listen = bind_socket cfg.socket_path in
        Ok
          {
            s_cfg = cfg;
            s_ctx = Session.make_ctx adm;
            s_lock = lock;
            s_listen = listen;
            s_interrupt = Atomic.make false;
          })
  in
  if Result.is_error held then Store.Lock.release lock;
  held

let stop t =
  Atomic.set t.s_interrupt true;
  let ctx = t.s_ctx in
  Mutex.lock ctx.Session.mutex;
  ctx.Session.stopping <- true;
  Condition.broadcast ctx.Session.cond;
  Mutex.unlock ctx.Session.mutex

let install_signal_handlers t =
  let flag _ = Atomic.set t.s_interrupt true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle flag);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle flag)

(* ---- worker ---- *)

let run_one t ~pool ~cache entry =
  let job = entry.Jobstate.job in
  let spec = t.s_ctx.Session.adm.Admission.spec_for job in
  let t0 = Clock.now () in
  let result =
    try Ok (Runner.run_job ~metrics:t.s_cfg.metrics ~pool ~cache spec job)
    with e -> Error (Printexc.to_string e)
  in
  (Clock.now () -. t0, result)

let worker_loop t ~pool ~cache =
  let ctx = t.s_ctx in
  let adm = ctx.Session.adm in
  let metrics = t.s_cfg.metrics in
  let gauge name v = Metrics.Gauge.set (Metrics.gauge metrics name) v in
  let rec loop () =
    Mutex.lock ctx.Session.mutex;
    while
      Scheduler.is_empty adm.Admission.scheduler
      && not ctx.Session.stopping
    do
      Condition.wait ctx.Session.cond ctx.Session.mutex
    done;
    if ctx.Session.stopping then Mutex.unlock ctx.Session.mutex
    else
      match Scheduler.pop adm.Admission.scheduler with
      | None ->
          Mutex.unlock ctx.Session.mutex;
          loop ()
      | Some entry ->
          let id = entry.Jobstate.id in
          entry.Jobstate.phase <- Jobstate.Running;
          entry.Jobstate.attempts <- entry.Jobstate.attempts + 1;
          gauge "serve.jobs_running" 1.;
          Admission.note_queue_depth adm;
          Metrics.Histogram.observe
            (Metrics.histogram metrics "serve.queue_wait_seconds")
            (Clock.now () -. entry.Jobstate.submitted_at);
          Mutex.unlock ctx.Session.mutex;
          let dt, result = run_one t ~pool ~cache entry in
          Mutex.lock ctx.Session.mutex;
          (match result with
          | Ok doc ->
              Store.put adm.Admission.store ~id doc;
              entry.Jobstate.phase <- Jobstate.Done;
              Admission.remove_submission adm ~id;
              Admission.note_job_seconds adm dt;
              Metrics.Counter.incr
                (Metrics.counter metrics "serve.jobs_completed");
              Metrics.Histogram.observe
                (Metrics.histogram metrics "serve.job_seconds")
                dt
          | Error msg ->
              (* keep the submission record: a transient failure is
                 retried by the next daemon life *)
              entry.Jobstate.phase <- Jobstate.Failed msg;
              Metrics.Counter.incr
                (Metrics.counter metrics "serve.jobs_failed"));
          gauge "serve.jobs_running" 0.;
          Mutex.unlock ctx.Session.mutex;
          loop ()
  in
  loop ()

(* ---- connections ---- *)

let connection t fd =
  let reader = W.fd_reader fd in
  let rec loop () =
    match W.read_request reader with
    | Ok None -> ()
    | Error m ->
        let resp = W.response 400 (Session.error_body m) in
        Store.write_all fd (W.render_response ~close:true resp)
    | Ok (Some req) ->
        let resp = Session.handle t.s_ctx req in
        let keep = W.keep_alive req && not (Atomic.get t.s_interrupt) in
        Store.write_all fd (W.render_response ~close:(not keep) resp);
        if keep then loop ()
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> try loop () with Unix.Unix_error _ | Sys_error _ -> ())

(* ---- lifecycle ---- *)

let run t =
  let cfg = t.s_cfg in
  let pool =
    Pool.create
      ?jobs:(if cfg.pool_jobs > 0 then Some cfg.pool_jobs else None)
      ~metrics:cfg.metrics ()
  in
  let cache = Cache.create ~metrics:cfg.metrics () in
  let worker =
    if cfg.start_worker then
      Some (Thread.create (fun () -> worker_loop t ~pool ~cache) ())
    else None
  in
  let rec accept_loop () =
    if Atomic.get t.s_interrupt then stop t
    else begin
      (match Unix.select [ t.s_listen ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.s_listen with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> ignore (Thread.create (connection t) fd))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if not t.s_ctx.Session.stopping then accept_loop ()
    end
  in
  accept_loop ();
  stop t;
  (try Unix.close t.s_listen with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  Option.iter Thread.join worker;
  Pool.shutdown pool;
  Store.Lock.release t.s_lock
