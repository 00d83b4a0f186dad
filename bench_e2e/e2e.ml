(* The end-to-end benchmark: the three long-running operations a user
   runs, driven through the public library API (or the built glcv
   binary, for serve) exactly as the CLI drives them, and timed from the
   outside.

     bash bench_e2e/run.sh --workload atlas|sweep|serve --seed N \
       --seconds S --trace 0|1

   - atlas: the full 3-input function-space atlas (Atlas.plan, Atlas.run,
     then SPACE.json + ATLAS.md), checked byte for byte against the
     copies committed at the repository root;
   - sweep: the 15 Table-1 circuits x thresholds {3, 15, 40, 90} x 8
     replicates as one campaign, after a lint pre-flight; the report
     bytes must agree across passes and with a one-worker drain;
   - serve: the glcv serve daemon under a seeded open-loop stream of
     submissions, resubmissions and status polls; every result document
     must equal Runner.run_job on the same job.

   --trace 0 reports the end-to-end metrics. --trace 1 runs one untraced
   and one traced pass, checks that both did the same work, and reports
   the per-layer metrics: spans the benchmark records around the public
   calls it makes, plus the program's own Glc_obs.Metrics instruments.
   Nothing inside the program changes for either.

   The last line of stdout is one JSON object {correct, attempted,
   failed, metrics}; the line before it carries the details (seed,
   sample counts, tail percentile, work counts). A failed output check
   prints correct=false and exits 1; an error that stops the run exits 2
   without a result. README.md in this directory explains the workloads
   and the layer -> end-to-end map. *)

module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Resume = Glc_campaign.Resume
module Runner = Glc_campaign.Runner
module Atlas = Glc_space.Atlas
module Fn = Glc_space.Fn
module Lint = Glc_lint.Lint
module Diagnostic = Glc_lint.Diagnostic
module Certificate = Glc_symbolic.Certificate
module Benchmarks = Glc_gates.Benchmarks
module Protocol = Glc_dvasim.Protocol
module Pool = Glc_engine.Pool
module Cache = Glc_engine.Cache
module Metrics = Glc_obs.Metrics
module Json = Glc_core.Report.Json
module Client = Glc_serve.Client
module W = Glc_serve.Protocol_wire
module Jobstate = Glc_serve.Jobstate

let nproc = Domain.recommended_domain_count ()
let now = Unix.gettimeofday

(* ---- output checks ---- *)

let problems = ref []

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("bench_e2e: check failed: " ^ msg);
        problems := msg :: !problems
      end)
    fmt

(* ---- scratch directories and child processes ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* Every directory a run uses is fresh, lives under this one inside the
   current directory, and is removed on exit: a reused atlas directory
   turns a run into a no-op resume, a reused serve state directory
   answers everything as a dedup. *)
let scratch_root = ".e2e-run"
let run_dir = Filename.concat scratch_root (string_of_int (Unix.getpid ()))
let fresh_count = ref 0

let fresh_dir tag =
  incr fresh_count;
  Filename.concat run_dir (Printf.sprintf "%s%d" tag !fresh_count)

let children = ref []

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error _ -> ()

let stop_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid;
  children := List.filter (( <> ) pid) !children

let cleanup () =
  List.iter stop_child !children;
  rm_rf run_dir;
  try Unix.rmdir scratch_root with Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all
let ok_or_fail = function Ok x -> x | Error m -> failwith m

(* ---- process measurements ---- *)

(* VmHWM of /proc/<pid>/status: peak resident memory, MiB *)
let peak_rss_mb pid =
  let key = "VmHWM:" in
  read_file (Printf.sprintf "/proc/%s/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:key l then begin
           let rest = String.sub l 6 (String.length l - 6) in
           Some (Scanf.sscanf rest " %d" (fun kb -> float_of_int kb /. 1024.))
         end
         else None)
  |> Option.get

(* user + sys seconds of another process: fields 14 and 15 of
   /proc/<pid>/stat, in Linux clock ticks of 1/100 s *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s after (String.length s - after)))
  in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* linear interpolation between closest ranks; [a] sorted, non-empty *)
let percentile a p =
  let n = Array.length a in
  let r = p /. 100. *. float_of_int (n - 1) in
  let i = int_of_float r in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile (sorted xs) 50.

(* The highest percentile of the ladder with at least ten samples beyond
   it. Each workload fixes [n] from the samples every run yields, so
   every run of a workload reports the same percentile. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.9; 99.5; 99.; 98.; 97.5; 95.; 90.; 80.; 75. ]
  |> Option.value ~default:50.

(* ---- the benchmark's own spans ---- *)

(* Seconds and calls per name, measured around the public calls the
   benchmark makes; recorded only while [tracing]. Main thread only. *)
let spans : (string, float * int) Hashtbl.t = Hashtbl.create 16
let tracing = ref false

let span name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let total, calls =
      Option.value ~default:(0., 0) (Hashtbl.find_opt spans name)
    in
    Hashtbl.replace spans name (total +. (now () -. t0), calls + 1);
    r
  end

let span_s name = fst (Option.value ~default:(0., 0) (Hashtbl.find_opt spans name))
let span_calls name = snd (Option.value ~default:(0., 0) (Hashtbl.find_opt spans name))

(* ---- the program's own instruments (Metrics.to_json export) ---- *)

type export = {
  counters : (string * float) list;
  histograms : (string * (float * float)) list;  (** name, (sum, count) *)
  program_spans : (string * float) list;  (** name, seconds *)
}

let parse_export text =
  let v =
    match Json.parse text with
    | Ok v -> v
    | Error m -> failwith ("unparseable metrics export: " ^ m)
  in
  let rec at v = function
    | [] -> Some v
    | k :: rest -> Option.bind (Json.member v k) (fun v -> at v rest)
  in
  let fields path =
    match at v path with Some (Json.Object kvs) -> kvs | _ -> []
  in
  let num v k = Option.value ~default:0. (Option.bind (Json.member v k) Json.to_number) in
  let str v k = Option.value ~default:"" (Option.bind (Json.member v k) Json.to_str) in
  {
    counters =
      List.filter_map
        (fun (k, x) -> Option.map (fun n -> (k, n)) (Json.to_number x))
        (fields [ "deterministic"; "counters" ]);
    histograms =
      List.map
        (fun (k, h) -> (k, (num h "sum", num h "count")))
        (fields [ "timings"; "histograms" ]);
    program_spans =
      (match at v [ "timings"; "spans"; "events" ] with
      | Some (Json.Array evs) -> List.map (fun e -> (str e "name", num e "dur_s")) evs
      | _ -> []);
  }

let counter e name = Option.value ~default:0. (List.assoc_opt name e.counters)

let hist e name =
  Option.value ~default:(0., 0.) (List.assoc_opt name e.histograms)

let hist_sum e name = fst (hist e name)
let hist_count e name = snd (hist e name)

let hist_sum_prefix e prefix =
  List.fold_left
    (fun acc (k, (s, _)) -> if String.starts_with ~prefix k then acc +. s else acc)
    0. e.histograms

let program_span e name =
  List.fold_left
    (fun acc (k, d) -> if k = name then acc +. d else acc)
    0. e.program_spans

(* ---- metrics and the result line ---- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("jobs_per_s", "1/s");
    ("latency_p50_s", "s");
    ("cpu_s", "s");
    ("peak_rss_mb", "MiB");
  ]

(* The tail latency is reported with the per-layer metrics (and in the
   details line of every run) rather than gated end to end: on a shared
   2-core machine its run-to-run spread exceeds any allowed bound. *)
let per_layer =
  [
    ("latency_tail_s", "s");
    ("gates.resolve_s", "s");
    ("space.synthesise_s", "s");
    ("lint.busy_s", "s");
    ("lint.checks", "count");
    ("symbolic.busy_s", "s");
    ("symbolic.certificates", "count");
    ("symbolic.rows_undecided", "count");
    ("symbolic.fixpoint_iterations", "count");
    ("ode.busy_s", "s");
    ("ode.transitions", "count");
    ("engine.ensemble_s", "s");
    ("engine.ensembles", "count");
    ("engine.replicates", "count");
    ("engine.pool_busy_s", "s");
    ("engine.pool_idle_s", "s");
    ("engine.pool_queue_wait_s", "s");
    ("engine.pool_utilisation", "ratio");
    ("ssa.busy_s", "s");
    ("ssa.reactions_fired", "count");
    ("ssa.propensity_evals", "count");
    ("ssa.fired_per_s", "1/s");
    ("campaign.store_put_s", "s");
    ("campaign.journal_append_s", "s");
    ("campaign.records", "count");
    ("campaign.report_s", "s");
    ("space.render_s", "s");
    ("serve.submit_rtt_s", "s");
    ("serve.status_rtt_s", "s");
    ("serve.queue_wait_s", "s");
    ("serve.execute_s", "s");
    ("serve.queue_depth_max", "count");
    ("serve.accepted", "count");
    ("serve.dedup_hits", "count");
    ("serve.rejected_busy", "count");
    ("serve.rejected_lint", "count");
    ("serve.generator_lag_s", "s");
    ("unattributed_s", "s");
    ("unattributed_share", "ratio");
    ("obs.trace_overhead_s", "s");
  ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let jobj kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Json.string k ^ ":" ^ v) kvs) ^ "}"

(* Prints the detail line, then the result line, and exits: 0 when every
   check held, 1 otherwise. A wanted metric missing from [values] is 0:
   the layer did no work on this workload. *)
let finish ~details ~attempted ~failed ~wanted values =
  let metrics =
    List.map
      (fun (name, unit_) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        expect (Float.is_finite v) "metric %s is not finite" name;
        (name, unit_, if Float.is_finite v then v else 0.))
      wanted
  in
  let correct = !problems = [] in
  let failed = if correct then failed else attempted in
  List.iter
    (fun (name, unit_, v) -> Printf.eprintf "  %-30s %16.6g %s\n" name v unit_)
    metrics;
  print_endline (jobj details);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
    correct attempted failed
    (jobj
       (List.map
          (fun (name, unit_, v) ->
            (name, jobj [ ("value", number v); ("unit", Json.string unit_) ]))
          metrics));
  exit (if correct then 0 else 1)

(* Layer metrics read from the program's registry. *)
let program_layers e ~wall =
  let c = counter e and s = hist_sum e and n = hist_count e in
  let ssa_busy =
    hist_sum_prefix e "ssa.run_seconds." +. s "ssa.ir.batch_block_seconds"
  in
  let pool_busy = s "pool.worker_busy_seconds" in
  [
    ("lint.checks", c "lint.checks_run");
    ("symbolic.certificates", c "symbolic.certificates");
    ("symbolic.rows_undecided", c "symbolic.rows_undecided");
    ("symbolic.fixpoint_iterations", c "symbolic.fixpoint_iterations");
    ("engine.ensemble_s", s "engine.ensemble_seconds");
    ("engine.ensembles", c "engine.ensembles");
    ("engine.replicates", c "engine.replicates_ok" +. c "engine.replicates_failed");
    ("engine.pool_busy_s", pool_busy);
    ("engine.pool_idle_s", s "pool.worker_idle_seconds");
    ("engine.pool_queue_wait_s", s "pool.queue_wait_seconds");
    ( "engine.pool_utilisation",
      if wall > 0. then pool_busy /. (wall *. float_of_int nproc) else 0. );
    ("ssa.busy_s", ssa_busy);
    ("ssa.reactions_fired", c "ssa.reactions_fired");
    ("ssa.propensity_evals", c "ssa.propensity_evals");
    ( "ssa.fired_per_s",
      if ssa_busy > 0. then c "ssa.reactions_fired" /. ssa_busy else 0. );
    ("campaign.store_put_s", s "campaign.store_put_seconds");
    ("campaign.journal_append_s", s "campaign.journal_append_seconds");
    ( "campaign.records",
      n "campaign.store_put_seconds" +. n "campaign.journal_append_seconds" );
  ]

(* Runner.resolve, Certificate.certify and Lint.circuit run inside the
   operation, where the benchmark has no span. After the traced pass it
   replays them on the same inputs, one call per job, and times the
   replay. Certify time is scaled by the program's own
   symbolic.certificates count, so a change in how often the program
   certifies still shows; resolve and lint have no call counter and are
   reported as one call per job, a lower bound. *)
let replay ?(lint = false) spec jobs =
  List.iter
    (fun job ->
      match span "replay.resolve" (fun () -> Runner.resolve job.Grid.j_circuit) with
      | Error m -> failwith m
      | Ok circuit ->
          let protocol = Runner.job_protocol spec job in
          if lint then
            ignore (span "replay.lint" (fun () -> Lint.circuit ~protocol circuit));
          ignore
            (span "replay.certify" (fun () -> Certificate.certify ~protocol circuit)))
    jobs

let replayed_layers e =
  let calls = span_calls "replay.certify" in
  let per_call =
    if calls > 0 then span_s "replay.certify" /. float_of_int calls else 0.
  in
  [
    ("gates.resolve_s", span_s "replay.resolve");
    ("symbolic.busy_s", per_call *. counter e "symbolic.certificates");
  ]

(* wall time no measured layer claims, and its share *)
let unattributed ~wall values names =
  let claimed =
    List.fold_left
      (fun acc n -> acc +. Option.value ~default:0. (List.assoc_opt n values))
      0. names
  in
  [ ("unattributed_s", wall -. claimed); ("unattributed_share", (wall -. claimed) /. wall) ]

(* ---- batch workloads: atlas and sweep ---- *)

type pass = {
  p_setup : float;
  p_wall : float;
  p_latencies : float list;  (** per job, from the runner's progress *)
  p_jobs : int;
  p_output : string;  (** the bytes the checks compare *)
  p_work : (string * int) list;  (** deterministic work counts *)
  p_export : export option;  (** the program's instruments, traced pass *)
}

(* per-job latency: the gap between consecutive progress callbacks, i.e.
   job start to result stored and journaled *)
let progress_recorder () =
  let lat = ref [] and last = ref 0. in
  ( (fun (p : Runner.progress) ->
      lat := (p.Runner.p_elapsed -. !last) :: !lat;
      last := p.Runner.p_elapsed),
    fun () -> List.rev !lat )

let work p k = Option.value ~default:(-1) (List.assoc_opt k p.p_work)

(* -- atlas -- *)

let atlas_setup () =
  let dir = fresh_dir "atlas" in
  let t0 = now () in
  let spec = Atlas.plan Atlas.default_config in
  ignore (ok_or_fail (Atlas.prepare ~dir spec));
  (dir, spec, now () -. t0)

(* Ode.run calls the delay pass made: one per output-changing transition *)
let ode_transitions space =
  match Json.parse space with
  | Error m -> failwith m
  | Ok v ->
      Option.value ~default:[] (Option.bind (Json.member v "functions") Json.to_list)
      |> List.fold_left
           (fun acc f ->
             acc
             + Option.value ~default:0
                 (Option.bind (Json.member f "delay") (fun d ->
                      Option.bind (Json.member d "transitions") Json.to_int)))
           0

(* The atlas input is the paper protocol at seed 42 whatever the
   workload seed: its check is byte identity with the committed files. *)
let atlas_pass ~seed:_ ~jobs ~traced =
  let dir, spec, setup = atlas_setup () in
  let metrics = if traced then Metrics.create () else Metrics.noop in
  let on_progress, latencies = progress_recorder () in
  let t0 = now () in
  let s = ok_or_fail (Atlas.run ~jobs ~on_progress ~metrics ~dir spec) in
  let space, md =
    span "space.render" (fun () ->
        let store, spec = ok_or_fail (Resume.load ~dir) in
        let space = Atlas.space_json store spec in
        (space, ok_or_fail (Atlas.markdown space)))
  in
  let wall = now () -. t0 in
  if traced then replay spec (Grid.expand spec.Grid.grid);
  rm_rf dir;
  {
    p_setup = setup;
    p_wall = wall;
    p_latencies = latencies ();
    p_jobs = s.Atlas.a_functions;
    p_output = space ^ md;
    p_work =
      [
        ("functions", s.Atlas.a_functions);
        ("done", s.Atlas.a_done);
        ("verified", s.Atlas.a_verified);
        ("failed", s.Atlas.a_failed);
        ("delays", s.Atlas.a_delays);
        ("ode_transitions", ode_transitions space);
      ];
    p_export = (if traced then Some (parse_export (Metrics.to_json metrics)) else None);
  }

let committed_atlas =
  lazy
    (match read_file "SPACE.json" ^ read_file "ATLAS.md" with
    | s -> s
    | exception Sys_error m ->
        failwith ("the atlas check needs the committed SPACE.json and ATLAS.md: " ^ m))

let atlas_check ~seed:_ passes =
  List.for_all
    (fun p ->
      let counts_ok =
        work p "functions" = 256 && work p "done" = 256 && work p "delays" = 256
        && work p "failed" = 0
      in
      expect counts_ok "atlas did %d jobs and %d delays (%d failed), want 256/256/0"
        (work p "done") (work p "delays") (work p "failed");
      let bytes_ok = p.p_output = Lazy.force committed_atlas in
      expect bytes_ok "atlas output differs from the committed SPACE.json/ATLAS.md";
      counts_ok && bytes_ok)
    passes

let atlas_layers ~(u : pass) ~(t : pass) e =
  let values =
    program_layers e ~wall:t.p_wall
    @ replayed_layers e
    @ [
        ("space.synthesise_s", program_span e "space:synthesise");
        ("ode.busy_s", hist_sum e "space.delay_seconds");
        ("ode.transitions", float_of_int (work t "ode_transitions"));
        ("space.render_s", span_s "space.render");
        ("obs.trace_overhead_s", t.p_wall -. u.p_wall);
      ]
  in
  values
  @ unattributed ~wall:t.p_wall values
      [
        "space.synthesise_s"; "gates.resolve_s"; "symbolic.busy_s";
        "engine.ensemble_s"; "campaign.store_put_s"; "campaign.journal_append_s";
        "ode.busy_s"; "space.render_s";
      ]

(* -- sweep -- *)

let sweep_thresholds = [ 3.; 15.; 40.; 90. ]
let sweep_replicates = 8

(* set-up as the CLI's campaign run does it: lint every (circuit,
   threshold) cell, then create the store *)
let sweep_setup ~seed ~metrics =
  let dir = fresh_dir "sweep" in
  let t0 = now () in
  let spec =
    Grid.spec ~seed
      (Grid.make ~thresholds:sweep_thresholds
         ~replicate_counts:[ sweep_replicates ] (Benchmarks.names ()))
  in
  let circuits = Benchmarks.all () in
  span "lint" (fun () ->
      List.iter
        (fun threshold ->
          let protocol =
            Protocol.make ~total_time:spec.Grid.total_time
              ~hold_time:spec.Grid.hold_time ~seed ~threshold ()
          in
          let ds = List.concat_map (Lint.circuit ~protocol ~metrics) circuits in
          if Diagnostic.exit_code ds >= 2 then
            failwith
              (Printf.sprintf "sweep lint pre-flight: errors at threshold %g" threshold))
        sweep_thresholds);
  ignore (ok_or_fail (Store.create ~dir (Grid.spec_to_json spec)));
  (dir, now () -. t0)

let sweep_pass ~seed ~jobs ~traced =
  let metrics = if traced then Metrics.create () else Metrics.noop in
  let dir, setup = sweep_setup ~seed ~metrics in
  let on_progress, latencies = progress_recorder () in
  let t0 = now () in
  let store, spec, s = ok_or_fail (Resume.run ~jobs ~on_progress ~metrics ~dir ()) in
  let report = span "campaign.report" (fun () -> Store.report_json store spec) in
  let wall = now () -. t0 in
  let lines = Store.lines store spec in
  let count f = List.length (List.filter f lines) in
  if traced then replay spec (Grid.expand spec.Grid.grid);
  rm_rf dir;
  {
    p_setup = setup;
    p_wall = wall;
    p_latencies = latencies ();
    p_jobs = List.length lines;
    p_output = report;
    p_work =
      [
        ("jobs", List.length lines);
        ("succeeded", s.Runner.succeeded);
        ("failed", s.Runner.failed);
        ("done", count (fun l -> l.Store.l_done));
        ("simulated", count (fun l -> l.Store.l_provenance = "simulated"));
      ];
    p_export = (if traced then Some (parse_export (Metrics.to_json metrics)) else None);
  }

(* Identical report bytes across the run's passes and against a drain on
   one worker, made here after the measured passes. *)
let sweep_check ~seed passes =
  let reference = (sweep_pass ~seed ~jobs:1 ~traced:false).p_output in
  List.for_all
    (fun p ->
      let counts_ok =
        work p "jobs" = 60 && work p "succeeded" = 60 && work p "done" = 60
        && work p "failed" = 0
      in
      expect counts_ok "sweep did %d/%d jobs (%d failed), want 60/60/0"
        (work p "succeeded") (work p "jobs") (work p "failed");
      let bytes_ok = p.p_output = reference in
      expect bytes_ok "sweep report differs from the one-worker drain";
      counts_ok && bytes_ok)
    passes

let sweep_layers ~(u : pass) ~(t : pass) e =
  let values =
    program_layers e ~wall:t.p_wall
    @ replayed_layers e
    @ [
        ("lint.busy_s", span_s "lint");
        ("campaign.report_s", span_s "campaign.report");
        ("obs.trace_overhead_s", t.p_wall -. u.p_wall);
      ]
  in
  values
  @ unattributed ~wall:t.p_wall values
      [
        "gates.resolve_s"; "symbolic.busy_s"; "engine.ensemble_s";
        "campaign.store_put_s"; "campaign.journal_append_s"; "campaign.report_s";
      ]

(* -- running a batch workload -- *)

let digest s = Digest.to_hex (Digest.string s)
let work_json p = jobj (List.map (fun (w, n) -> (w, string_of_int n)) p.p_work)

let run_batch ~name ~pass ~setup_only ~check ~layers ~jobs_per_pass ~seed ~seconds
    ~trace =
  let base =
    [ ("workload", Json.string name); ("seed", string_of_int seed); ("trace", string_of_int trace); ("workers", string_of_int nproc) ]
  in
  if trace = 0 then begin
    (* set-up alone several times first, so setup_s is a median of many *)
    let setups = List.init 10 (fun _ -> setup_only ~seed) in
    let cpu0 = self_cpu_s () and t_start = now () in
    let rec loop acc =
      let acc = pass ~seed ~jobs:nproc ~traced:false :: acc in
      let elapsed = now () -. t_start in
      if elapsed +. (elapsed /. float_of_int (List.length acc)) <= seconds then loop acc
      else List.rev acc
    in
    let passes = loop [] in
    let k = List.length passes in
    let cpu = (self_cpu_s () -. cpu0) /. float_of_int k in
    let rss = peak_rss_mb "self" in
    let ok = check ~seed passes in
    let latencies = sorted (List.concat_map (fun p -> p.p_latencies) passes) in
    let tail = tail_percentile jobs_per_pass in
    let attempted = List.fold_left (fun a p -> a + p.p_jobs) 0 passes in
    finish
      ~details:
        (base
        @ [
            ("passes", string_of_int k);
            ("setup_samples", string_of_int (List.length setups + k));
            ("latency_samples", string_of_int (Array.length latencies));
            ("tail_percentile", number tail);
            ("latency_tail_s", number (percentile latencies tail));
            ("output_md5", Json.string (digest (List.hd passes).p_output));
            ("work", work_json (List.hd passes));
          ])
      ~attempted ~failed:(if ok then 0 else attempted) ~wanted:end_to_end
      [
        ("setup_s", median (setups @ List.map (fun p -> p.p_setup) passes));
        ("wall_s", median (List.map (fun p -> p.p_wall) passes));
        ( "jobs_per_s",
          median (List.map (fun p -> float_of_int p.p_jobs /. p.p_wall) passes) );
        ("latency_p50_s", percentile latencies 50.);
        ("cpu_s", cpu);
        ("peak_rss_mb", rss);
      ]
  end
  else begin
    let u = pass ~seed ~jobs:nproc ~traced:false in
    tracing := true;
    let t = pass ~seed ~jobs:nproc ~traced:true in
    tracing := false;
    let ok = check ~seed [ u; t ] in
    expect (u.p_work = t.p_work) "the traced pass did different work from the untraced one";
    let e = Option.get t.p_export in
    finish
      ~details:
        (base
        @ [
            ("untraced_wall_s", number u.p_wall);
            ("traced_wall_s", number t.p_wall);
            ("output_md5", Json.string (digest t.p_output));
            ("work", work_json t);
            ("program_counters", jobj (List.map (fun (k, v) -> (k, number v)) e.counters));
          ])
      ~attempted:(u.p_jobs + t.p_jobs)
      ~failed:(if ok then 0 else u.p_jobs + t.p_jobs)
      ~wanted:per_layer
      (( "latency_tail_s",
         percentile (sorted t.p_latencies) (tail_percentile jobs_per_pass) )
      :: layers ~u ~t e)
  end

(* ---- serve ---- *)

let glcv = "_build/default/bin/glcv.exe"

(* the daemon's defaults, which the result check reproduces *)
let serve_seed = Protocol.default.Protocol.seed
let serve_total = Protocol.default.Protocol.total_time
let serve_hold = Protocol.default.Protocol.hold_time

(* The open-loop stream: [serve_rate] requests per second on average,
   well below the daemon's measured capacity (README.md). *)
let serve_rate = 20.
let share_undecided = 0.05
let share_resubmit = 0.12
let share_status = 0.10
let undecided_replicates = 2

(* The benchmark polls for results itself: Client.result ~wait sleeps
   200 ms between polls, which would quantise every latency to 200 ms. *)
let poll_interval = 0.002
let job_timeout = 60.

(* Circuits the interval certifier leaves undecided at the paper's
   threshold: the three one-input buffer codes (provenance "simulated"
   in SPACE.json) and the Table-1 circuit with an undecided row. Their
   ensembles are small, so one cannot hold the queue for long; the
   6-10 gate undecided codes would make every latency percentile depend
   on where the seed puts them. *)
let undecided_pool = [| "0xAA"; "0xCC"; "0xF0"; "genetic_NAND" |]

(* the 6-10 gate codes left undecided, kept out of the stream *)
let costly_undecided = [ "0x2D"; "0x4B"; "0x59"; "0x68"; "0x7E"; "0xD6" ]

(* every other Table-1 circuit and 3-input code: all rows certify *)
let certified_pool =
  lazy
    (Array.of_list
       (List.filter
          (fun n -> not (Array.mem n undecided_pool || List.mem n costly_undecided))
          (List.sort_uniq compare
             (Benchmarks.names ()
             @ List.map (Fn.name_of_code ~arity:3) (Fn.all_codes ~arity:3)))))

(* FOV_UD changes the content id, not which rows certify *)
let fovs = Array.init 19 (fun k -> float_of_int (k + 1) /. 20.)

type kind =
  | Submit of Grid.job  (** a job no earlier event named *)
  | Resubmit of int  (** index of an earlier Submit event *)
  | Status of int  (** index of an earlier Submit event *)

type event = { due : float; kind : kind }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Derived from [seed] alone. The arrival times are a Poisson process
   conditioned on its count (sorted uniform times over the run), and the
   mix has fixed counts in a seeded order, with every undecided circuit
   used equally often: each seed offers the same load, arranged
   differently. *)
let schedule ~seed ~seconds =
  let st = Random.State.make [| seed |] in
  let n = int_of_float (Float.round (serve_rate *. seconds)) in
  let count share = int_of_float (Float.round (share *. float_of_int n)) in
  let pool_n = Array.length undecided_pool in
  let n_undecided = pool_n * (count share_undecided / pool_n) in
  let n_status = count share_status and n_resubmit = count share_resubmit in
  let kinds =
    Array.concat
      [
        Array.make n_undecided `Undecided;
        Array.make n_status `Status;
        Array.make n_resubmit `Resubmit;
        Array.make (n - n_undecided - n_status - n_resubmit) `Certified;
      ]
  in
  shuffle st kinds;
  (* the first request is a submission the later ones can refer to *)
  let first = ref 0 in
  while kinds.(!first) <> `Certified do
    incr first
  done;
  kinds.(!first) <- kinds.(0);
  kinds.(0) <- `Certified;
  let times = Array.init n (fun _ -> Random.State.float st seconds) in
  Array.sort Float.compare times;
  let undecided =
    Array.concat (List.init (n_undecided / pool_n) (fun _ -> undecided_pool))
  in
  shuffle st undecided;
  let certified = Lazy.force certified_pool in
  let used = Hashtbl.create 1024 in
  let rec fresh_job draw_circuit ~replicates =
    let circuit = draw_circuit () in
    let fov = fovs.(Random.State.int st (Array.length fovs)) in
    if Hashtbl.mem used (circuit, fov) then fresh_job draw_circuit ~replicates
    else begin
      Hashtbl.add used (circuit, fov) ();
      ok_or_fail (Jobstate.job ~circuit ~fov_ud:fov ?replicates ())
    end
  in
  let submitted = ref [] and n_submitted = ref 0 and next_undecided = ref 0 in
  let pick () = List.nth !submitted (Random.State.int st !n_submitted) in
  Array.mapi
    (fun i k ->
      let kind =
        match k with
        | `Certified ->
            Submit
              (fresh_job
                 (fun () -> certified.(Random.State.int st (Array.length certified)))
                 ~replicates:None)
        | `Undecided ->
            let circuit = undecided.(!next_undecided) in
            incr next_undecided;
            Submit
              (fresh_job (fun () -> circuit) ~replicates:(Some undecided_replicates))
        | `Resubmit -> Resubmit (pick ())
        | `Status -> Status (pick ())
      in
      (match kind with
      | Submit _ ->
          submitted := i :: !submitted;
          incr n_submitted
      | Resubmit _ | Status _ -> ());
      { due = times.(i); kind })
    kinds

let event_job events i =
  match events.(i).kind with
  | Submit job -> job
  | Resubmit k | Status k -> (
      match events.(k).kind with Submit job -> job | _ -> assert false)

let count_kind events f =
  Array.fold_left (fun a ev -> if f ev.kind then a + 1 else a) 0 events

let is_submit = function Submit _ -> true | _ -> false
let is_resubmit = function Resubmit _ -> true | _ -> false
let is_status = function Status _ -> true | _ -> false

type daemon = { pid : int; client : Client.t; metrics_file : string; ddir : string }

let spawn_daemon () =
  if not (Sys.file_exists glcv) then failwith (glcv ^ " is not built");
  let ddir = fresh_dir "serve" in
  Store.mkdir_p ddir;
  let socket = Filename.concat ddir "sock" in
  let metrics_file = Filename.concat ddir "metrics.json" in
  let t0 = now () in
  let pid =
    Unix.create_process glcv
      [|
        glcv; "serve"; "--socket"; socket; "--state"; Filename.concat ddir "state";
        "--jobs"; string_of_int nproc; "--metrics"; metrics_file;
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  children := pid :: !children;
  let client = Client.connect ~socket in
  let rec wait_health () =
    match Client.health client with
    | Ok r when r.W.status = 200 -> ()
    | _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            children := List.filter (( <> ) pid) !children;
            failwith "glcv serve exited before answering /health");
        if now () -. t0 > 30. then failwith "glcv serve did not answer /health in 30 s";
        Unix.sleepf 0.001;
        wait_health ()
  in
  wait_health ();
  ({ pid; client; metrics_file; ddir }, now () -. t0)

(* SIGTERM, wait, and read the export the daemon writes on the way out *)
let stop_daemon d =
  stop_child d.pid;
  let e =
    match read_file d.metrics_file with
    | text -> parse_export text
    | exception Sys_error m -> failwith ("glcv serve wrote no metrics export: " ^ m)
  in
  rm_rf d.ddir;
  e

type stream = {
  s_wall : float;
  s_latencies : float list;  (** answered submissions and resubmissions *)
  s_lag : float array;  (** per event: sent minus due *)
  s_submit_rtt : float list;
  s_status_rtt : float list;
  s_in_flight_max : int;
  s_failed : int;
  s_dedup : int;  (** 200-dedup answers *)
  s_cpu : float;
  s_rss : float;
  s_outputs : (string * string) list;  (** job id, result document *)
  s_export : export;
  s_accepted_latency : float;  (** summed over accepted jobs *)
  s_accepted_lag : float;
}

let job_done_in_reply body =
  match Json.parse body with
  | Error _ -> false
  | Ok v ->
      Option.bind (Json.member v "job") (fun j ->
          Option.bind (Json.member j "status") Json.to_str)
      = Some "done"

(* One daemon, one stream. The main thread sends every event at its due
   time; one poller thread waits for results, oldest first (the daemon
   runs equal-priority jobs in admission order). At most two connections
   are open at once. Latency runs from each request's due time. *)
let run_stream d events =
  let n = Array.length events in
  let lag = Array.make n 0. and latency = Array.make n Float.nan in
  let accepted = Array.make n false and failure = Array.make n None in
  let submit_rtt = ref [] and status_rtt = ref [] and dedup = ref 0 in
  let outputs = ref [] in
  let mutex = Mutex.create () and pending = Condition.create () in
  let queue = Queue.create () in
  let sender_done = ref false and in_flight = ref 0 and in_flight_max = ref 0 in
  let last_result = ref 0. in
  let t0 = now () +. 0.01 in
  let due i = t0 +. events.(i).due in
  let id_of i = Grid.job_id (event_job events i) in
  let fail i msg = failure.(i) <- Some msg in
  (* with [mutex] held *)
  let record i body =
    let t = now () in
    latency.(i) <- t -. due i;
    if t > !last_result then last_result := t;
    outputs := (id_of i, body) :: !outputs
  in
  let await i =
    Mutex.protect mutex (fun () ->
        Queue.push i queue;
        incr in_flight;
        if !in_flight > !in_flight_max then in_flight_max := !in_flight;
        Condition.signal pending)
  in
  let rec poller () =
    let head =
      Mutex.protect mutex (fun () ->
          while Queue.is_empty queue && not !sender_done do
            Condition.wait pending mutex
          done;
          Queue.peek_opt queue)
    in
    match head with
    | None -> ()
    | Some i ->
        let outcome =
          match Client.result d.client ~id:(id_of i) with
          | Ok r when r.W.status = 200 -> Some (Ok r.W.resp_body)
          | Ok r when r.W.status = 409 && now () -. due i < job_timeout -> None
          | Ok r -> Some (Error (Printf.sprintf "result answered %d" r.W.status))
          | Error m -> Some (Error m)
        in
        (match outcome with
        | None -> Unix.sleepf poll_interval
        | Some res ->
            Mutex.protect mutex (fun () ->
                ignore (Queue.pop queue);
                decr in_flight;
                match res with Ok body -> record i body | Error m -> fail i m));
        poller ()
  in
  let cpu0 = proc_cpu_s d.pid in
  let th = Thread.create poller () in
  Array.iteri
    (fun i ev ->
      let wait = due i -. now () in
      if wait > 0. then Unix.sleepf wait;
      let sent = now () in
      lag.(i) <- sent -. due i;
      match ev.kind with
      | Status _ -> (
          let r = Client.status d.client ~id:(id_of i) in
          status_rtt := (now () -. sent) :: !status_rtt;
          match r with
          | Ok r when r.W.status = 200 -> ()
          | Ok r -> fail i (Printf.sprintf "status answered %d" r.W.status)
          | Error m -> fail i m)
      | Submit _ | Resubmit _ -> (
          let job = event_job events i in
          let r =
            Client.submit ~fov_ud:job.Grid.j_fov_ud ~replicates:job.Grid.j_replicates
              d.client ~circuit:job.Grid.j_circuit
          in
          submit_rtt := (now () -. sent) :: !submit_rtt;
          match r with
          | Error m -> fail i m
          | Ok r -> (
              let same_id = Client.job_id_of_response r = Some (id_of i) in
              match (r.W.status, ev.kind) with
              | (200 | 202), _ when not same_id -> fail i "daemon answered another job id"
              | 202, Submit _ ->
                  accepted.(i) <- true;
                  await i
              | 200, Resubmit _ ->
                  incr dedup;
                  if job_done_in_reply r.W.resp_body then begin
                    match Client.result d.client ~id:(id_of i) with
                    | Ok rr when rr.W.status = 200 ->
                        Mutex.protect mutex (fun () -> record i rr.W.resp_body)
                    | Ok rr -> fail i (Printf.sprintf "result answered %d" rr.W.status)
                    | Error m -> fail i m
                  end
                  else await i
              | s, _ -> fail i (Printf.sprintf "submit answered %d" s))))
    events;
  Mutex.protect mutex (fun () ->
      sender_done := true;
      Condition.signal pending);
  Thread.join th;
  let cpu = proc_cpu_s d.pid -. cpu0 in
  let rss = peak_rss_mb (string_of_int d.pid) in
  let export = stop_daemon d in
  let answered = ref [] and acc_lat = ref 0. and acc_lag = ref 0. and failed = ref 0 in
  Array.iteri
    (fun i ev ->
      (match failure.(i) with
      | Some m ->
          incr failed;
          Printf.eprintf "bench_e2e: event %d (%s) failed: %s\n%!" i (id_of i) m
      | None -> ());
      if (not (is_status ev.kind)) && failure.(i) = None && Float.is_finite latency.(i)
      then begin
        answered := latency.(i) :: !answered;
        if accepted.(i) then begin
          acc_lat := !acc_lat +. latency.(i);
          acc_lag := !acc_lag +. lag.(i)
        end
      end)
    events;
  {
    s_wall = !last_result -. due 0;
    s_latencies = !answered;
    s_lag = lag;
    s_submit_rtt = !submit_rtt;
    s_status_rtt = !status_rtt;
    s_in_flight_max = !in_flight_max;
    s_failed = !failed;
    s_dedup = !dedup;
    s_cpu = cpu;
    s_rss = rss;
    s_outputs = List.sort_uniq compare !outputs;
    s_export = export;
    s_accepted_latency = !acc_lat;
    s_accepted_lag = !acc_lag;
  }

(* Every result document must equal Runner.run_job on the same job,
   computed here after the daemon stopped, and the work counts must match
   the schedule. Returns the number of failed events. *)
let serve_check events s =
  let jobs = Hashtbl.create 512 in
  Array.iteri
    (fun i _ ->
      let j = event_job events i in
      Hashtbl.replace jobs (Grid.job_id j) j)
    events;
  let expected = Hashtbl.create 512 in
  let mismatched =
    Pool.with_pool ~jobs:nproc (fun pool ->
        let cache = Cache.create () in
        List.filter
          (fun (id, body) ->
            let doc =
              match Hashtbl.find_opt expected id with
              | Some doc -> doc
              | None ->
                  let job = Hashtbl.find jobs id in
                  let spec =
                    Jobstate.spec_for ~seed:serve_seed ~total_time:serve_total
                      ~hold_time:serve_hold job
                  in
                  let doc = Runner.run_job ~pool ~cache spec job in
                  Hashtbl.replace expected id doc;
                  doc
            in
            doc <> body)
          s.s_outputs)
  in
  expect (mismatched = []) "%d serve result document(s) differ from Runner.run_job: %s"
    (List.length mismatched)
    (String.concat " " (List.map fst mismatched));
  let submits = count_kind events is_submit in
  let resubmits = count_kind events is_resubmit in
  let c = counter s.s_export in
  expect (s.s_failed = 0) "%d serve operation(s) failed" s.s_failed;
  expect
    (s.s_dedup = resubmits && int_of_float (c "serve.dedup_hits") = resubmits)
    "dedup hits: %d answered, %.0f counted, %d resubmissions generated" s.s_dedup
    (c "serve.dedup_hits") resubmits;
  expect
    (int_of_float (c "serve.jobs_completed") = submits)
    "daemon completed %.0f jobs, %d submitted" (c "serve.jobs_completed") submits;
  s.s_failed + List.length mismatched

(* deterministic counters the traced and untraced streams must agree on *)
let serve_counts s =
  List.map
    (fun k -> (k, counter s.s_export k))
    [
      "serve.jobs_submitted"; "serve.jobs_completed"; "serve.dedup_hits";
      "symbolic.certificates"; "symbolic.rows_undecided"; "engine.ensembles";
      "engine.replicates_ok"; "lint.checks_run"; "ssa.reactions_fired";
    ]

let run_serve ~seed ~seconds ~trace =
  let events = schedule ~seed ~seconds in
  let n = Array.length events in
  let base =
    [
      ("workload", Json.string "serve"); ("seed", string_of_int seed); ("trace", string_of_int trace);
      ("workers", string_of_int nproc); ("rate_per_s", number serve_rate);
      ("poll_interval_s", number poll_interval); ("events", string_of_int n);
      ("submits", string_of_int (count_kind events is_submit));
      ("resubmits", string_of_int (count_kind events is_resubmit));
      ("status_polls", string_of_int (count_kind events is_status));
    ]
  in
  (* the mix has fixed counts, so every run has this many samples *)
  let tail = tail_percentile (n - count_kind events is_status) in
  let tail_latency s = percentile (sorted s.s_latencies) tail in
  let stream_details s =
    let lags = sorted (Array.to_list s.s_lag) in
    [
      ("generator_lag_p50_s", number (percentile lags 50.));
      ("generator_lag_max_s", number lags.(Array.length lags - 1));
      ("latency_samples", string_of_int (List.length s.s_latencies));
      ("tail_percentile", number tail);
      ("latency_tail_s", number (tail_latency s));
      ("output_md5", Json.string (digest (String.concat "\n" (List.map snd s.s_outputs))));
    ]
  in
  if trace = 0 then begin
    (* five spawns for the setup_s median; the last daemon serves *)
    let setups = ref [] in
    for _ = 1 to 4 do
      let d, t = spawn_daemon () in
      setups := t :: !setups;
      ignore (stop_daemon d)
    done;
    let d, t = spawn_daemon () in
    setups := t :: !setups;
    let s = run_stream d events in
    let failed = serve_check events s in
    let latencies = sorted s.s_latencies in
    finish
      ~details:(base @ stream_details s @ [ ("setup_samples", string_of_int (List.length !setups)) ])
      ~attempted:n ~failed ~wanted:end_to_end
      [
        ("setup_s", median !setups);
        ("wall_s", s.s_wall);
        ("jobs_per_s", float_of_int (Array.length latencies) /. s.s_wall);
        ("latency_p50_s", percentile latencies 50.);
        ("cpu_s", s.s_cpu);
        ("peak_rss_mb", s.s_rss);
      ]
  end
  else begin
    let u = run_stream (fst (spawn_daemon ())) events in
    let t = run_stream (fst (spawn_daemon ())) events in
    let failed = serve_check events u + serve_check events t in
    expect (u.s_outputs = t.s_outputs) "the traced stream returned different documents";
    expect (serve_counts u = serve_counts t)
      "the traced stream did different work from the untraced one";
    let e = t.s_export in
    tracing := true;
    Array.iter
      (fun ev ->
        match ev.kind with
        | Submit job ->
            replay ~lint:true
              (Jobstate.spec_for ~seed:serve_seed ~total_time:serve_total
                 ~hold_time:serve_hold job)
              [ job ]
        | Resubmit _ | Status _ -> ())
      events;
    tracing := false;
    let c = counter e in
    let mean name =
      let s, k = hist e name in
      if k > 0. then s /. k else 0.
    in
    (* an accepted job's latency after the generator's own lag is queue
       wait (admission included) + execution + persistence, transport and
       polling; the last three have no instrument yet *)
    let claimed = hist_sum e "serve.queue_wait_seconds" +. hist_sum e "serve.job_seconds" in
    let unclaimed = t.s_accepted_latency -. t.s_accepted_lag -. claimed in
    let values =
      program_layers e ~wall:t.s_wall
      @ replayed_layers e
      @ [
          ("latency_tail_s", tail_latency t);
          ("lint.busy_s", span_s "replay.lint");
          ("serve.submit_rtt_s", median t.s_submit_rtt);
          ("serve.status_rtt_s", median t.s_status_rtt);
          ("serve.queue_wait_s", mean "serve.queue_wait_seconds");
          ("serve.execute_s", mean "serve.job_seconds");
          ("serve.queue_depth_max", float_of_int t.s_in_flight_max);
          ( "serve.accepted",
            c "serve.jobs_submitted" -. c "serve.dedup_hits"
            -. c "serve.admission_rejected_busy"
            -. c "serve.admission_rejected_lint" -. c "serve.admission_invalid" );
          ("serve.dedup_hits", c "serve.dedup_hits");
          ("serve.rejected_busy", c "serve.admission_rejected_busy");
          ("serve.rejected_lint", c "serve.admission_rejected_lint");
          ("serve.generator_lag_s", Array.fold_left Float.max 0. t.s_lag);
          ("unattributed_s", unclaimed);
          ( "unattributed_share",
            if t.s_accepted_latency > 0. then unclaimed /. t.s_accepted_latency else 0. );
          ("obs.trace_overhead_s", t.s_wall -. u.s_wall);
        ]
    in
    finish
      ~details:
        (base
        @ stream_details t
        @ [
            ("untraced_wall_s", number u.s_wall);
            ("traced_wall_s", number t.s_wall);
            ("program_counters", jobj (List.map (fun (k, v) -> (k, number v)) e.counters));
          ])
      ~attempted:(2 * n) ~failed ~wanted:per_layer values
  end

(* ---- entry point ---- *)

let usage =
  "bench_e2e/run.sh --workload atlas|sweep|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "atlas|sweep|serve");
      ("--seed", Arg.Set_int seed, "N  workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S  how long one run measures");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if
    (not (List.mem !workload [ "atlas"; "sweep"; "serve" ]))
    || !seed < 0 || !seconds < 1
    || not (List.mem !trace [ 0; 1 ])
  then begin
    prerr_endline usage;
    exit 2
  end;
  at_exit cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Store.mkdir_p run_dir;
  let seed = !seed and seconds = float_of_int !seconds and trace = !trace in
  try
    match !workload with
    | "atlas" ->
        run_batch ~name:"atlas" ~pass:atlas_pass
          ~setup_only:(fun ~seed:_ ->
            let dir, _, t = atlas_setup () in
            rm_rf dir;
            t)
          ~check:atlas_check ~layers:atlas_layers ~jobs_per_pass:256 ~seed ~seconds
          ~trace
    | "sweep" ->
        run_batch ~name:"sweep" ~pass:sweep_pass
          ~setup_only:(fun ~seed ->
            let dir, t = sweep_setup ~seed ~metrics:Metrics.noop in
            rm_rf dir;
            t)
          ~check:sweep_check ~layers:sweep_layers ~jobs_per_pass:60 ~seed ~seconds
          ~trace
    | _ -> run_serve ~seed ~seconds ~trace
  with e ->
    Printf.eprintf "bench_e2e: %s\n%!" (Printexc.to_string e);
    exit 2
