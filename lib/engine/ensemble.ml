module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Truth_table = Glc_logic.Truth_table
module Analyzer = Glc_core.Analyzer
module Verify = Glc_core.Verify
module Json = Glc_obs.Json
module Sim = Glc_ssa.Sim
module Compiled = Glc_ssa.Compiled

type config = {
  replicates : int;
  jobs : int;
  seed : int;
  protocol : Protocol.t;
  fov_ud : float;
}

let config ?(replicates = 16) ?(jobs = 0) ?(seed = 42)
    ?(protocol = Protocol.default)
    ?(fov_ud = Analyzer.default_params.Analyzer.fov_ud) () =
  if replicates < 1 then invalid_arg "Ensemble.config: replicates < 1";
  if jobs < 0 then invalid_arg "Ensemble.config: jobs < 0";
  { replicates; jobs; seed; protocol; fov_ud }

type replicate = {
  rep_index : int;
  rep_result : Analyzer.result;
  rep_verify : Verify.report;
}

type failure = { fail_index : int; fail_error : string }

type case_summary = {
  cs_row : int;
  cs_minterm_votes : int;
  cs_consensus : bool;
  cs_agreement : float;
  cs_flaky : bool;
  cs_fov : Stats.summary;
}

type t = {
  name : string;
  arity : int;
  seed : int;
  requested : int;
  expected : Truth_table.t;
  replicates : replicate array;
  failures : failure array;
  fitness : Stats.summary;
  verified_count : int;
  consensus : Truth_table.t;
  consensus_verified : bool;
  cases : case_summary array;
  flaky : int list;
}

let aggregate ~name ~seed ~requested ~expected ~replicates ~failures =
  let arity = Truth_table.arity expected in
  List.iter
    (fun rep ->
      if rep.rep_result.Analyzer.arity <> arity then
        invalid_arg "Ensemble.aggregate: replicate arity mismatch")
    replicates;
  let replicates =
    Array.of_list
      (List.sort (fun a b -> compare a.rep_index b.rep_index) replicates)
  in
  let failures =
    Array.of_list
      (List.sort (fun a b -> compare a.fail_index b.fail_index) failures)
  in
  let n = Array.length replicates in
  let fitness =
    Stats.of_array
      (Array.map (fun r -> r.rep_result.Analyzer.fitness) replicates)
  in
  let verified_count =
    Array.fold_left
      (fun acc r -> if r.rep_verify.Verify.verified then acc + 1 else acc)
      0 replicates
  in
  let cases =
    Array.init (1 lsl arity) (fun row ->
        let votes =
          Array.fold_left
            (fun acc r ->
              if Truth_table.output r.rep_verify.Verify.extracted row then
                acc + 1
              else acc)
            0 replicates
        in
        (* strict majority: ties vote low, like the analyzer's eq. (2) *)
        let consensus = 2 * votes > n in
        let agreeing = if consensus then votes else n - votes in
        {
          cs_row = row;
          cs_minterm_votes = votes;
          cs_consensus = consensus;
          cs_agreement = Stats.fraction ~count:agreeing ~total:n;
          cs_flaky = votes > 0 && votes < n;
          cs_fov =
            Stats.of_array
              (Array.map
                 (fun r ->
                   r.rep_result.Analyzer.cases.(row).Analyzer.fov_est)
                 replicates);
        })
  in
  let consensus =
    Truth_table.of_minterms ~arity
      (List.filter_map
         (fun c -> if c.cs_consensus then Some c.cs_row else None)
         (Array.to_list cases))
  in
  {
    name;
    arity;
    seed;
    requested;
    expected;
    replicates;
    failures;
    fitness;
    verified_count;
    consensus;
    consensus_verified = Truth_table.equal consensus expected;
    cases;
    flaky =
      List.filter_map
        (fun c -> if c.cs_flaky then Some c.cs_row else None)
        (Array.to_list cases);
  }

exception Interrupted

let () =
  Printexc.register_printer (function
    | Interrupted -> Some "interrupted"
    | _ -> None)

let run ?pool ?(progress = Progress.null) ?cache
    ?(metrics = Glc_obs.Metrics.noop) ?(should_stop = fun () -> false)
    (cfg : config) (circuit : Circuit.t) =
  if cfg.replicates < 1 then invalid_arg "Ensemble.run: replicates < 1";
  let module Metrics = Glc_obs.Metrics in
  let live = Metrics.enabled metrics in
  let t_start = if live then Glc_obs.Clock.now () else 0. in
  let obs_ok = Metrics.counter metrics "engine.replicates_ok" in
  let obs_failed = Metrics.counter metrics "engine.replicates_failed" in
  let protocol = cfg.protocol in
  let compiled =
    match cache with
    | Some c ->
        (* key by name + content fingerprint: same-name circuits with
           different kinetics (yield perturbations, campaign grids over
           input-high) must not share a compilation *)
        let model = Circuit.model circuit in
        Cache.compiled c
          ~key:(Cache.model_key ~name:circuit.Circuit.name model)
          (fun () -> model)
    | None -> Compiled.compile (Circuit.model circuit)
  in
  let events = Experiment.input_schedule protocol circuit in
  let sim_cfg =
    Sim.config ~dt:protocol.Protocol.dt ~algorithm:protocol.Protocol.algorithm
      ~t_end:protocol.Protocol.total_time ()
  in
  let params =
    { Analyzer.threshold = protocol.Protocol.threshold; fov_ud = cfg.fov_ud }
  in
  (* the analyser reads only the inputs and the output, so a replicate
     records only those columns; a species the model lacks is left out
     and the analyser reports it *)
  let record =
    Array.of_list
      (List.filter_map
         (fun id ->
           match Compiled.species_index compiled id with
           | i -> Some i
           | exception Not_found -> None)
         (Array.to_list circuit.Circuit.inputs @ [ circuit.Circuit.output ]))
  in
  let rngs = Seeds.derive ~metrics ~seed:cfg.seed cfg.replicates in
  let task i rng =
    match
      (* polled once per replicate: a signalled run skips the not-yet-
         started trajectories (recorded as "interrupted" failures) and
         aggregates what completed, instead of dying mid-simulation *)
      if should_stop () then raise Interrupted;
      (* [derive] allocated every stream back to back on this domain;
         a copy made here puts the state the run writes on every draw
         in the worker's own memory, not on a cache line it shares
         with a neighbour's stream *)
      let rng = Glc_ssa.Rng.copy rng in
      let trace, _stats =
        Sim.run_compiled_rng ~events ~metrics ~rng ~record sim_cfg compiled
      in
      let r =
        Analyzer.run ~params
          {
            Analyzer.trace;
            inputs = circuit.Circuit.inputs;
            output = circuit.Circuit.output;
          }
      in
      let v = Verify.against ~expected:circuit.Circuit.expected r in
      { rep_index = i; rep_result = r; rep_verify = v }
    with
    | rep ->
        Metrics.Counter.incr obs_ok;
        Progress.report progress (Progress.Replicate_ok i);
        rep
    | exception e ->
        Metrics.Counter.incr obs_failed;
        Progress.report progress
          (Progress.Replicate_failed (i, Printexc.to_string e));
        raise e
  in
  let outcomes =
    match pool with
    | Some p -> Pool.map p task rngs
    | None ->
        let jobs = if cfg.jobs = 0 then Pool.default_jobs () else cfg.jobs in
        Pool.with_pool ~jobs ~metrics (fun p -> Pool.map p task rngs)
  in
  let replicates, failures =
    Array.fold_right
      (fun outcome (reps, fails) ->
        match outcome with
        | Ok rep -> (rep :: reps, fails)
        | Error (e : Pool.error) ->
            ( reps,
              { fail_index = e.Pool.task; fail_error = e.Pool.message }
              :: fails ))
      outcomes ([], [])
  in
  let t =
    aggregate ~name:circuit.Circuit.name ~seed:cfg.seed
      ~requested:cfg.replicates ~expected:circuit.Circuit.expected
      ~replicates ~failures
  in
  if live then begin
    Metrics.Counter.incr (Metrics.counter metrics "engine.ensembles");
    Metrics.observe_since metrics "engine.ensemble_seconds" t_start
  end;
  t

(* ---- reports ---- *)

let pp ppf t =
  let n = Array.length t.replicates in
  Format.fprintf ppf "@[<v>ensemble %s: %d replicate(s) requested (seed %d), \
                      %d completed, %d failed@,"
    t.name t.requested t.seed n (Array.length t.failures);
  Format.fprintf ppf "PFoBE: %a@," Stats.pp t.fitness;
  Format.fprintf ppf "replicates individually verified: %d/%d@,"
    t.verified_count n;
  Format.fprintf ppf "consensus: %a — %s (intent %a)@,"
    Truth_table.pp_code t.consensus
    (if t.consensus_verified then "VERIFIED against the intent"
     else "DOES NOT match the intent")
    Truth_table.pp_code t.expected;
  Format.fprintf ppf "@,%-*s %9s %7s %6s %18s@," (max t.arity 4) "case"
    "votes" "agree" "flaky" "FOV mean ± sd";
  Array.iter
    (fun c ->
      Format.fprintf ppf "%-*s %5d/%-3d %6.1f%% %6s %10.4f ± %.4f@,"
        (max t.arity 4)
        (Truth_table.combination ~arity:t.arity c.cs_row)
        c.cs_minterm_votes n
        (100. *. c.cs_agreement)
        (if c.cs_flaky then "FLAKY" else "-")
        c.cs_fov.Stats.mean c.cs_fov.Stats.sd)
    t.cases;
  (match t.flaky with
  | [] -> Format.fprintf ppf "@,flaky combinations: none"
  | rows ->
      Format.fprintf ppf "@,flaky combinations (replicates disagree): %s"
        (String.concat ", "
           (List.map (Truth_table.combination ~arity:t.arity) rows)));
  Array.iter
    (fun f ->
      Format.fprintf ppf "@,replicate %d FAILED: %s" f.fail_index
        f.fail_error)
    t.failures;
  Format.fprintf ppf "@]"

let to_json t =
  let summary (s : Stats.summary) =
    Json.obj
      [
        ("n", string_of_int s.Stats.n);
        ("mean", Json.float s.Stats.mean);
        ("sd", Json.float s.Stats.sd);
        ("ci95", Json.float s.Stats.ci95);
        ("min", Json.float s.Stats.min);
        ("max", Json.float s.Stats.max);
      ]
  in
  let ints xs = Json.arr (List.map string_of_int xs) in
  let case c =
    Json.obj
      [
        ("row", string_of_int c.cs_row);
        ( "combination",
          Json.string (Truth_table.combination ~arity:t.arity c.cs_row) );
        ("minterm_votes", string_of_int c.cs_minterm_votes);
        ("consensus", Json.bool c.cs_consensus);
        ("agreement", Json.float c.cs_agreement);
        ("flaky", Json.bool c.cs_flaky);
        ("fov", summary c.cs_fov);
      ]
  in
  let replicate r =
    Json.obj
      [
        ("index", string_of_int r.rep_index);
        ("fitness", Json.float r.rep_result.Analyzer.fitness);
        ("verified", Json.bool r.rep_verify.Verify.verified);
        ( "extracted_code",
          string_of_int (Truth_table.to_code r.rep_verify.Verify.extracted) );
        ("minterms", ints r.rep_result.Analyzer.minterms);
      ]
  in
  let failure f =
    Json.obj
      [
        ("index", string_of_int f.fail_index);
        ("error", Json.string f.fail_error);
      ]
  in
  Json.obj
    [
      ("circuit", Json.string t.name);
      ("arity", string_of_int t.arity);
      ("seed", string_of_int t.seed);
      ("requested", string_of_int t.requested);
      ("completed", string_of_int (Array.length t.replicates));
      ("failed", string_of_int (Array.length t.failures));
      ("expected_code", string_of_int (Truth_table.to_code t.expected));
      ("consensus_code", string_of_int (Truth_table.to_code t.consensus));
      ("consensus_verified", Json.bool t.consensus_verified);
      ("verified_count", string_of_int t.verified_count);
      ("fitness", summary t.fitness);
      ("flaky_rows", ints t.flaky);
      ("cases", Json.arr (Array.to_list (Array.map case t.cases)));
      ( "replicates",
        Json.arr (Array.to_list (Array.map replicate t.replicates)) );
      ("failures", Json.arr (Array.to_list (Array.map failure t.failures)));
    ]
