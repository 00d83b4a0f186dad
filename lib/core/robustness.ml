module Circuit = Glc_gates.Circuit
module To_model = Glc_sbol.To_model
module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Rng = Glc_ssa.Rng

type window_point = {
  w_threshold : float;
  w_verified : bool;
  w_fitness : float;
  w_variations : int;
  w_expr : Glc_logic.Expr.t;
}

let default_sweep = [ 3.; 8.; 15.; 25.; 40.; 60.; 80.; 90. ]

let threshold_window ?(protocol = Protocol.default)
    ?(thresholds = default_sweep) circuit =
  List.map
    (fun threshold ->
      let protocol = Protocol.with_threshold protocol threshold in
      let e = Experiment.run ~protocol circuit in
      let r, v = Verify.experiment e in
      {
        w_threshold = threshold;
        w_verified = v.Verify.verified;
        w_fitness = r.Analyzer.fitness;
        w_variations =
          Array.fold_left
            (fun acc c -> acc + c.Analyzer.variations)
            0 r.Analyzer.cases;
        w_expr = r.Analyzer.expr;
      })
    thresholds

let operating_range points =
  let verified =
    List.filter_map
      (fun p -> if p.w_verified then Some p.w_threshold else None)
      points
  in
  match verified with
  | [] -> None
  | t :: rest ->
      Some
        (List.fold_left Float.min t rest, List.fold_left Float.max t rest)

type yield = {
  y_trials : int;
  y_verified : int;
  y_mean_fitness : float;
}

(* Log-normal factor with sigma = spread. *)
let perturbation rng ~spread = Float.exp (spread *. Rng.gaussian rng)

let perturb_circuit rng ~spread (c : Circuit.t) =
  let promoter_kinetics =
    List.map
      (fun (prom, (k : To_model.kinetics)) ->
        let f = perturbation rng ~spread in
        (* strength and leakage co-vary (same promoter copy number) *)
        (prom, { k with To_model.ymax = k.ymax *. f; ymin = k.ymin *. f }))
      c.Circuit.promoter_kinetics
  in
  let regulator_affinity =
    List.map
      (fun (prot, (k, n)) -> (prot, (k *. perturbation rng ~spread, n)))
      c.Circuit.regulator_affinity
  in
  Circuit.make ~name:c.Circuit.name ~document:c.Circuit.document
    ~inputs:c.Circuit.inputs ~output:c.Circuit.output
    ~expected:c.Circuit.expected ~promoter_kinetics ~regulator_affinity ()

let parametric_yield ?(protocol = Protocol.default) ?(trials = 20)
    ?(spread = 0.2) circuit =
  if trials <= 0 then invalid_arg "Robustness.parametric_yield: trials <= 0";
  if spread < 0. then invalid_arg "Robustness.parametric_yield: spread < 0";
  let rng = Rng.create (protocol.Protocol.seed + 0x5EED) in
  let verified = ref 0 in
  let fitness_sum = ref 0. in
  for trial = 0 to trials - 1 do
    let candidate = perturb_circuit rng ~spread circuit in
    let protocol =
      { protocol with Protocol.seed = protocol.Protocol.seed + trial }
    in
    let e = Experiment.run ~protocol candidate in
    let r, v = Verify.experiment e in
    if v.Verify.verified then begin
      incr verified;
      fitness_sum := !fitness_sum +. r.Analyzer.fitness
    end
  done;
  {
    y_trials = trials;
    y_verified = !verified;
    y_mean_fitness =
      (if !verified = 0 then nan
       else !fitness_sum /. float_of_int !verified);
  }

let pp_yield ppf y =
  Format.fprintf ppf "%d/%d trials verified (%.0f%% parametric yield%s)"
    y.y_verified y.y_trials
    (100. *. float_of_int y.y_verified /. float_of_int y.y_trials)
    (if y.y_verified = 0 then ""
     else Format.asprintf ", mean fitness %.2f%%" y.y_mean_fitness)
