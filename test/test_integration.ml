(* End-to-end integration tests: the paper's full evaluation pipeline
   from circuit synthesis through stochastic simulation to logic
   verification, including the behaviour under the threshold variations
   of Fig. 5 and the SBML/SBOL file round trips. *)

module Truth_table = Glc_logic.Truth_table
module Trace = Glc_ssa.Trace
module Circuit = Glc_gates.Circuit
module Circuits = Glc_gates.Circuits
module Cello = Glc_gates.Cello
module Benchmarks = Glc_gates.Benchmarks
module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Analyzer = Glc_core.Analyzer
module Verify = Glc_core.Verify

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* A shorter protocol than the paper's keeps the whole suite fast while
   still holding each combination well past the propagation delay. *)
let quick =
  Protocol.make ~total_time:4_000. ~hold_time:500. ~seed:7 ()

let verify ?(protocol = quick) circuit =
  let e = Experiment.run ~protocol circuit in
  Verify.experiment e

let test_all_benchmarks_verify () =
  List.iter
    (fun circuit ->
      let result, verdict = verify circuit in
      if not verdict.Verify.verified then
        Alcotest.failf "%s not verified: extracted %s (fitness %.2f%%)"
          circuit.Circuit.name
          (Glc_logic.Expr.to_string result.Analyzer.expr)
          result.Analyzer.fitness;
      checkb "healthy fitness" true (result.Analyzer.fitness > 95.))
    (Benchmarks.all ())

let test_paper_protocol_0x0B () =
  (* the paper's full 10,000 t.u. protocol on the Fig. 4 lead circuit *)
  let _, verdict = verify ~protocol:Protocol.default (Cello.circuit_0x0B ()) in
  checkb "verified under the paper protocol" true verdict.Verify.verified

let test_seed_robustness () =
  (* the verdict must not depend on the stochastic path *)
  List.iter
    (fun seed ->
      let protocol = Protocol.make ~seed () in
      let _, verdict = verify ~protocol (Circuits.genetic_and ()) in
      if not verdict.Verify.verified then
        Alcotest.failf "seed %d failed" seed)
    [ 1; 2; 3; 4; 5 ]

let test_fig5_low_threshold_breaks_logic () =
  let protocol = Protocol.with_threshold Protocol.default 3. in
  let _, verdict = verify ~protocol (Cello.circuit_0x0B ()) in
  checkb "wrong logic at threshold 3" false verdict.Verify.verified

let test_fig5_high_threshold_oscillates () =
  let total_var result =
    Array.fold_left
      (fun acc c -> acc + c.Analyzer.variations)
      0 result.Analyzer.cases
  in
  let at threshold =
    let protocol = Protocol.with_threshold Protocol.default threshold in
    let result, verdict = verify ~protocol (Cello.circuit_0x0B ()) in
    (total_var result, verdict.Verify.verified)
  in
  let var_nominal, ok_nominal = at 15. in
  let var_high, ok_high = at 90. in
  checkb "nominal verifies" true ok_nominal;
  checkb "high threshold breaks" false ok_high;
  checkb "output oscillates much more" true (var_high > 10 * var_nominal)

let test_sbml_round_trip_preserves_behaviour () =
  (* simulate the model after an SBML write/read cycle: identical trace *)
  let circuit = Cello.circuit_0x04 () in
  let model = Circuit.model circuit in
  let reread =
    match Glc_model.Sbml.of_string (Glc_model.Sbml.to_string model) with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let run m =
    Trace.to_csv
      (Experiment.run_model ~protocol:quick ~circuit m).Experiment.trace
  in
  checkb "bit-identical traces" true (String.equal (run model) (run reread))

let test_sbol_round_trip_preserves_logic () =
  let circuit = Cello.circuit_0x1C () in
  let doc = circuit.Circuit.document in
  let reread =
    match Glc_sbol.Sbol_xml.of_string (Glc_sbol.Sbol_xml.to_string doc) with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  (* rebuild the circuit around the re-read document and verify it *)
  let circuit' =
    Circuit.make ~name:circuit.Circuit.name ~document:reread
      ~inputs:circuit.Circuit.inputs ~output:circuit.Circuit.output
      ~expected:circuit.Circuit.expected
      ~promoter_kinetics:circuit.Circuit.promoter_kinetics
      ~regulator_affinity:circuit.Circuit.regulator_affinity ()
  in
  let _, verdict = verify circuit' in
  checkb "verified after SBOL round trip" true verdict.Verify.verified

let test_intermediate_probing () =
  (* probing an internal repressor yields a different (non-output) logic
     function of the same inputs *)
  let circuit = Cello.circuit_0x1C () in
  let e = Experiment.run ~protocol:quick circuit in
  let probe species =
    Analyzer.run
      {
        Analyzer.trace = e.Experiment.trace;
        inputs = circuit.Circuit.inputs;
        output = species;
      }
  in
  let output_code =
    Truth_table.to_code (Analyzer.extracted_table (probe "YFP"))
  in
  checki "output is the spec" 0x1C output_code;
  (* every internal node computes a well-defined function (all cases
     decided, i.e. minterms + excluded = observed combinations) *)
  Array.iter
    (fun species ->
      if
        (not (Array.mem species circuit.Circuit.inputs))
        && not (String.equal species "YFP")
      then begin
        let r = probe species in
        Array.iter
          (fun c ->
            if c.Analyzer.case_count = 0 then
              Alcotest.failf "unobserved combination when probing %s" species)
          r.Analyzer.cases
      end)
    (Trace.names e.Experiment.trace)

let test_unknown_model_flow () =
  (* the "no prior knowledge" flow: SBML text in, truth table out *)
  let sbml =
    Glc_model.Sbml.to_string (Circuit.model (Cello.of_code 0x70))
  in
  let model =
    match Glc_model.Sbml.of_string sbml with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let inputs = [| "LacI"; "TetR"; "AraC" |] in
  let trace = Experiment.run_trace ~protocol:quick ~inputs model in
  let r = Analyzer.run { Analyzer.trace; inputs; output = "YFP" } in
  checki "reconstructed code" 0x70
    (Truth_table.to_code (Analyzer.extracted_table r))

let test_experiment_case_counts_cover_run () =
  (* CaseAnalyzer accounts for every sample of the log exactly once *)
  let circuit = Cello.circuit_0x0B () in
  let e = Experiment.run ~protocol:quick circuit in
  let r = Verify.experiment e |> fst in
  let total =
    Array.fold_left (fun acc c -> acc + c.Analyzer.case_count) 0
      r.Analyzer.cases
  in
  checki "sample conservation" (Trace.length e.Experiment.trace) total

(* ---- robustness analysis ---- *)

let test_threshold_window () =
  let points =
    Glc_core.Robustness.threshold_window
      ~protocol:quick
      ~thresholds:[ 3.; 15.; 40.; 90. ]
      (Cello.circuit_0x0B ())
  in
  (match points with
  | [ p3; p15; p40; p90 ] ->
      checkb "3 fails" false p3.Glc_core.Robustness.w_verified;
      checkb "15 verifies" true p15.Glc_core.Robustness.w_verified;
      checkb "40 verifies" true p40.Glc_core.Robustness.w_verified;
      checkb "90 fails" false p90.Glc_core.Robustness.w_verified;
      checkb "oscillation grows" true
        (p90.Glc_core.Robustness.w_variations
        > p15.Glc_core.Robustness.w_variations)
  | _ -> Alcotest.fail "wrong number of sweep points");
  match Glc_core.Robustness.operating_range points with
  | Some (lo, hi) ->
      Alcotest.check (Alcotest.float 0.) "window low" 15. lo;
      Alcotest.check (Alcotest.float 0.) "window high" 40. hi
  | None -> Alcotest.fail "expected an operating window"

let test_parametric_yield_small_spread () =
  (* a well-margined circuit survives modest part variation *)
  let y =
    Glc_core.Robustness.parametric_yield ~protocol:quick ~trials:6
      ~spread:0.05 (Circuits.genetic_and ())
  in
  checki "all trials verify" 6 y.Glc_core.Robustness.y_verified

let test_parametric_yield_extreme_spread () =
  (* order-of-magnitude part variation must break some copies *)
  let y =
    Glc_core.Robustness.parametric_yield ~protocol:quick ~trials:6
      ~spread:2.0 (Cello.circuit_0x1C ())
  in
  checkb "imperfect yield" true
    (y.Glc_core.Robustness.y_verified < y.Glc_core.Robustness.y_trials)

let test_parametric_yield_validation () =
  let c = Circuits.genetic_not () in
  (match Glc_core.Robustness.parametric_yield ~trials:0 c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "trials 0");
  match Glc_core.Robustness.parametric_yield ~spread:(-0.1) c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative spread"

let () =
  Alcotest.run "integration"
    [
      ( "verification",
        [
          Alcotest.test_case "all 15 benchmarks verify" `Slow
            test_all_benchmarks_verify;
          Alcotest.test_case "paper protocol on 0x0B" `Slow
            test_paper_protocol_0x0B;
          Alcotest.test_case "seed robustness" `Slow test_seed_robustness;
        ] );
      ( "fig5",
        [
          Alcotest.test_case "low threshold breaks logic" `Slow
            test_fig5_low_threshold_breaks_logic;
          Alcotest.test_case "high threshold oscillates" `Slow
            test_fig5_high_threshold_oscillates;
        ] );
      ( "round_trips",
        [
          Alcotest.test_case "SBML preserves behaviour" `Slow
            test_sbml_round_trip_preserves_behaviour;
          Alcotest.test_case "SBOL preserves logic" `Slow
            test_sbol_round_trip_preserves_logic;
        ] );
      ( "flows",
        [
          Alcotest.test_case "intermediate probing" `Slow
            test_intermediate_probing;
          Alcotest.test_case "unknown model" `Slow test_unknown_model_flow;
          Alcotest.test_case "sample conservation" `Slow
            test_experiment_case_counts_cover_run;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "threshold window" `Slow test_threshold_window;
          Alcotest.test_case "yield under small spread" `Slow
            test_parametric_yield_small_spread;
          Alcotest.test_case "yield under extreme spread" `Slow
            test_parametric_yield_extreme_spread;
          Alcotest.test_case "validation" `Quick
            test_parametric_yield_validation;
        ] );
    ]
