module Truth_table = Glc_logic.Truth_table
module Experiment = Glc_dvasim.Experiment
module Protocol = Glc_dvasim.Protocol
module Circuit = Glc_gates.Circuit
module Certificate = Glc_symbolic.Certificate
module Metrics = Glc_obs.Metrics

type report = {
  expected : Truth_table.t;
  extracted : Truth_table.t;
  wrong_states : int list;
  verified : bool;
  fitness : float;
}

let against ~expected (r : Analyzer.result) =
  if Truth_table.arity expected <> r.Analyzer.arity then
    invalid_arg "Verify.against: arity mismatch";
  let extracted = Analyzer.extracted_table r in
  let wrong_states =
    List.filter
      (fun row -> Truth_table.output expected row <> Truth_table.output extracted row)
      (List.init (Truth_table.rows expected) Fun.id)
  in
  {
    expected;
    extracted;
    wrong_states;
    verified = wrong_states = [];
    fitness = r.Analyzer.fitness;
  }

let experiment ?params (e : Experiment.t) =
  let r = Analyzer.of_experiment ?params e in
  (r, against ~expected:e.Experiment.circuit.Circuit.expected r)

(* ------------------------------------------------------------------ *)
(* Certified-first hybrid verification: consult the interval analyser,
   simulate only the rows it leaves undecided. *)

type provenance = Certified | Simulated

type hybrid = {
  h_certificate : Certificate.t;
  h_result : Analyzer.result option;
      (* the row-restricted stochastic analysis; None when the
         certificate decided every row *)
  h_provenance : provenance array;
  h_simulated_rows : int list;
  h_report : report;
}

let certified_first ?(params = Analyzer.default_params) ?margin
    ?(metrics = Metrics.noop) ?(protocol = Protocol.default) (c : Circuit.t) =
  let params = { params with Analyzer.threshold = protocol.Protocol.threshold } in
  let cert = Certificate.certify ~metrics ?margin ~protocol c in
  let arity = Circuit.arity c in
  let n_rows = 1 lsl arity in
  let undecided = Certificate.undecided_rows cert in
  let result, row_value =
    match undecided with
    | [] ->
        ( None,
          fun row ->
            match Certificate.proved_output cert row with
            | Some b -> b
            | None -> assert false )
    | rows ->
        if Metrics.enabled metrics then begin
          Metrics.Counter.incr
            (Metrics.counter metrics "symbolic.fallback_simulations");
          Metrics.Counter.add
            (Metrics.counter metrics "symbolic.fallback_rows")
            (List.length rows)
        end;
        (* give each undecided row the per-row slot budget the full
           protocol would have granted it (rounding up), so the
           stability filter sees comparable sample counts *)
        let visits =
          let slots = Protocol.slots protocol in
          max 1 ((slots + n_rows - 1) / n_rows)
        in
        let rows_a = Array.of_list rows in
        let trace =
          Experiment.run_trace_rows ~metrics ~protocol
            ~inputs:c.Circuit.inputs ~rows:rows_a
            (visits * Array.length rows_a)
            (Circuit.model c)
        in
        let r =
          Analyzer.run ~params
            {
              Analyzer.trace;
              inputs = c.Circuit.inputs;
              output = c.Circuit.output;
            }
        in
        let extracted = Analyzer.extracted_table r in
        ( Some r,
          fun row ->
            match Certificate.proved_output cert row with
            | Some b -> b
            | None -> Truth_table.output extracted row )
  in
  let extracted = Truth_table.create ~arity row_value in
  let wrong_states =
    List.filter
      (fun row ->
        Truth_table.output c.Circuit.expected row
        <> Truth_table.output extracted row)
      (List.init n_rows Fun.id)
  in
  let fitness =
    (* PFoBE measures observed output variation; certified rows carry
       none, so a fully certified circuit scores a clean 100 and a
       hybrid run scores whatever its simulated slice did *)
    match result with None -> 100. | Some r -> r.Analyzer.fitness
  in
  {
    h_certificate = cert;
    h_result = result;
    h_provenance =
      Array.init n_rows (fun row ->
          if Certificate.proved_output cert row <> None then Certified
          else Simulated);
    h_simulated_rows = undecided;
    h_report =
      {
        expected = c.Circuit.expected;
        extracted;
        wrong_states;
        verified = wrong_states = [];
        fitness;
      };
  }

let provenance_string = function
  | Certified -> "certified"
  | Simulated -> "simulated"

type cause = Unobserved | Unstable_output | Weak_output | Unexpected_high

type finding = { f_row : int; f_cause : cause }

let diagnose (r : Analyzer.result) report =
  if Truth_table.arity report.expected <> r.Analyzer.arity then
    invalid_arg "Verify.diagnose: arity mismatch";
  List.map
    (fun row ->
      let c = r.Analyzer.cases.(row) in
      let cause =
        if Truth_table.output report.expected row then
          (* expected high, extracted low *)
          if c.Analyzer.case_count = 0 then Unobserved
          else if not c.Analyzer.passes_fov then Unstable_output
          else Weak_output
        else Unexpected_high
      in
      { f_row = row; f_cause = cause })
    report.wrong_states

let pp_finding ~arity ppf f =
  let combination = Truth_table.combination ~arity f.f_row in
  match f.f_cause with
  | Unobserved ->
      Format.fprintf ppf
        "%s: never applied during the run — lengthen the simulation so \
         every combination gets a slot"
        combination
  | Unstable_output ->
      Format.fprintf ppf
        "%s: output oscillates around the threshold (rejected by eq. 1) \
         — adjust the threshold or the gate's noise margins"
        combination
  | Weak_output ->
      Format.fprintf ppf
        "%s: output mostly below threshold (rejected by eq. 2), \
         typically a stale or slow transition — lengthen the hold time"
        combination
  | Unexpected_high ->
      Format.fprintf ppf
        "%s: stable logic-1 where the intent says 0 — the circuit \
         computes a different function at this operating point"
        combination
