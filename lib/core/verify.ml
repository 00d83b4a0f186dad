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

(* The verdict on an extracted table: every row where it departs from
   the intent is a wrong state. *)
let judge ~expected ~fitness extracted =
  let wrong_states =
    List.filter
      (fun row -> Truth_table.output expected row <> Truth_table.output extracted row)
      (List.init (Truth_table.rows expected) Fun.id)
  in
  { expected; extracted; wrong_states; verified = wrong_states = []; fitness }

let against ~expected (r : Analyzer.result) =
  if Truth_table.arity expected <> r.Analyzer.arity then
    invalid_arg "Verify.against: arity mismatch";
  judge ~expected ~fitness:r.Analyzer.fitness (Analyzer.extracted_table r)

let experiment ?params (e : Experiment.t) =
  let r = Analyzer.of_experiment ?params e in
  (r, against ~expected:e.Experiment.circuit.Circuit.expected r)

(* ------------------------------------------------------------------ *)
(* Certified-first verification, by the rule every stored job follows
   (Campaign.Runner.execute): a certificate that settles every row is
   the verdict; otherwise Algorithm 1 reads the whole protocol. *)

type outcome = {
  certificate : Certificate.t;
  result : Analyzer.result option;
  report : report;
}

let certified_first ?(params = Analyzer.default_params) ?margin
    ?(metrics = Metrics.noop) ?(protocol = Protocol.default) (c : Circuit.t) =
  let params = { params with Analyzer.threshold = protocol.Protocol.threshold } in
  let certificate = Certificate.certify ~metrics ?margin ~protocol c in
  match Certificate.undecided_rows certificate with
  | [] ->
      (* a proof carries no sampling noise: PFoBE is a clean 100 *)
      let extracted =
        Truth_table.create ~arity:(Circuit.arity c) (fun row ->
            Option.get (Certificate.proved_output certificate row))
      in
      {
        certificate;
        result = None;
        report = judge ~expected:c.Circuit.expected ~fitness:100. extracted;
      }
  | rows ->
      if Metrics.enabled metrics then begin
        Metrics.Counter.incr
          (Metrics.counter metrics "symbolic.fallback_simulations");
        Metrics.Counter.add
          (Metrics.counter metrics "symbolic.fallback_rows")
          (List.length rows)
      end;
      let r, report = experiment ~params (Experiment.run ~protocol ~metrics c) in
      { certificate; result = Some r; report }

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
