(* Tests for glc_core: Algorithm 1 on hand-crafted traces where every
   count, filter decision and fitness value is known exactly, plus the
   verification layer and the report printer. *)

module Trace = Glc_ssa.Trace
module Digital = Glc_core.Digital
module Analyzer = Glc_core.Analyzer
module Verify = Glc_core.Verify
module Report = Glc_core.Report
module Truth_table = Glc_logic.Truth_table
module Expr = Glc_logic.Expr

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)
let checks = Alcotest.check Alcotest.string

(* Builds a dt=1 trace from explicit per-sample states. *)
let trace_of ~names samples =
  match samples with
  | [] -> invalid_arg "trace_of: empty"
  | first :: _ ->
      let n = List.length samples in
      let r =
        Trace.Recorder.create ~names ~initial:first ~t0:0.
          ~t_end:(float_of_int (n - 1))
          ~dt:1. ()
      in
      List.iteri
        (fun k state -> Trace.Recorder.observe r (float_of_int k) state)
        samples;
      Trace.Recorder.finish r

(* One sample of a 1-input experiment: input level, output level. *)
let sample1 i o = [| i; o |]

let high = 30.
let low = 0.

(* ---- Digital (ADC) ---- *)

let test_adc () =
  Alcotest.(check (array bool))
    "threshold is inclusive"
    [| false; true; true; false |]
    (Digital.of_samples ~threshold:15. [| 14.9; 15.0; 15.1; 0. |]);
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Digital.of_samples: threshold <= 0") (fun () ->
      ignore (Digital.of_samples ~threshold:0. [| 1. |]))

let test_counts () =
  let stream = [| false; true; true; false; true; false; false |] in
  checki "highs" 3 (Digital.count_high stream);
  checki "variations" 4 (Digital.count_variations stream);
  checki "empty" 0 (Digital.count_variations [||]);
  checki "constant" 0
    (Digital.count_variations [| true; true; true |])

(* ---- CaseAnalyzer ---- *)

let test_case_streams_split () =
  (* Two inputs; visit rows 0,2,3; row 1 never occurs. Row 2 must mean
     I1 high / I2 low (I1 is the most significant bit). *)
  let names = [| "I1"; "I2"; "OUT" |] in
  let samples =
    [
      (* row 0: out low *)
      [| low; low; 1. |];
      [| low; low; 2. |];
      (* row 2: I1 high, out high *)
      [| high; low; 40. |];
      [| high; low; 45. |];
      [| high; low; 44. |];
      (* row 3: out low *)
      [| high; high; 3. |];
    ]
  in
  let streams =
    Analyzer.case_streams ~threshold:15.
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1"; "I2" |];
        output = "OUT";
      }
  in
  checki "row 0 length" 2 (Array.length streams.(0));
  checki "row 1 never occurs" 0 (Array.length streams.(1));
  checki "row 2 length" 3 (Array.length streams.(2));
  checki "row 3 length" 1 (Array.length streams.(3));
  Alcotest.(check (array bool))
    "row 2 all high" [| true; true; true |] streams.(2)

(* ---- the two filters (Fig. 2 and Fig. 3 of the paper) ---- *)

(* Scaled-down version of the paper's Fig. 2 XNOR trap: combination 00
   shows a short glitch of 1s (stable, but a tiny minority) and must be
   rejected by eq. (2); combination 11 is mostly 1 and accepted. *)
let test_fig2_xnor_trap () =
  let names = [| "I1"; "I2"; "OUT" |] in
  let case00 k =
    (* 100 samples; a 3-sample glitch in the middle *)
    let o = if k >= 50 && k < 53 then 40. else 1. in
    [| low; low; o |]
  in
  let case11 k =
    (* 60 samples; high after a 20-sample rise *)
    let o = if k >= 20 then 40. else 1. in
    [| high; high; o |]
  in
  let samples =
    List.init 100 case00 @ List.init 60 case11
  in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1"; "I2" |];
        output = "OUT";
      }
  in
  let c00 = r.Analyzer.cases.(0) and c11 = r.Analyzer.cases.(3) in
  checki "00 highs" 3 c00.Analyzer.high_count;
  checki "00 variations" 2 c00.Analyzer.variations;
  checkb "00 passes eq(1)" true c00.Analyzer.passes_fov;
  checkb "00 fails eq(2)" false c00.Analyzer.passes_majority;
  checkb "00 excluded" false c00.Analyzer.included;
  checki "11 highs" 40 c11.Analyzer.high_count;
  checkb "11 included" true c11.Analyzer.included;
  Alcotest.(check (list int)) "minterms: AND, not XNOR" [ 3 ]
    r.Analyzer.minterms;
  checks "expression" "I1.I2" (Expr.to_string r.Analyzer.expr)

(* The paper's Fig. 3: two combinations with the same number of 1s; the
   oscillatory one must be rejected by eq. (1) even though it passes
   eq. (2). *)
let test_fig3_oscillation_filter () =
  let names = [| "I1"; "OUT" |] in
  let stable k =
    (* 30 samples, first 16 high: one variation *)
    sample1 low (if k < 16 then 40. else 1.)
  in
  let oscillating k =
    (* 30 samples, 16 high but alternating: many variations *)
    let o =
      if k < 2 then 40. else if k mod 2 = 0 then 40. else 1.
    in
    sample1 high o
  in
  let samples = List.init 30 stable @ List.init 30 oscillating in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1" |];
        output = "OUT";
      }
  in
  let s = r.Analyzer.cases.(0) and o = r.Analyzer.cases.(1) in
  checki "same high count" s.Analyzer.high_count o.Analyzer.high_count;
  checkb "stable passes both" true s.Analyzer.included;
  checkb "oscillating passes eq(2)" true o.Analyzer.passes_majority;
  checkb "oscillating fails eq(1)" false o.Analyzer.passes_fov;
  Alcotest.(check (list int)) "only the stable case kept" [ 0 ]
    r.Analyzer.minterms

(* ---- fitness (eq. 3) ---- *)

let test_fitness_exact () =
  let names = [| "I1"; "OUT" |] in
  (* case 0: 20 samples all low (not counted in eq. 3).
     case 1: 20 samples, high with 2 variations: FOV_EST = 0.1. *)
  let case0 = List.init 20 (fun _ -> sample1 low 1.) in
  let case1 =
    List.init 20 (fun k ->
        sample1 high (if k = 5 then 1. else 40.))
  in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names (case0 @ case1);
        inputs = [| "I1" |];
        output = "OUT";
      }
  in
  checkf 1e-9 "fov of case 1" 0.1 r.Analyzer.cases.(1).Analyzer.fov_est;
  (* PFoBE = 100 - (0.1 / 2) * 100 = 95 *)
  checkf 1e-9 "fitness" 95. r.Analyzer.fitness;
  (* perfect data scores 100 *)
  let perfect =
    Analyzer.run
      {
        Analyzer.trace =
          trace_of ~names
            (List.init 10 (fun _ -> sample1 low 1.)
            @ List.init 10 (fun _ -> sample1 high 40.));
        inputs = [| "I1" |];
        output = "OUT";
      }
  in
  checkf 1e-9 "perfect fitness" 100. perfect.Analyzer.fitness

let test_unobserved_combinations () =
  let names = [| "I1"; "I2"; "OUT" |] in
  let samples = List.init 10 (fun _ -> [| low; low; 40. |]) in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1"; "I2" |];
        output = "OUT";
      }
  in
  checkb "observed row included" true r.Analyzer.cases.(0).Analyzer.included;
  for row = 1 to 3 do
    let c = r.Analyzer.cases.(row) in
    checki "zero count" 0 c.Analyzer.case_count;
    checkb "not included" false c.Analyzer.included
  done;
  Alcotest.(check (list int)) "only row 0" [ 0 ] r.Analyzer.minterms

let test_strict_fov_boundary () =
  (* eq. (1) is strict: FOV_EST equal to FOV_UD is rejected. *)
  let names = [| "I1"; "OUT" |] in
  (* 4 samples, 1 variation: FOV = 0.25 exactly *)
  let samples =
    [ sample1 high 40.; sample1 high 40.; sample1 high 40.;
      sample1 high 1. ]
  in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1" |];
        output = "OUT";
      }
  in
  checkf 1e-9 "fov" 0.25 r.Analyzer.cases.(1).Analyzer.fov_est;
  checkb "rejected at the boundary" false r.Analyzer.cases.(1).Analyzer.passes_fov

(* ---- parameter and data validation ---- *)

let test_analyzer_errors () =
  let tr = trace_of ~names:[| "I1"; "OUT" |] [ sample1 low 0. ] in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Analyzer.run
        { Analyzer.trace = tr; inputs = [| "ghost" |]; output = "OUT" });
  expect_invalid (fun () ->
      Analyzer.run
        { Analyzer.trace = tr; inputs = [| "I1" |]; output = "ghost" });
  expect_invalid (fun () ->
      Analyzer.run { Analyzer.trace = tr; inputs = [||]; output = "OUT" });
  expect_invalid (fun () ->
      Analyzer.run
        ~params:{ Analyzer.threshold = 15.; fov_ud = 0. }
        { Analyzer.trace = tr; inputs = [| "I1" |]; output = "OUT" });
  expect_invalid (fun () ->
      Analyzer.run
        ~params:{ Analyzer.threshold = 15.; fov_ud = 1.5 }
        { Analyzer.trace = tr; inputs = [| "I1" |]; output = "OUT" })

(* ---- expression construction ---- *)

let test_product_of_row () =
  let inputs = [| "I1"; "I2"; "I3" |] in
  checks "011" "I1'.I2.I3"
    (Expr.to_string (Analyzer.product_of_row ~inputs 3));
  checks "100" "I1.I2'.I3'"
    (Expr.to_string (Analyzer.product_of_row ~inputs 4));
  checks "single input" "I1"
    (Expr.to_string (Analyzer.product_of_row ~inputs:[| "I1" |] 1))

let test_extracted_table () =
  let names = [| "I1"; "OUT" |] in
  let samples =
    List.init 10 (fun _ -> sample1 low 40.)
    @ List.init 10 (fun _ -> sample1 high 1.)
  in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1" |];
        output = "OUT";
      }
  in
  checki "NOT gate code" 0x1 (Truth_table.to_code (Analyzer.extracted_table r));
  checks "expression" "I1'" (Expr.to_string r.Analyzer.expr)

(* ---- verification ---- *)

let analyzer_result_with minterms =
  let names = [| "I1"; "I2"; "OUT" |] in
  let samples =
    List.concat_map
      (fun row ->
        let i1 = if row land 2 = 2 then high else low in
        let i2 = if row land 1 = 1 then high else low in
        let o = if List.mem row minterms then 40. else 1. in
        List.init 10 (fun _ -> [| i1; i2; o |]))
      [ 0; 1; 2; 3 ]
  in
  Analyzer.run
    {
      Analyzer.trace = trace_of ~names samples;
      inputs = [| "I1"; "I2" |];
      output = "OUT";
    }

let test_verify_match () =
  let r = analyzer_result_with [ 3 ] in
  let v =
    Verify.against ~expected:(Truth_table.of_minterms ~arity:2 [ 3 ]) r
  in
  checkb "verified" true v.Verify.verified;
  Alcotest.(check (list int)) "no wrong states" [] v.Verify.wrong_states

let test_verify_wrong_states () =
  let r = analyzer_result_with [ 1; 3 ] in
  let v =
    Verify.against ~expected:(Truth_table.of_minterms ~arity:2 [ 2; 3 ]) r
  in
  checkb "not verified" false v.Verify.verified;
  Alcotest.(check (list int)) "symmetric difference" [ 1; 2 ]
    v.Verify.wrong_states

let test_verify_diagnose () =
  (* craft one failure of each kind over a 2-input experiment:
     expected = {1, 2, 3}; observed behaviour gives:
       row 0: stable high  -> Unexpected_high
       row 1: mostly low   -> Weak_output
       row 2: oscillating  -> Unstable_output
       row 3: never driven -> Unobserved *)
  let names = [| "I1"; "I2"; "OUT" |] in
  let block row f =
    List.init 40 (fun k ->
        let i1 = if row land 2 = 2 then high else low in
        let i2 = if row land 1 = 1 then high else low in
        [| i1; i2; f k |])
  in
  let samples =
    block 0 (fun _ -> 40.)
    @ block 1 (fun k -> if k < 10 then 40. else 1.)
    @ block 2 (fun k -> if k mod 2 = 0 then 40. else 1.)
  in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1"; "I2" |];
        output = "OUT";
      }
  in
  let report =
    Verify.against ~expected:(Truth_table.of_minterms ~arity:2 [ 1; 2; 3 ]) r
  in
  Alcotest.(check (list int)) "all four wrong" [ 0; 1; 2; 3 ]
    report.Verify.wrong_states;
  let findings = Verify.diagnose r report in
  let causes = List.map (fun f -> f.Verify.f_cause) findings in
  checkb "classification" true
    (causes
    = [
        Verify.Unexpected_high; Verify.Weak_output; Verify.Unstable_output;
        Verify.Unobserved;
      ]);
  (* the rendered hints mention the remedies *)
  let rendered =
    String.concat "\n"
      (List.map
         (Format.asprintf "%a" (Verify.pp_finding ~arity:2))
         findings)
  in
  let has sub =
    let n = String.length rendered and m = String.length sub in
    let rec go i =
      i + m <= n && (String.sub rendered i m = sub || go (i + 1))
    in
    go 0
  in
  checkb "hold hint" true (has "lengthen the hold time");
  checkb "coverage hint" true (has "lengthen the simulation")

let test_verify_arity_mismatch () =
  let r = analyzer_result_with [ 3 ] in
  match Verify.against ~expected:(Truth_table.of_minterms ~arity:3 [ 3 ]) r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ---- baselines ---- *)

let test_baselines_on_fig2_trap () =
  (* the Fig. 2 XNOR trap input: stable glitch on 00, true high on 11 *)
  let names = [| "I1"; "I2"; "OUT" |] in
  let case00 k = [| low; low; (if k >= 50 && k < 53 then 40. else 1.) |] in
  let case11 k = [| high; high; (if k >= 20 then 40. else 1.) |] in
  let data =
    {
      Analyzer.trace =
        trace_of ~names (List.init 100 case00 @ List.init 60 case11);
      inputs = [| "I1"; "I2" |];
      output = "OUT";
    }
  in
  let minterms e = e.Glc_core.Baseline.b_minterms in
  (* the full algorithm and eq. (2) reject the glitch *)
  Alcotest.(check (list int)) "full" [ 3 ]
    (minterms (Glc_core.Baseline.full data));
  Alcotest.(check (list int)) "majority" [ 3 ]
    (minterms (Glc_core.Baseline.majority_only ~threshold:15. data));
  (* eq. (1) alone falls into the trap: the glitch is stable *)
  Alcotest.(check (list int)) "stability trapped" [ 0; 3 ]
    (minterms
       (Glc_core.Baseline.stability_only ~threshold:15. ~fov_ud:0.25 data));
  checki "wrong states counted" 1
    (Glc_core.Baseline.wrong_states
       ~expected:(Truth_table.of_minterms ~arity:2 [ 3 ])
       (Glc_core.Baseline.stability_only ~threshold:15. ~fov_ud:0.25 data))

let test_baseline_endpoint () =
  (* output that decays within each block: the endpoint read is low even
     though most of the block is high *)
  let names = [| "I1"; "OUT" |] in
  let block i1 f = List.init 20 (fun k -> sample1 i1 (f k)) in
  let samples =
    block low (fun _ -> 1.)
    @ block high (fun k -> if k < 15 then 40. else 1.)
    (* decays before the end *)
    @ block low (fun _ -> 1.)
    @ block high (fun k -> if k < 15 then 40. else 1.)
  in
  let data =
    {
      Analyzer.trace = trace_of ~names samples;
      inputs = [| "I1" |];
      output = "OUT";
    }
  in
  Alcotest.(check (list int)) "endpoint misses the mostly-high block" []
    (Glc_core.Baseline.endpoint_sampling ~threshold:15. data)
      .Glc_core.Baseline.b_minterms;
  Alcotest.(check (list int)) "majority sees it" [ 1 ]
    (Glc_core.Baseline.majority_only ~threshold:15. data)
      .Glc_core.Baseline.b_minterms

(* ---- smoothing ---- *)

let test_majority_smooth () =
  let noisy =
    [| false; false; true; false; false; true; true; true; true; false |]
  in
  let smoothed = Digital.majority_smooth ~window:3 noisy in
  (* the isolated spike at index 2 is removed; the level shift stays *)
  checkb "spike removed" false smoothed.(2);
  checkb "level kept" true smoothed.(6);
  Alcotest.(check (array bool))
    "identity window" noisy
    (Digital.majority_smooth ~window:1 noisy);
  Alcotest.check_raises "even window"
    (Invalid_argument
       "Digital.majority_smooth: window must be odd and positive")
    (fun () -> ignore (Digital.majority_smooth ~window:4 noisy))

let test_analyzer_smoothing_kills_glitches () =
  let names = [| "I1"; "OUT" |] in
  (* 60 samples with isolated single-sample glitches every 10 samples *)
  let samples =
    List.init 60 (fun k ->
        sample1 high (if k mod 10 = 5 then 1. else 40.))
  in
  let data =
    {
      Analyzer.trace = trace_of ~names samples;
      inputs = [| "I1" |];
      output = "OUT";
    }
  in
  let raw = Analyzer.run data in
  let smoothed = Analyzer.run ~smooth_window:5 data in
  checkb "raw sees variations" true
    (raw.Analyzer.cases.(1).Analyzer.variations > 5);
  checki "smoothing removes them" 0
    smoothed.Analyzer.cases.(1).Analyzer.variations;
  checkb "fitness improves" true
    (smoothed.Analyzer.fitness > raw.Analyzer.fitness)

(* ---- minimised expressions ---- *)

let test_minimised_expr () =
  let names = [| "I1"; "I2"; "I3"; "OUT" |] in
  (* drive minterms {0,1,3} of (I1,I2,I3): 0x0B's function *)
  let samples =
    List.concat_map
      (fun row ->
        let bit j = if (row lsr (2 - j)) land 1 = 1 then high else low in
        let o = if List.mem row [ 0; 1; 3 ] then 40. else 1. in
        List.init 8 (fun _ -> [| bit 0; bit 1; bit 2; o |]))
      (List.init 8 Fun.id)
  in
  let r =
    Analyzer.run
      {
        Analyzer.trace = trace_of ~names samples;
        inputs = [| "I1"; "I2"; "I3" |];
        output = "OUT";
      }
  in
  checks "canonical form"
    "I1'.I2'.I3' + I1'.I2'.I3 + I1'.I2.I3"
    (Expr.to_string r.Analyzer.expr);
  checks "minimised form" "I1'.I2' + I1'.I3"
    (Expr.to_string (Analyzer.minimised_expr r));
  checkb "forms are equivalent" true
    (Expr.equivalent
       ~inputs:[| "I1"; "I2"; "I3" |]
       r.Analyzer.expr
       (Analyzer.minimised_expr r));
  Alcotest.(check (array string))
    "inputs retained" [| "I1"; "I2"; "I3" |] r.Analyzer.inputs

(* ---- vcd ---- *)

let test_vcd () =
  let names = [| "I1"; "OUT" |] in
  let samples =
    [ sample1 low 1.; sample1 low 40.; sample1 high 40.; sample1 high 1. ]
  in
  let tr = trace_of ~names samples in
  let vcd = Glc_core.Vcd.of_trace ~threshold:15. tr in
  let has sub =
    let n = String.length vcd and m = String.length sub in
    let rec go i = i + m <= n && (String.sub vcd i m = sub || go (i + 1)) in
    go 0
  in
  checkb "declares I1" true (has "$var wire 1 ! I1 $end");
  checkb "declares OUT" true (has "$var wire 1 \" OUT $end");
  checkb "initial dump" true (has "$dumpvars\n0!\n0\"\n$end");
  checkb "OUT rises at 1" true (has "#1\n1\"");
  checkb "I1 rises at 2" true (has "#2\n1!");
  checkb "falls at 3" true (has "#3\n0\"");
  (* species selection *)
  let only_out = Glc_core.Vcd.of_trace ~species:[ "OUT" ] ~threshold:15. tr in
  let has_out sub =
    let n = String.length only_out and m = String.length sub in
    let rec go i =
      i + m <= n && (String.sub only_out i m = sub || go (i + 1))
    in
    go 0
  in
  checkb "selected species only" false (has_out "I1")

(* ---- properties ---- *)

(* Drives a trace that realises the given table, optionally injecting
   glitches: [flips] samples per combination get their output inverted
   (spread out so they never exceed the filters' tolerances). *)
let trace_for_table ?(flips = 0) ~block tt =
  let arity = Truth_table.arity tt in
  let names =
    Array.append
      (Array.init arity (fun j -> Printf.sprintf "I%d" (j + 1)))
      [| "OUT" |]
  in
  let samples =
    List.concat_map
      (fun row ->
        let bit j = if (row lsr (arity - 1 - j)) land 1 = 1 then high else low in
        let expected = Truth_table.output tt row in
        List.init block (fun k ->
            let glitched = flips > 0 && k mod (block / flips) = block / (2 * flips) in
            let out_high = if glitched then not expected else expected in
            Array.append
              (Array.init arity bit)
              [| (if out_high then 40. else 1.) |]))
      (List.init (Truth_table.rows tt) Fun.id)
  in
  {
    Analyzer.trace = trace_of ~names samples;
    inputs = Array.init arity (fun j -> Printf.sprintf "I%d" (j + 1));
    output = "OUT";
  }

let prop_recovers_any_table =
  QCheck.Test.make ~name:"clean traces yield the driven table exactly"
    ~count:150
    (QCheck.make
       ~print:(Printf.sprintf "0x%02X")
       QCheck.Gen.(int_bound 255))
    (fun code ->
      let tt = Truth_table.of_code ~arity:3 code in
      let r = Analyzer.run (trace_for_table ~block:40 tt) in
      Truth_table.equal tt (Analyzer.extracted_table r)
      && (Float.abs (r.Analyzer.fitness -. 100.) < 1e-9))

let prop_tolerates_sparse_glitches =
  QCheck.Test.make
    ~name:"isolated glitches below the filter bounds change nothing"
    ~count:100
    (QCheck.make
       ~print:(fun (c, f) -> Printf.sprintf "0x%02X/%d flips" c f)
       QCheck.Gen.(pair (int_bound 255) (int_range 1 3)))
    (fun (code, flips) ->
      let tt = Truth_table.of_code ~arity:3 code in
      let r =
        Analyzer.run (trace_for_table ~flips ~block:100 tt)
      in
      Truth_table.equal tt (Analyzer.extracted_table r))

(* ---- report ---- *)

let test_report_contents () =
  let r = analyzer_result_with [ 3 ] in
  let s = Report.result_to_string ~output_name:"OUT" r in
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  checkb "has header" true (has "Case_I");
  checkb "has PFoBE" true (has "PFoBE");
  checkb "has expression" true (has "OUT = I1.I2");
  checkb "marks minterm rows" true (has "*")

(* ---- robustness: operating_range over synthetic sweeps ---- *)

let wpoint ?(verified = true) w_threshold =
  {
    Glc_core.Robustness.w_threshold;
    w_verified = verified;
    w_fitness = 100.;
    w_variations = 0;
    w_expr = Glc_logic.Expr.False;
  }

let range = Alcotest.(option (pair (float 0.) (float 0.)))

let test_operating_range () =
  let open Glc_core.Robustness in
  Alcotest.check range "empty sweep" None (operating_range []);
  Alcotest.check range "no verified point" None
    (operating_range [ wpoint ~verified:false 3.; wpoint ~verified:false 15. ]);
  Alcotest.check range "single verified point collapses to [t, t]"
    (Some (15., 15.))
    (operating_range
       [ wpoint ~verified:false 3.; wpoint 15.; wpoint ~verified:false 40. ]);
  (* a non-contiguous verified set still reports min..max: the range is
     an envelope, not a guarantee that every interior point verifies *)
  Alcotest.check range "non-contiguous window is an envelope"
    (Some (8., 60.))
    (operating_range
       [
         wpoint ~verified:false 3.; wpoint 8.; wpoint ~verified:false 15.;
         wpoint 60.; wpoint ~verified:false 90.;
       ]);
  (* order of the sweep does not matter *)
  Alcotest.check range "unsorted sweep" (Some (8., 60.))
    (operating_range [ wpoint 60.; wpoint ~verified:false 90.; wpoint 8. ])

let () =
  Alcotest.run "glc_core"
    [
      ( "digital",
        [
          Alcotest.test_case "adc" `Quick test_adc;
          Alcotest.test_case "counts" `Quick test_counts;
        ] );
      ( "case_analyzer",
        [
          Alcotest.test_case "stream splitting" `Quick
            test_case_streams_split;
          Alcotest.test_case "unobserved combinations" `Quick
            test_unobserved_combinations;
        ] );
      ( "filters",
        [
          Alcotest.test_case "fig 2: the XNOR trap" `Quick
            test_fig2_xnor_trap;
          Alcotest.test_case "fig 3: oscillation filter" `Quick
            test_fig3_oscillation_filter;
          Alcotest.test_case "strict FOV boundary" `Quick
            test_strict_fov_boundary;
        ] );
      ( "fitness",
        [ Alcotest.test_case "exact values" `Quick test_fitness_exact ] );
      ( "validation",
        [ Alcotest.test_case "errors" `Quick test_analyzer_errors ] );
      ( "expressions",
        [
          Alcotest.test_case "product_of_row" `Quick test_product_of_row;
          Alcotest.test_case "extracted table" `Quick test_extracted_table;
        ] );
      ( "verify",
        [
          Alcotest.test_case "match" `Quick test_verify_match;
          Alcotest.test_case "wrong states" `Quick test_verify_wrong_states;
          Alcotest.test_case "diagnosis" `Quick test_verify_diagnose;
          Alcotest.test_case "arity mismatch" `Quick
            test_verify_arity_mismatch;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "fig 2 trap" `Quick test_baselines_on_fig2_trap;
          Alcotest.test_case "endpoint sampling" `Quick
            test_baseline_endpoint;
        ] );
      ( "smoothing",
        [
          Alcotest.test_case "majority filter" `Quick test_majority_smooth;
          Alcotest.test_case "glitch removal in the analyzer" `Quick
            test_analyzer_smoothing_kills_glitches;
        ] );
      ( "minimisation",
        [ Alcotest.test_case "minimised_expr" `Quick test_minimised_expr ] );
      ("vcd", [ Alcotest.test_case "format" `Quick test_vcd ]);
      ( "report",
        [ Alcotest.test_case "contents" `Quick test_report_contents ] );
      ( "robustness",
        [
          Alcotest.test_case "operating_range edge cases" `Quick
            test_operating_range;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_recovers_any_table; prop_tolerates_sparse_glitches ] );
    ]
