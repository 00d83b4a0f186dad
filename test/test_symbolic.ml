(* The symbolic verifier: interval arithmetic, the descending
   steady-state fixpoint, and the certificates built on them.

   The load-bearing properties are differential: every bound the
   analyser derives must contain what the concrete engines (ODE,
   SSA + Algorithm 1) actually compute, over the full Table-1 benchmark
   set and randomly synthesised circuits. An interval-vs-simulation
   disagreement is a soundness bug, never a tolerance issue. *)

module Math = Glc_model.Math
module Model = Glc_model.Model
module Truth_table = Glc_logic.Truth_table
module Circuit = Glc_gates.Circuit
module Cello = Glc_gates.Cello
module Benchmarks = Glc_gates.Benchmarks
module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Analyzer = Glc_core.Analyzer
module Verify = Glc_core.Verify
module Metrics = Glc_obs.Metrics
module Interval = Glc_symbolic.Interval
module Steady_state = Glc_symbolic.Steady_state
module Certificate = Glc_symbolic.Certificate

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let check_contains what iv v =
  if not (Interval.contains iv v) then
    Alcotest.failf "%s: %.17g outside %s" what v (Interval.to_string iv)

(* ---- the interval domain ---- *)

let test_interval_construction () =
  let i = Interval.make 1. 2. in
  checkb "lo" true (Interval.lo i = 1.);
  checkb "hi" true (Interval.hi i = 2.);
  checkb "minus zero normalised" true
    (Interval.lo (Interval.point (-0.)) = 0.
    && 1. /. Interval.lo (Interval.point (-0.)) = infinity);
  checkb "nan gives full" true
    (Interval.equal (Interval.make nan nan) Interval.full);
  checkb "point of nan gives full" true
    (Interval.equal (Interval.point nan) Interval.full);
  checkb "lo > hi rejected" true
    (match Interval.make 2. 1. with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "zero is zero" true (Interval.is_zero Interval.zero);
  checkb "top not finite" false (Interval.is_finite Interval.top);
  checkb "subset" true (Interval.subset (Interval.make 1. 2.) Interval.top);
  checkb "join" true
    (Interval.equal
       (Interval.join (Interval.make 0. 1.) (Interval.make 3. 4.))
       (Interval.make 0. 4.));
  checkb "disjoint meet" true
    (Interval.meet (Interval.make 0. 1.) (Interval.make 2. 3.) = None);
  checkb "meet_sound falls back" true
    (Interval.equal
       (Interval.meet_sound (Interval.make 0. 1.) (Interval.make 2. 3.))
       (Interval.make 0. 1.))

let test_interval_division_guards () =
  (* a denominator straddling zero destroys all information ... *)
  checkb "straddling denominator" true
    (Interval.equal
       (Interval.div (Interval.make 1. 2.) (Interval.make (-1.) 1.))
       Interval.full);
  (* ... unless the numerator is identically zero: a zero rate never
     fires, whatever the denominator (the clamped-propensity
     convention glc_lint's zero-propagation relies on) *)
  checkb "zero numerator wins" true
    (Interval.equal
       (Interval.div Interval.zero (Interval.make (-1.) 1.))
       Interval.zero);
  checkb "ordinary division" true
    (Interval.equal
       (Interval.div (Interval.make 2. 4.) (Interval.make 1. 2.))
       (Interval.make 1. 4.))

let test_interval_zero_times_infinity () =
  checkb "0 * top = 0" true
    (Interval.is_zero (Interval.mul Interval.zero Interval.top));
  checkb "0 * full = 0" true
    (Interval.is_zero (Interval.mul Interval.zero Interval.full));
  checkb "top * top stays top" true
    (Interval.equal (Interval.mul Interval.top Interval.top) Interval.top)

let test_interval_pow () =
  (* Float.pow 0 0 = 1 — the concrete semantics we abstract *)
  checkb "0^0 = 1" true
    (Interval.equal
       (Interval.pow (Interval.point 0.) (Interval.point 0.))
       Interval.one);
  checkb "negative base gives full" true
    (Interval.equal
       (Interval.pow (Interval.make (-2.) 1.) (Interval.point 0.5))
       Interval.full);
  (* a point argument is one concrete operation: exact, no widening *)
  checkb "point power exact" true
    (Interval.equal
       (Interval.pow (Interval.point 2.) (Interval.point 2.))
       (Interval.point 4.));
  (* non-degenerate arguments are widened outward by one ulp *)
  let p = Interval.pow (Interval.make 2. 3.) (Interval.point 2.) in
  checkb "outward low" true (Interval.lo p < 4. && Interval.lo p > 3.99);
  checkb "outward high" true (Interval.hi p > 9. && Interval.hi p < 9.01)

let test_interval_exp_ln () =
  checkb "exp of point is exact" true
    (Interval.equal (Interval.exp (Interval.point 0.)) Interval.one);
  checkb "ln of point is exact" true
    (Interval.equal (Interval.ln Interval.one) Interval.zero);
  let e = Interval.exp (Interval.make 0. 1.) in
  check_contains "exp contains e" e (Float.exp 1.);
  check_contains "exp contains 1" e 1.;
  let l = Interval.ln (Interval.make 0. 1.) in
  checkb "ln reaches -inf at 0" true (Interval.lo l = neg_infinity);
  check_contains "ln contains 0" l 0.

let test_next_up_down () =
  checkb "next_up grows" true (Interval.next_up 1. > 1.);
  checkb "next_down shrinks" true (Interval.next_down 1. < 1.);
  checkb "adjacent" true (Interval.next_down (Interval.next_up 1.) = 1.);
  checkb "next_up of 0 is minimal subnormal" true
    (Interval.next_up 0. > 0. && Interval.next_up 0. < 1e-300);
  checkb "infinity is absorbing" true
    (Interval.next_up infinity = infinity)

let test_widen () =
  let w = Interval.widen (Interval.make 0. 1.) (Interval.make 0. 2.) in
  checkb "escaping hi jumps to infinity" true (Interval.hi w = infinity);
  checkb "stable lo kept" true (Interval.lo w = 0.);
  (* widening never narrows: a non-escaping new value keeps the old
     endpoints, so an ascending chain cannot oscillate *)
  checkb "no escape keeps the old bounds" true
    (Interval.equal
       (Interval.widen (Interval.make 0. 2.) (Interval.make 0.5 1.))
       (Interval.make 0. 2.))

let test_eval_zero_propagation () =
  (* the degenerate [0,0] tracking glc_lint's reachability keys on *)
  let lookup = function
    | "x" -> Interval.top
    | "zero" -> Interval.zero
    | _ -> Interval.full
  in
  let zero e = Interval.is_zero (Interval.eval ~lookup e) in
  checkb "0 * x" true (zero Math.(num 0. * var "x"));
  checkb "zero ident * x" true (zero Math.(var "zero" * var "x"));
  checkb "0 / x" true (zero Math.(num 0. / var "x"));
  checkb "0 + 0" true (zero Math.(num 0. + (var "zero" * var "x")));
  checkb "min 0 x over top" true (zero (Math.Min (Math.num 0., Math.var "x")));
  checkb "x alone is not zero" false (zero (Math.var "x"))

(* ---- QCheck: eval is a sound abstraction of Math.eval ---- *)

let idents = [| "a"; "b"; "c" |]

let expr_gen =
  let open QCheck.Gen in
  sized_size (int_bound 5) @@ fix (fun self n ->
      let leaf =
        oneof
          [
            map Math.num (float_bound_inclusive 5.);
            map (fun v -> Math.num (-.v)) (float_bound_inclusive 5.);
            map (fun i -> Math.var idents.(i)) (int_bound 2);
          ]
      in
      if n = 0 then leaf
      else
        let sub = self (n / 2) in
        oneof
          [
            leaf;
            map (fun e -> Math.Neg e) sub;
            map2 (fun a b -> Math.Add (a, b)) sub sub;
            map2 (fun a b -> Math.Sub (a, b)) sub sub;
            map2 (fun a b -> Math.Mul (a, b)) sub sub;
            map2 (fun a b -> Math.Div (a, b)) sub sub;
            map2 (fun a b -> Math.Pow (a, b)) sub sub;
            map2 (fun a b -> Math.Min (a, b)) sub sub;
            map2 (fun a b -> Math.Max (a, b)) sub sub;
            map (fun e -> Math.Exp e) sub;
            map (fun e -> Math.Ln e) sub;
          ])

(* An environment pairs each identifier with an interval and a concrete
   value inside it. *)
let env_gen =
  let open QCheck.Gen in
  let one_binding =
    map3
      (fun lo width t ->
        let lo = lo -. 3. and hi = lo -. 3. +. width in
        let v = Float.min hi (Float.max lo (lo +. (t *. width))) in
        (Interval.make lo hi, v))
      (float_bound_inclusive 6.)
      (float_bound_inclusive 3.)
      (float_bound_inclusive 1.)
  in
  array_repeat 3 one_binding

(* The domain's soundness contract (interval.mli) is for evaluations
   whose intermediate results stay finite — the fragment kinetic laws
   live in. The 0*inf and 0/0 conventions are deliberately unsound
   beyond it, so expressions that overflow or hit a NaN mid-way are
   outside the property (vacuously true), not counterexamples. *)
let rec all_intermediates_finite lookup e =
  Float.is_finite (Math.eval ~lookup e)
  &&
  match e with
  | Math.Const _ | Math.Ident _ -> true
  | Math.Neg a | Math.Exp a | Math.Ln a -> all_intermediates_finite lookup a
  | Math.Add (a, b)
  | Math.Sub (a, b)
  | Math.Mul (a, b)
  | Math.Div (a, b)
  | Math.Pow (a, b)
  | Math.Min (a, b)
  | Math.Max (a, b) ->
      all_intermediates_finite lookup a && all_intermediates_finite lookup b

let qcheck_eval_sound =
  QCheck.Test.make ~count:2000 ~name:"Interval.eval encloses Math.eval"
    (QCheck.make
       ~print:(fun (e, _) -> Math.to_string e)
       QCheck.Gen.(pair expr_gen env_gen))
    (fun (e, env) ->
      let index x =
        match
          Array.to_list idents
          |> List.mapi (fun i id -> (id, i))
          |> List.assoc_opt x
        with
        | Some i -> i
        | None -> QCheck.Test.fail_report "unknown ident"
      in
      let concrete x = snd env.(index x) in
      if not (all_intermediates_finite concrete e) then true
      else
        let iv = Interval.eval ~lookup:(fun x -> fst env.(index x)) e in
        Interval.contains iv (Math.eval ~lookup:concrete e))

(* ---- the steady-state engine ---- *)

(* Clamp a circuit's sensor species to the rail levels of a row, the
   same environment Certificate builds internally. *)
let row_env (p : Protocol.t) (c : Circuit.t) row =
  let arity = Circuit.arity c in
  Array.to_list
    (Array.mapi
       (fun j id ->
         let bit = (row lsr (arity - 1 - j)) land 1 = 1 in
         ( id,
           Interval.point
             (if bit then p.Protocol.input_high else p.Protocol.input_low) ))
       c.Circuit.inputs)

let test_descending_iterates_nested () =
  (* stopping the narrowing early never widens a bound: the iterates
     form a descending chain, so a cap of k+1 rounds is everywhere
     inside a cap of k. This is what makes early exit sound. *)
  let p = Protocol.default in
  List.iter
    (fun c ->
      let m = Circuit.model c in
      let inputs = row_env p c 0 in
      let prev = ref None in
      for k = 1 to 6 do
        let s = Steady_state.analyse ~max_iters:k ~inputs m in
        (match !prev with
        | None -> ()
        | Some s' ->
            List.iter
              (fun (id, b) ->
                if not (Interval.subset b (Steady_state.bound s' id)) then
                  Alcotest.failf "%s/%s: iterate %d not inside iterate %d"
                    c.Circuit.name id k (k - 1))
              s.Steady_state.ss_bounds);
        prev := Some s
      done)
    (Benchmarks.all ())

let test_fixpoint_converges_fast () =
  (* feed-forward repressor cascades settle in about one round per
     layer; convergence is a quality signal, not a soundness one *)
  List.iter
    (fun c ->
      let cert = Certificate.certify c in
      Array.iter
        (fun r ->
          checkb
            (Printf.sprintf "%s row %d converged" c.Circuit.name
               r.Certificate.cr_row)
            true r.Certificate.cr_converged;
          checkb "few iterations" true (r.Certificate.cr_iterations <= 10))
        cert.Certificate.c_rows)
    (Benchmarks.all ())

(* ---- certificates, differentially against the ODE ---- *)

(* The deterministic oracle: clamp the sensors, integrate to the DC
   operating point, and demand the settled output lie in the certified
   bound (within a whisker of integration slack). This checks the
   bounds themselves, for every row — proved or not. *)
let ode_output (p : Protocol.t) (c : Circuit.t) row =
  let arity = Circuit.arity c in
  let m =
    Array.to_list c.Circuit.inputs
    |> List.mapi (fun j id ->
           let bit = (row lsr (arity - 1 - j)) land 1 = 1 in
           (id, if bit then p.Protocol.input_high else p.Protocol.input_low))
    |> List.fold_left
         (fun m (id, v) -> Model.with_initial m id v)
         (Circuit.model c)
  in
  List.assoc c.Circuit.output
    (Ode_oracle.steady_state ~max_time:20_000. ~tolerance:1e-9 m)

let widen_slack iv =
  Interval.make (Interval.lo iv -. 0.5) (Interval.hi iv +. 0.5)

let test_bounds_contain_ode_steady_state () =
  let p = Protocol.default in
  List.iter
    (fun c ->
      let cert = Certificate.certify ~protocol:p c in
      Array.iter
        (fun r ->
          let v = ode_output p c r.Certificate.cr_row in
          check_contains
            (Printf.sprintf "%s row %d" c.Circuit.name r.Certificate.cr_row)
            (widen_slack r.Certificate.cr_bounds)
            v)
        cert.Certificate.c_rows)
    (Benchmarks.all ())

(* ---- certificates, differentially against the SSA verifier ---- *)

let quick = Protocol.make ~total_time:4_000. ~hold_time:500. ~seed:7 ()

let test_proved_rows_agree_with_ssa () =
  (* every proved verdict must match what the stochastic pipeline
     (Experiment + Algorithm 1) extracts: a disagreement means the
     noise margin is wrong, not that the tolerance is tight *)
  List.iter
    (fun c ->
      let cert = Certificate.certify ~protocol:quick c in
      let e = Experiment.run ~protocol:quick c in
      let r = Analyzer.of_experiment e in
      let extracted = Analyzer.extracted_table r in
      Array.iter
        (fun row ->
          match row.Certificate.cr_verdict with
          | Certificate.Undecided -> ()
          | Certificate.Proved_high | Certificate.Proved_low ->
              let proved = row.Certificate.cr_verdict = Certificate.Proved_high in
              if Truth_table.output extracted row.Certificate.cr_row <> proved
              then
                Alcotest.failf "%s row %d: proved %b but SSA extracted %b"
                  c.Circuit.name row.Certificate.cr_row proved (not proved))
        cert.Certificate.c_rows)
    (Benchmarks.all ())

let test_table1_coverage () =
  (* the acceptance floor: at least half of the benchmark rows decide
     symbolically (measured: 97 of 98) with no proved contradiction *)
  let proved, rows =
    List.fold_left
      (fun (p, n) c ->
        let cert = Certificate.certify c in
        checkb (c.Circuit.name ^ " no contradiction") true
          (Certificate.contradictions cert = []);
        (p + Certificate.decided cert, n + Certificate.rows cert))
      (0, 0) (Benchmarks.all ())
  in
  checkb "at least half the rows certified" true (2 * proved >= rows);
  checki "whole-benchmark coverage" 97 proved;
  checki "whole-benchmark rows" 98 rows

(* ---- QCheck: random circuits against the ODE oracle ---- *)

let qcheck_random_circuits_sound =
  QCheck.Test.make ~count:12 ~name:"certificates sound on random circuits"
    (QCheck.make
       ~print:(fun (code, deg) -> Printf.sprintf "0x%02X deg=%g" code deg)
       QCheck.Gen.(
         pair (int_bound 255)
           (map (fun t -> 0.02 +. (t *. 0.15)) (float_bound_inclusive 1.))))
    (fun (code, degradation) ->
      let c = Cello.of_code code in
      let p = Protocol.default in
      let m = Circuit.model ~degradation c in
      let cert =
        Certificate.certify_model ~threshold:p.Protocol.threshold
          ~input_high:p.Protocol.input_high ~input_low:p.Protocol.input_low
          ~inputs:c.Circuit.inputs ~output:c.Circuit.output
          ~expected:c.Circuit.expected m
      in
      Array.for_all
        (fun r ->
          let arity = Circuit.arity c in
          let m =
            Array.to_list c.Circuit.inputs
            |> List.mapi (fun j id ->
                   let bit = (r.Certificate.cr_row lsr (arity - 1 - j)) land 1 = 1 in
                   ( id,
                     if bit then p.Protocol.input_high
                     else p.Protocol.input_low ))
            |> List.fold_left
                 (fun m (id, v) -> Model.with_initial m id v)
                 m
          in
          let v =
            List.assoc c.Circuit.output
              (Ode_oracle.steady_state ~max_time:20_000. ~tolerance:1e-9 m)
          in
          Interval.contains (widen_slack r.Certificate.cr_bounds) v)
        cert.Certificate.c_rows)

(* ---- the deliberately undecidable fixture ---- *)

(* genetic_NAND's 11 row rests at ~6.5 molecules against a threshold of
   15: the bound is correct but the 4-sigma Poisson margin cannot clear
   it, so this row is the canonical fallback case. *)
let test_nand_fixture () =
  let cert = Certificate.certify (Option.get (Benchmarks.find "genetic_NAND")) in
  checki "one undecided row" 1 (List.length (Certificate.undecided_rows cert));
  checkb "it is row 11" true (Certificate.undecided_rows cert = [ 3 ]);
  checkb "not fully decided" false (Certificate.fully_decided cert);
  checkb "no verdict yet" true (Certificate.verified cert = None);
  checkb "no contradiction" true (Certificate.contradictions cert = []);
  checki "three rows proved" 3 (Certificate.decided cert);
  List.iter
    (fun row ->
      checkb
        (Printf.sprintf "row %d proved high" row)
        true
        (Certificate.proved_output cert row = Some true))
    [ 0; 1; 2 ];
  checkb "undecided row has no output" true
    (Certificate.proved_output cert 3 = None)

let test_fully_certified_not () =
  let cert = Certificate.certify (Option.get (Benchmarks.find "genetic_NOT")) in
  checkb "fully decided" true (Certificate.fully_decided cert);
  checkb "verified" true (Certificate.verified cert = Some true);
  checkb "row 0 high" true (Certificate.proved_output cert 0 = Some true);
  checkb "row 1 low" true (Certificate.proved_output cert 1 = Some false)

let test_certificate_json_deterministic () =
  let c = Option.get (Benchmarks.find "genetic_NAND") in
  let j1 = Certificate.to_json (Certificate.certify c) in
  let j2 = Certificate.to_json (Certificate.certify c) in
  checkb "byte identical" true (String.equal j1 j2);
  checkb "carries provenance fields" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains j1 "\"undecided\":1" && contains j1 "\"proved\":3")

(* a negative margin would prove rows on the wrong side of the
   threshold, and nan proves nothing: both are rejected up front *)
let test_margin_validation () =
  let c = Option.get (Benchmarks.find "genetic_NOT") in
  List.iter
    (fun margin ->
      let raises f =
        match f () with exception Invalid_argument _ -> true | _ -> false
      in
      let what = Printf.sprintf "margin %g" margin in
      checkb (what ^ ": certify raises") true
        (raises (fun () -> Certificate.certify ~margin c));
      checkb (what ^ ": decide raises") true
        (raises (fun () ->
             Certificate.decide ~threshold:15. ~margin (Interval.point 90.))))
    [ -1.; nan ];
  checkb "margin 0 certifies" true
    (Certificate.fully_decided (Certificate.certify ~margin:0. c))

(* ---- certified-first verification ---- *)

(* With a row undecided, certified-first verification simulates the
   whole protocol, so it must decide exactly as the simulate-everything
   path (glcv verify --no-certify): the same verdict, extracted table
   and PFoBE. *)
let check_agrees_with_simulation ?metrics ~protocol c =
  let o = Verify.certified_first ?metrics ~protocol c in
  let _, v = Verify.experiment (Experiment.run ~protocol c) in
  let r = o.Verify.report in
  let what =
    Printf.sprintf "%s at threshold %g, hold %g" c.Circuit.name
      protocol.Protocol.threshold protocol.Protocol.hold_time
  in
  checkb (what ^ ": simulated") true (o.Verify.result <> None);
  checkb (what ^ ": verified") v.Verify.verified r.Verify.verified;
  checkb (what ^ ": extracted table") true
    (Truth_table.equal v.Verify.extracted r.Verify.extracted);
  Alcotest.(check (float 0.)) (what ^ ": PFoBE") v.Verify.fitness
    r.Verify.fitness;
  o

let test_certified_first_hybrid_nand () =
  let metrics = Metrics.create () in
  let o =
    check_agrees_with_simulation ~metrics ~protocol:quick
      (Option.get (Benchmarks.find "genetic_NAND"))
  in
  checkb "verified" true o.Verify.report.Verify.verified;
  checkb "row 11 undecided" true
    (Certificate.undecided_rows o.Verify.certificate = [ 3 ]);
  let count name = Metrics.Counter.value (Metrics.counter metrics name) in
  checki "one fallback simulation" 1 (count "symbolic.fallback_simulations");
  checki "one fallback row" 1 (count "symbolic.fallback_rows");
  checki "three rows proved" 3 (count "symbolic.rows_proved");
  checki "one certificate" 1 (count "symbolic.certificates")

(* Fig. 5's 0x0B at threshold 90 (row 011 reads low), and five circuits
   whose undecided row is slow to settle at a 200 t.u. hold: cases
   where a row's transition from its protocol predecessor decides the
   verdict, so simulating the undecided rows on their own, each
   repeated, would read them as verified. *)
let test_certified_first_agrees_with_simulation () =
  ignore
    (check_agrees_with_simulation
       ~protocol:(Protocol.make ~threshold:90. ())
       (Option.get (Benchmarks.find "0x0B")));
  let short = Protocol.make ~total_time:1_600. ~hold_time:200. () in
  List.iter
    (fun code ->
      ignore (check_agrees_with_simulation ~protocol:short (Cello.of_code code)))
    [ 0xD6; 0x68; 0x59; 0x2D; 0x4B ]

let test_certified_first_no_simulation () =
  let metrics = Metrics.create () in
  let o =
    Verify.certified_first ~metrics ~protocol:quick
      (Option.get (Benchmarks.find "genetic_NOT"))
  in
  checkb "verified" true o.Verify.report.Verify.verified;
  checkb "no simulation at all" true (o.Verify.result = None);
  checkb "clean fitness" true (o.Verify.report.Verify.fitness = 100.);
  let count name = Metrics.Counter.value (Metrics.counter metrics name) in
  checki "no fallback" 0 (count "symbolic.fallback_simulations")

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "glc_symbolic"
    [
      ( "interval",
        [
          Alcotest.test_case "construction" `Quick test_interval_construction;
          Alcotest.test_case "division guards" `Quick
            test_interval_division_guards;
          Alcotest.test_case "zero times infinity" `Quick
            test_interval_zero_times_infinity;
          Alcotest.test_case "pow" `Quick test_interval_pow;
          Alcotest.test_case "exp and ln" `Quick test_interval_exp_ln;
          Alcotest.test_case "next_up/next_down" `Quick test_next_up_down;
          Alcotest.test_case "widen" `Quick test_widen;
          Alcotest.test_case "zero propagation" `Quick
            test_eval_zero_propagation;
        ]
        @ qc [ qcheck_eval_sound ] );
      ( "steady-state",
        [
          Alcotest.test_case "descending iterates nested" `Quick
            test_descending_iterates_nested;
          Alcotest.test_case "fixpoint converges fast" `Quick
            test_fixpoint_converges_fast;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "bounds contain ODE steady state" `Quick
            test_bounds_contain_ode_steady_state;
          Alcotest.test_case "proved rows agree with SSA" `Slow
            test_proved_rows_agree_with_ssa;
          Alcotest.test_case "Table-1 coverage" `Quick test_table1_coverage;
          Alcotest.test_case "NAND undecided fixture" `Quick
            test_nand_fixture;
          Alcotest.test_case "NOT fully certified" `Quick
            test_fully_certified_not;
          Alcotest.test_case "JSON deterministic" `Quick
            test_certificate_json_deterministic;
          Alcotest.test_case "margin validation" `Quick
            test_margin_validation;
        ]
        @ qc [ qcheck_random_circuits_sound ] );
      ( "hybrid verify",
        [
          Alcotest.test_case "NAND falls back for one row" `Slow
            test_certified_first_hybrid_nand;
          Alcotest.test_case "NOT needs no simulation" `Quick
            test_certified_first_no_simulation;
          Alcotest.test_case "agrees with the simulate-everything path"
            `Quick test_certified_first_agrees_with_simulation;
        ] );
    ]
