(* Tests for glc_gates: the repressor library, circuit metadata, genetic
   technology mapping and the 15 benchmark circuits.

   The strongest check here is a deterministic "DC analysis": for every
   benchmark circuit and every input combination, the kinetic model is
   integrated to steady state with deterministic Euler steps and the
   settled output level is compared against the logic threshold. This
   validates the entire synthesis + conversion stack without stochastic
   noise. *)

module Truth_table = Glc_logic.Truth_table
module Circuit = Glc_gates.Circuit
module Assembly = Glc_gates.Assembly
module Repressor = Glc_gates.Repressor
module Cello = Glc_gates.Cello
module Circuits = Glc_gates.Circuits
module Benchmarks = Glc_gates.Benchmarks
module Compiled = Glc_ssa.Compiled
module Document = Glc_sbol.Document

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---- repressor library ---- *)

let test_library_distinct () =
  let names = List.map (fun r -> r.Repressor.rep_name) Repressor.library in
  checki "twelve repressors" 12 (List.length names);
  checki "all distinct" 12 (List.length (List.sort_uniq compare names))

let test_library_ranges () =
  List.iter
    (fun r ->
      let k = r.Repressor.rep_kinetics in
      let open Glc_sbol.To_model in
      if k.ymax < 4. || k.ymax > 6. then Alcotest.fail "ymax out of range";
      if k.ymin <= 0. || k.ymin > 0.1 then Alcotest.fail "ymin out of range";
      if k.k < 8. || k.k > 25. then Alcotest.fail "K out of range";
      if k.n < 1.5 || k.n > 3.5 then Alcotest.fail "n out of range")
    Repressor.library

let test_library_find () =
  checkb "PhlF" true (Repressor.find "PhlF" <> None);
  checkb "missing" true (Repressor.find "NoSuchRep" = None)

(* ---- circuit metadata ---- *)

let test_circuit_validation () =
  let c = Circuits.genetic_and () in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () ->
      Circuit.make ~name:"bad" ~document:c.Circuit.document
        ~inputs:[| "LacI" |] (* TetR missing *)
        ~output:"GFP"
        ~expected:(Truth_table.of_minterms ~arity:1 [ 0 ])
        ());
  expect_invalid (fun () ->
      Circuit.make ~name:"bad" ~document:c.Circuit.document
        ~inputs:c.Circuit.inputs ~output:"NotAProtein"
        ~expected:c.Circuit.expected ());
  expect_invalid (fun () ->
      Circuit.make ~name:"bad" ~document:c.Circuit.document
        ~inputs:c.Circuit.inputs ~output:"GFP"
        ~expected:(Truth_table.of_minterms ~arity:3 [ 0 ])
        ());
  expect_invalid (fun () ->
      Circuit.make ~name:"bad" ~document:c.Circuit.document
        ~inputs:c.Circuit.inputs ~output:"GFP" ~expected:c.Circuit.expected
        ~promoter_kinetics:
          [ ("cds_P1", Glc_sbol.To_model.default_kinetics) ]
        ());
  expect_invalid (fun () ->
      Circuit.make ~name:"bad" ~document:c.Circuit.document
        ~inputs:c.Circuit.inputs ~output:"GFP" ~expected:c.Circuit.expected
        ~regulator_affinity:[ ("ghost", (4., 2.)) ]
        ())

let test_input_value_convention () =
  let c = Cello.circuit_0x0B () in
  (* combination 011: I1 (LacI) = 0, I2 (TetR) = 1, I3 (AraC) = 1 *)
  checkb "I1 of 011" true (Circuit.input_value c ~row:3 0 = false);
  checkb "I2 of 011" true (Circuit.input_value c ~row:3 1 = true);
  checkb "I3 of 011" true (Circuit.input_value c ~row:3 2 = true);
  checki "row_of_inputs inverse" 3
    (Circuit.row_of_inputs c [| false; true; true |]);
  Alcotest.(check string)
    "pp_combination" "011"
    (Format.asprintf "%a" (Circuit.pp_combination ~arity:3) 3)

(* ---- deterministic steady-state (DC) analysis ---- *)

(* Euler-integrates the kinetic model with inputs clamped for one row and
   returns the settled output amount. *)
let dc_output circuit row =
  let model = Circuit.model circuit in
  let c = Compiled.compile model in
  let state = Array.copy c.Compiled.c_initial in
  Array.iteri
    (fun j input ->
      let v = if Circuit.input_value circuit ~row j then 15.0 else 0.0 in
      state.(Compiled.species_index c input) <- v)
    circuit.Circuit.inputs;
  let dt = 0.5 in
  for _ = 1 to 4000 do
    let a = Compiled.propensities c state in
    Array.iteri
      (fun ri r ->
        List.iter
          (fun (s, d) ->
            if not c.Compiled.c_boundary.(s) then
              state.(s) <- Float.max 0. (state.(s) +. (d *. a.(ri) *. dt)))
          r.Compiled.c_deltas)
      c.Compiled.c_reactions
  done;
  state.(Compiled.species_index c circuit.Circuit.output)

let test_dc_all_benchmarks () =
  List.iter
    (fun circuit ->
      let expected = circuit.Circuit.expected in
      for row = 0 to Truth_table.rows expected - 1 do
        let level = dc_output circuit row in
        let want = Truth_table.output expected row in
        let got = level >= 15.0 in
        if got <> want then
          Alcotest.failf "%s row %d: steady output %.1f, expected logic %b"
            circuit.Circuit.name row level want
      done)
    (Benchmarks.all ())

let test_dc_margins () =
  (* logic levels keep a 2x margin from the threshold on both sides *)
  List.iter
    (fun circuit ->
      let expected = circuit.Circuit.expected in
      for row = 0 to Truth_table.rows expected - 1 do
        let level = dc_output circuit row in
        if Truth_table.output expected row then begin
          if level < 30. then
            Alcotest.failf "%s row %d: weak high %.1f" circuit.Circuit.name
              row level
        end
        else if level > 7.5 then
          Alcotest.failf "%s row %d: weak low %.1f" circuit.Circuit.name row
            level
      done)
    (Benchmarks.all ())

(* ---- assembly ---- *)

let test_assembly_preserves_spec () =
  List.iter
    (fun code ->
      let c = Cello.of_code code in
      checki "expected table is the spec" code
        (Truth_table.to_code c.Circuit.expected);
      Alcotest.(check string)
        "name" (Printf.sprintf "0x%02X" code) c.Circuit.name)
    Cello.codes

let test_assembly_orthogonality () =
  (* each repressor drives at most one gate *)
  List.iter
    (fun code ->
      let c = Cello.of_code code in
      let produced =
        List.filter_map
          (function
            | Document.Production { prot; _ } -> Some prot
            | Document.Repression _ | Document.Activation _ -> None)
          c.Circuit.document.Document.doc_interactions
      in
      let internal = List.filter (fun p -> p <> "YFP") produced in
      checki "no repressor reuse"
        (List.length (List.sort_uniq compare internal))
        (List.length internal))
    Cello.codes

let test_assembly_sensors_and_reporter () =
  let c = Cello.of_code 0x1C in
  Alcotest.(check (array string))
    "sensors" [| "LacI"; "TetR"; "AraC" |] c.Circuit.inputs;
  Alcotest.(check string) "reporter" "YFP" c.Circuit.output

let test_assembly_library_exhausted () =
  (* XOR of 4 inputs needs far more than 12 gates on the SOP path *)
  let tt =
    Truth_table.create ~arity:4 (fun r ->
        let rec pop n = if n = 0 then 0 else (n land 1) + pop (n lsr 1) in
        pop r mod 2 = 1)
  in
  match Assembly.synthesize ~name:"xor4" tt with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected library exhaustion"

let test_assembly_buffer () =
  (* identity: the output protein is the sensor itself, no gates *)
  let c =
    Assembly.synthesize ~name:"buffer"
      (Truth_table.of_minterms ~arity:1 [ 1 ])
  in
  Alcotest.(check string) "output is the sensor" "LacI" c.Circuit.output;
  checki "no gates" 0 (Circuit.n_gates c)

let test_assembly_constants () =
  let c1 = Assembly.synthesize ~name:"always_on"
      (Truth_table.of_minterms ~arity:2 [ 0; 1; 2; 3 ])
  in
  checkb "constant high" true (dc_output c1 0 >= 15.);
  checkb "constant high row 3" true (dc_output c1 3 >= 15.);
  let c0 =
    Assembly.synthesize ~name:"always_off"
      (Truth_table.of_minterms ~arity:2 [])
  in
  checkb "constant low" true (dc_output c0 0 < 15.);
  checkb "constant low row 3" true (dc_output c0 3 < 15.)

let test_extended_library () =
  let lib = Repressor.extended 30 in
  checki "requested size" 30 (List.length lib);
  let names = List.map (fun r -> r.Repressor.rep_name) lib in
  checki "all distinct" 30 (List.length (List.sort_uniq compare names));
  checkb "base library is a prefix" true
    (List.filteri (fun i _ -> i < Repressor.size) lib = Repressor.library);
  checkb "plain library when small" true
    (Repressor.extended 5 == Repressor.library)

let test_four_input_synthesis () =
  (* AND of four inputs: beyond the physical 12-repressor library on the
     SOP mapping path, so it needs the extended library *)
  let tt = Truth_table.of_minterms ~arity:4 [ 15 ] in
  let c =
    Assembly.synthesize ~library:(Repressor.extended 32) ~name:"AND4" tt
  in
  checki "arity" 4 (Circuit.arity c);
  Alcotest.(check string) "fourth sensor" "IN4" c.Circuit.inputs.(3);
  (* DC-correct on all 16 combinations *)
  for row = 0 to 15 do
    let level = dc_output c row in
    if (level >= 15.) <> Truth_table.output tt row then
      Alcotest.failf "AND4 row %d: %.1f" row level
  done

let test_assembly_bad_input_nets () =
  let nl =
    Glc_logic.Netlist.make ~inputs:[| "x"; "y" |] ~output:"n1"
      ~gates:[ ("n1", Glc_logic.Netlist.Nor ("x", "y")) ]
  in
  match
    Assembly.of_netlist ~name:"bad"
      ~expected:(Truth_table.of_minterms ~arity:2 [ 0 ])
      nl
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected sensor-name mismatch"

(* ---- cello / benchmarks ---- *)

let test_cello_codes () =
  checki "ten codes" 10 (List.length Cello.codes);
  checkb "0x0B present" true (List.mem 0x0B Cello.codes);
  checkb "fig 4 set" true
    (List.mem 0x04 Cello.codes && List.mem 0x1C Cello.codes)

let test_cello_bad_code () =
  match Cello.of_code 0x1FF with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_benchmarks_population () =
  let s = Benchmarks.summary () in
  checki "fifteen circuits" 15 (List.length s);
  List.iter
    (fun (name, inputs, gates, comps) ->
      if inputs < 1 || inputs > 3 then Alcotest.failf "%s: inputs" name;
      if gates < 1 || gates > 7 then Alcotest.failf "%s: %d gates" name gates;
      if comps < 3 || comps > 26 then
        Alcotest.failf "%s: %d components" name comps)
    s

let test_benchmarks_find () =
  checkb "find by name" true (Benchmarks.find "genetic_AND" <> None);
  checkb "find cello" true (Benchmarks.find "0x0B" <> None);
  checkb "missing" true (Benchmarks.find "0xZZ" = None);
  checki "names" 15 (List.length (Benchmarks.names ()))

(* find builds only the named circuit from its own catalogue entry; it
   must build exactly what [all] builds under that name *)
let test_benchmarks_find_matches_all () =
  let all = Benchmarks.all () in
  checkb "names are the built circuits' names" true
    (Benchmarks.names () = List.map (fun c -> c.Circuit.name) all);
  List.iter
    (fun c ->
      checkb (c.Circuit.name ^ ": structurally equal") true
        (Benchmarks.find c.Circuit.name = Some c))
    all;
  List.iter
    (fun name -> checkb (name ^ ": unknown") true (Benchmarks.find name = None))
    [ ""; "genetic_XOR"; "0x69"; "0x0b"; "11" ]

let test_book_circuits_expected () =
  let code c = Truth_table.to_code c.Circuit.expected in
  checki "NOT" 0x01 (code (Circuits.genetic_not ()));
  checki "AND" 0x08 (code (Circuits.genetic_and ()));
  checki "OR" 0x0E (code (Circuits.genetic_or ()));
  checki "NAND" 0x07 (code (Circuits.genetic_nand ()));
  checki "NOR" 0x01 (code (Circuits.genetic_nor ()))

let prop_synthesis_dc_correct =
  (* any random 3-input circuit comes out logically correct at DC *)
  QCheck.Test.make ~name:"random circuits are DC-correct" ~count:12
    (QCheck.make
       ~print:(Printf.sprintf "0x%02X")
       (QCheck.Gen.int_bound 255))
    (fun code ->
      let c = Cello.of_code code in
      List.for_all
        (fun row ->
          (dc_output c row >= 15.0)
          = Truth_table.output c.Circuit.expected row)
        (List.init 8 Fun.id))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "glc_gates"
    [
      ( "repressor",
        [
          Alcotest.test_case "distinct" `Quick test_library_distinct;
          Alcotest.test_case "parameter ranges" `Quick test_library_ranges;
          Alcotest.test_case "find" `Quick test_library_find;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "validation" `Quick test_circuit_validation;
          Alcotest.test_case "combination convention" `Quick
            test_input_value_convention;
        ] );
      ( "dc_analysis",
        [
          Alcotest.test_case "all benchmarks correct" `Slow
            test_dc_all_benchmarks;
          Alcotest.test_case "noise margins" `Slow test_dc_margins;
        ] );
      ( "assembly",
        [
          Alcotest.test_case "preserves the spec" `Quick
            test_assembly_preserves_spec;
          Alcotest.test_case "orthogonality" `Quick
            test_assembly_orthogonality;
          Alcotest.test_case "sensors and reporter" `Quick
            test_assembly_sensors_and_reporter;
          Alcotest.test_case "library exhaustion" `Quick
            test_assembly_library_exhausted;
          Alcotest.test_case "buffer" `Quick test_assembly_buffer;
          Alcotest.test_case "constants" `Quick test_assembly_constants;
          Alcotest.test_case "bad input nets" `Quick
            test_assembly_bad_input_nets;
          Alcotest.test_case "extended library" `Quick test_extended_library;
          Alcotest.test_case "four-input synthesis" `Slow
            test_four_input_synthesis;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "cello codes" `Quick test_cello_codes;
          Alcotest.test_case "bad code" `Quick test_cello_bad_code;
          Alcotest.test_case "population" `Quick test_benchmarks_population;
          Alcotest.test_case "find" `Quick test_benchmarks_find;
          Alcotest.test_case "find agrees with all" `Quick
            test_benchmarks_find_matches_all;
          Alcotest.test_case "book circuit specs" `Quick
            test_book_circuits_expected;
        ] );
      ("properties", qc [ prop_synthesis_dc_correct ]);
    ]
