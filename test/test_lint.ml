(* Tests for glc_lint: one minimal fixture per GLC check code, the
   diagnostic type's contracts (ordering, exit codes, JSON), property
   tests over random models, and the bundled-benchmark gate (every
   shipped circuit lints error-free). *)

module Math = Glc_model.Math
module Model = Glc_model.Model
module Document = Glc_sbol.Document
module Truth_table = Glc_logic.Truth_table
module Netlist = Glc_logic.Netlist
module Protocol = Glc_dvasim.Protocol
module Benchmarks = Glc_gates.Benchmarks
module Circuit = Glc_gates.Circuit
module Json = Glc_obs.Json
module D = Glc_lint.Diagnostic
module Lint = Glc_lint.Lint

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* tests run from _build/default/test; the bundled models live one
   directory up (declared as deps in the dune file) *)
let models_dir =
  if Sys.file_exists "models" then "models" else Filename.concat ".." "models"

let model_file name = Filename.concat models_dir name

let codes ds = List.map (fun d -> d.D.code) ds

let has_code code ds = List.exists (fun (d : D.t) -> d.D.code = code) ds

let count_code code ds =
  List.length (List.filter (fun (d : D.t) -> d.D.code = code) ds)

(* A well-formed two-species cascade: boundary input In drives
   production of A, A is produced and degrades. Lints clean. *)
let clean_model () =
  Model.make ~id:"clean"
    ~species:
      [ Model.species ~boundary:true "In" 10.; Model.species "A" 0. ]
    ~parameters:[ Model.parameter "k" 0.5 ]
    ~reactions:
      [
        Model.reaction "prod" ~products:[ ("A", 1) ]
          ~modifiers:[ "In" ]
          ~rate:Math.(var "k" * var "In");
        Model.reaction "deg" ~reactants:[ ("A", 1) ]
          ~rate:Math.(Const 0.1 * var "A");
      ]
    ()

let test_clean_model () =
  checki "no diagnostics" 0 (List.length (Lint.model (clean_model ())));
  checki "clean with an output designated" 0
    (List.length (Lint.model ~output:"A" (clean_model ())))

(* ---- the catalogue itself ---- *)

let test_catalogue () =
  let codes = List.map (fun c -> c.Lint.ck_code) Lint.catalogue in
  checki "distinct codes" (List.length codes)
    (List.length (List.sort_uniq String.compare codes));
  List.iteri
    (fun i code ->
      checks "code order" (Printf.sprintf "GLC%03d" (i + 1)) code)
    codes;
  checki "eleven checks" 11 (List.length codes)

(* ---- GLC001: ill-formed model ---- *)

let test_glc001_model () =
  (* bypass Model.make (it raises on invalid models) *)
  let m =
    {
      Model.m_id = "bad";
      m_species = [ Model.species "A" 1.; Model.species "A" 2. ];
      m_parameters = [];
      m_reactions = [];
    }
  in
  let ds = Lint.model m in
  checkb "GLC001 fired" true (has_code "GLC001" ds);
  checkb "only GLC001" true (List.for_all (fun d -> d.D.code = "GLC001") ds);
  checki "exit is 2" 2 (D.exit_code ds)

let test_glc001_document () =
  let doc =
    {
      Document.doc_id = "bad_doc";
      doc_parts = [];
      doc_proteins = [ Document.protein "P" ];
      doc_interactions =
        [ Document.Production { prom = "nonexistent"; prot = "P" } ];
    }
  in
  let ds = Lint.document doc in
  checkb "GLC001 fired" true (has_code "GLC001" ds);
  checkb "subject is the document" true
    (List.for_all (fun d -> D.subject_kind d.D.subject = "document") ds)

(* ---- GLC002: unproducible species ---- *)

let orphan_output_model () =
  Model.make ~id:"orphan"
    ~species:
      [ Model.species ~boundary:true "In" 10.; Model.species "GFP" 0. ]
    ~reactions:
      [
        Model.reaction "deg" ~reactants:[ ("GFP", 1) ]
          ~rate:Math.(Const 0.1 * var "GFP");
      ]
    ()

let test_glc002 () =
  let m = orphan_output_model () in
  (* as the designated output: an error *)
  let ds = Lint.model ~output:"GFP" m in
  checkb "error as output" true
    (List.exists
       (fun d -> d.D.code = "GLC002" && d.D.severity = D.Error)
       ds);
  checki "exit 2" 2 (D.exit_code ds);
  (* not the output: merely a warning *)
  let ds = Lint.model m in
  checkb "warning otherwise" true
    (List.exists
       (fun d -> d.D.code = "GLC002" && d.D.severity = D.Warning)
       ds);
  checkb "names the species" true
    (List.exists (fun d -> D.subject_id d.D.subject = "GFP") ds)

(* ---- GLC003: unreachable reaction ---- *)

let test_glc003_stuck_reactant () =
  let m =
    Model.make ~id:"stuck"
      ~species:[ Model.species "A" 0.; Model.species "B" 0. ]
      ~reactions:
        [
          Model.reaction "r" ~reactants:[ ("A", 1) ] ~products:[ ("B", 1) ]
            ~rate:Math.(Const 1. * var "A");
        ]
      ()
  in
  let ds = Lint.model m in
  checkb "GLC003 fired" true (has_code "GLC003" ds);
  checkb "names the reaction" true
    (List.exists
       (fun d -> d.D.code = "GLC003" && D.subject_id d.D.subject = "r")
       ds)

let test_glc003_zero_rate () =
  let m =
    Model.make ~id:"zero_rate"
      ~species:[ Model.species "A" 5. ]
      ~parameters:[ Model.parameter "k" 0. ]
      ~reactions:
        [
          Model.reaction "r" ~reactants:[ ("A", 1) ]
            ~rate:Math.(var "k" * var "A");
        ]
      ()
  in
  let ds = Lint.model m in
  checkb "zero rate constant detected" true (has_code "GLC003" ds)

(* ---- GLC004: inert reaction ---- *)

let test_glc004 () =
  let m =
    Model.make ~id:"inert"
      ~species:
        [
          Model.species ~boundary:true "X" 5.;
          Model.species ~boundary:true "Y" 0.;
        ]
      ~reactions:
        [
          Model.reaction "swap" ~reactants:[ ("X", 1) ]
            ~products:[ ("Y", 1) ]
            ~rate:Math.(Const 1. * var "X");
        ]
      ()
  in
  let ds = Lint.model m in
  checkb "GLC004 fired" true (has_code "GLC004" ds)

(* ---- GLC005: conservation law pins the output ---- *)

(* X <-> Y toggle holding X + Y = 5 molecules: Y can never reach a
   threshold of 15 *)
let toggle_model () =
  Model.make ~id:"toggle"
    ~species:[ Model.species "X" 5.; Model.species "Y" 0. ]
    ~reactions:
      [
        Model.reaction "fwd" ~reactants:[ ("X", 1) ] ~products:[ ("Y", 1) ]
          ~rate:Math.(Const 1. * var "X");
        Model.reaction "rev" ~reactants:[ ("Y", 1) ] ~products:[ ("X", 1) ]
          ~rate:Math.(Const 1. * var "Y");
      ]
    ()

let test_glc005 () =
  let m = toggle_model () in
  let ds = Lint.model ~threshold:15. ~output:"Y" m in
  checkb "GLC005 fired" true (has_code "GLC005" ds);
  checki "exit 2" 2 (D.exit_code ds);
  (* a reachable threshold stays silent *)
  let ds = Lint.model ~threshold:4. ~output:"Y" m in
  checkb "silent when bound >= threshold" false (has_code "GLC005" ds)

let test_glc005_constant_species () =
  (* the output is touched by no reaction at all: bounded by its
     initial amount *)
  let m =
    Model.make ~id:"frozen"
      ~species:[ Model.species "Y" 3.; Model.species "A" 1. ]
      ~reactions:
        [
          Model.reaction "deg" ~reactants:[ ("A", 1) ]
            ~rate:Math.(Const 1. * var "A");
        ]
      ()
  in
  let ds = Lint.model ~threshold:15. ~output:"Y" m in
  checkb "GLC005 fired" true (has_code "GLC005" ds)

let test_glc005_is_fast () =
  (* the acceptance bar: a statically-rejectable model costs
     milliseconds, not a simulation *)
  let m = toggle_model () in
  let t0 = Unix.gettimeofday () in
  let ds = Lint.model ~threshold:15. ~output:"Y" m in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "GLC005 fired" true (has_code "GLC005" ds);
  checkb
    (Printf.sprintf "lint took %.1f ms (budget 100 ms)" (elapsed *. 1e3))
    true (elapsed < 0.1)

(* ---- GLC006: kinetic-law sanity ---- *)

let test_glc006 () =
  let m =
    Model.make ~id:"neg_rate"
      ~species:[ Model.species "A" 5. ]
      ~reactions:
        [
          Model.reaction "r" ~reactants:[ ("A", 1) ]
            ~rate:Math.(Const (-1.) * var "A");
        ]
      ()
  in
  let ds = Lint.model m in
  checkb "negative propensity flagged" true (has_code "GLC006" ds);
  let m =
    Model.make ~id:"inf_rate"
      ~species:[ Model.species "A" 5. ]
      ~reactions:
        [
          Model.reaction "r" ~reactants:[ ("A", 1) ]
            ~rate:Math.(var "A" / Const 0.);
        ]
      ()
  in
  checkb "non-finite propensity flagged" true
    (has_code "GLC006" (Lint.model m))

(* ---- GLC007: unused parameter ---- *)

let test_glc007 () =
  let m =
    Model.make ~id:"unused"
      ~species:[ Model.species "A" 5. ]
      ~parameters:[ Model.parameter "k" 1.; Model.parameter "ghost" 2. ]
      ~reactions:
        [
          Model.reaction "r" ~reactants:[ ("A", 1) ]
            ~rate:Math.(var "k" * var "A");
        ]
      ()
  in
  let ds = Lint.model m in
  checkb "unused parameter reported" true
    (List.exists
       (fun d ->
         d.D.code = "GLC007"
         && d.D.severity = D.Info
         && D.subject_id d.D.subject = "ghost")
       ds);
  checkb "used parameter not reported" false
    (List.exists (fun d -> D.subject_id d.D.subject = "k") ds);
  checki "infos do not affect the exit code" 0 (D.exit_code ds)

(* ---- GLC008: arity / netlist mismatch ---- *)

let test_glc008_netlist () =
  let and2 = Truth_table.of_code ~arity:2 0b1000 in
  let or2 = Truth_table.of_code ~arity:2 0b1110 in
  let nl = Netlist.of_truth_table ~inputs:[| "a"; "b" |] or2 in
  let ds = Lint.netlist ~expected:and2 nl in
  checkb "wrong function flagged" true (has_code "GLC008" ds);
  checki "exit 2" 2 (D.exit_code ds);
  checki "correct netlist is clean" 0
    (List.length
       (Lint.netlist ~expected:or2 nl));
  let not1 = Netlist.of_truth_table ~inputs:[| "a" |] (Truth_table.of_code ~arity:1 0b01) in
  checkb "arity mismatch flagged" true
    (has_code "GLC008" (Lint.netlist ~expected:and2 not1))

let test_glc008_circuit_inputs () =
  (* declared inputs out of sync with the expected table's arity *)
  let c = Option.get (Benchmarks.find "genetic_AND") in
  let broken =
    { c with Circuit.expected = Truth_table.of_code ~arity:1 0b10 }
  in
  let ds = Lint.circuit broken in
  checkb "arity mismatch flagged" true (has_code "GLC008" ds)

(* ---- GLC009: constant expected logic ---- *)

let test_glc009 () =
  let c = Option.get (Benchmarks.find "genetic_NOT") in
  let trivial =
    { c with Circuit.expected = Truth_table.of_code ~arity:1 0b11 }
  in
  let ds = Lint.circuit trivial in
  checkb "constant table flagged" true (has_code "GLC009" ds);
  checkb "as a warning" true
    (List.exists
       (fun d -> d.D.code = "GLC009" && d.D.severity = D.Warning)
       ds)

(* ---- GLC010: cross-document mismatch ---- *)

let test_glc010 () =
  let c = Option.get (Benchmarks.find "genetic_NOT") in
  let doc = c.Circuit.document in
  (* a model that lacks the reporter species entirely *)
  let m =
    Model.make ~id:"partial"
      ~species:[ Model.species ~boundary:true "LacI" 0. ]
      ~reactions:[]
      ()
  in
  let ds = Lint.cross ~model:m doc in
  checkb "missing species flagged" true
    (List.exists
       (fun d ->
         d.D.code = "GLC010"
         && d.D.severity = D.Error
         && D.subject_id d.D.subject = "GFP")
       ds);
  (* input protein present but not a boundary species *)
  let m2 =
    Model.make ~id:"nonboundary"
      ~species:[ Model.species "LacI" 0.; Model.species "GFP" 0. ]
      ~reactions:
        [
          Model.reaction "prod" ~products:[ ("GFP", 1) ]
            ~rate:(Math.Const 1.);
        ]
      ()
  in
  let ds2 = Lint.cross ~model:m2 doc in
  checkb "non-boundary input flagged" true
    (List.exists
       (fun d ->
         d.D.code = "GLC010" && D.subject_id d.D.subject = "LacI")
       ds2);
  (* the circuit's own generated model is consistent *)
  checki "benchmark pair is clean" 0
    (D.errors (Lint.cross ~model:(Circuit.model c) doc))

(* ---- GLC011: protocol sanity ---- *)

let test_glc011 () =
  (* horizon too short for a 2-input circuit: 2 slots < 4 rows *)
  let p = Protocol.make ~total_time:2000. ~hold_time:1000. () in
  checkb "too few slots" true
    (has_code "GLC011" (Lint.protocol ~arity:2 p));
  checki "3 slots is clean for arity 1" 0
    (List.length
       (Lint.protocol ~arity:1
          (Protocol.make ~total_time:3000. ~hold_time:1000. ())));
  (* drive below the logic threshold *)
  let weak = Protocol.make ~threshold:15. ~input_high:5. () in
  checkb "weak drive flagged" true
    (has_code "GLC011" (Lint.protocol ~arity:1 weak));
  (* hold slots shorter than the sampling step *)
  let fast = Protocol.make ~total_time:10. ~hold_time:0.5 ~dt:1. () in
  checkb "hold < dt flagged" true
    (has_code "GLC011" (Lint.protocol ~arity:1 fast))

(* ---- diagnostic contracts ---- *)

let test_exit_codes () =
  let d sev = D.make ~code:"GLC999" ~severity:sev ~subject:(D.Model "m") "x" in
  checki "clean" 0 (D.exit_code []);
  checki "info only" 0 (D.exit_code [ d D.Info ]);
  checki "warning" 1 (D.exit_code [ d D.Warning; d D.Info ]);
  checki "error wins" 2 (D.exit_code [ d D.Info; d D.Warning; d D.Error ])

let test_ordering () =
  let mk code sev id =
    D.make ~code ~severity:sev ~subject:(D.Species id) "m"
  in
  let sorted =
    List.sort D.compare
      [
        mk "GLC007" D.Info "a";
        mk "GLC003" D.Warning "a";
        mk "GLC002" D.Error "b";
        mk "GLC002" D.Error "a";
      ]
  in
  checks "errors first"
    "GLC002 GLC002 GLC003 GLC007"
    (String.concat " " (codes sorted));
  checks "ties break on subject id" "a"
    (D.subject_id (List.hd sorted).D.subject)

let test_diagnostic_json () =
  let d =
    D.make ~code:"GLC002" ~severity:D.Error ~subject:(D.Species "G\"FP")
      "says \"never\""
  in
  let j = D.to_json d in
  match Json.parse j with
  | Error e -> Alcotest.failf "diagnostic JSON does not parse: %s" e
  | Ok v ->
      checks "code" "GLC002"
        (Option.get (Json.to_str (Option.get (Json.member v "code"))));
      checks "severity" "error"
        (Option.get (Json.to_str (Option.get (Json.member v "severity"))));
      let subject = Option.get (Json.member v "subject") in
      checks "subject kind" "species"
        (Option.get (Json.to_str (Option.get (Json.member subject "kind"))));
      checks "subject id survives escaping" "G\"FP"
        (Option.get (Json.to_str (Option.get (Json.member subject "id"))))

let test_report_json () =
  let report =
    Lint.files
      [
        model_file "genetic_NOT.sbml.xml"; model_file "genetic_NOT.sbol.xml";
      ]
  in
  checki "one group for the pair" 1 (List.length report);
  let j = Lint.report_json report in
  match Json.parse j with
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e
  | Ok v ->
      let summary = Option.get (Json.member v "summary") in
      checki "files" 1
        (Option.get (Json.to_int (Option.get (Json.member summary "files"))));
      checki "exit" 0
        (Option.get (Json.to_int (Option.get (Json.member summary "exit"))));
      checki "files array" 1
        (List.length (Option.get (Json.to_list (Option.get (Json.member v "files")))))

let test_files_unreadable () =
  let report = Lint.files [ model_file "does_not_exist.sbml.xml" ] in
  checki "exit 2" 2 (Lint.report_exit_code report);
  checkb "GLC001 on the file" true
    (has_code "GLC001"
       (List.concat_map (fun fr -> fr.Lint.fr_diagnostics) report))

(* ---- metrics ---- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_metrics_counters () =
  let metrics = Glc_obs.Metrics.create () in
  let ds = Lint.model ~metrics ~output:"GFP" (orphan_output_model ()) in
  checkb "found something" true (ds <> []);
  let export = Glc_obs.Metrics.to_json metrics in
  checkb "lint.checks_run exported" true (contains export "lint.checks_run");
  checkb "lint.errors exported" true (contains export "lint.errors")

(* ---- the bundled benchmark set ---- *)

let test_benchmarks_error_free () =
  List.iter
    (fun c ->
      let ds = Lint.circuit c in
      if D.errors ds > 0 then
        Alcotest.failf "benchmark %s has lint errors: %s" c.Circuit.name
          (String.concat "; "
             (List.map (Format.asprintf "%a" D.pp) ds)))
    (Benchmarks.all ())

let test_bundled_files_error_free () =
  let files =
    Sys.readdir models_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.map (Filename.concat models_dir)
    |> List.sort String.compare
  in
  checki "thirty bundled files" 30 (List.length files);
  let report = Lint.files files in
  checki "fifteen groups" 15 (List.length report);
  List.iter
    (fun fr ->
      if D.errors fr.Lint.fr_diagnostics > 0 then
        Alcotest.failf "%s has lint errors" fr.Lint.fr_path)
    report

(* ---- properties ---- *)

(* Random clean mass-action cascade: every species starts positive, every
   reaction is a positive-rate conversion between consecutive species. *)
let clean_model_gen =
  let open QCheck.Gen in
  let* n = int_range 2 8 in
  let* inits = array_size (return n) (float_range 1. 20.) in
  let* ks = array_size (return (n - 1)) (float_range 0.1 5.) in
  let id i = Printf.sprintf "S%d" i in
  let species =
    List.init n (fun i -> Model.species (id i) inits.(i))
  in
  let reactions =
    List.init (n - 1) (fun i ->
        Model.reaction
          (Printf.sprintf "r%d" i)
          ~reactants:[ (id i, 1) ]
          ~products:[ (id (i + 1), 1) ]
          ~rate:Math.(Const ks.(i) * var (id i)))
  in
  return (Model.make ~id:"random_cascade" ~species ~reactions ())

let model_arbitrary =
  QCheck.make
    ~print:(fun m -> Format.asprintf "%a" Model.pp m)
    clean_model_gen

(* a deterministic permutation driven by the generator's own data *)
let permute seed l =
  let arr = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

let prop_clean_stays_clean =
  QCheck.Test.make ~name:"random clean cascade lints clean" ~count:100
    model_arbitrary
    (fun m -> Lint.model m = [])

let prop_permutation_invariant =
  QCheck.Test.make
    ~name:"diagnostics invariant under species/reaction permutation"
    ~count:100
    (QCheck.pair model_arbitrary QCheck.small_int)
    (fun (m, seed) ->
      (* inject deterministic defects so there is something to report *)
      let defective =
        {
          m with
          Model.m_species = Model.species "orphan" 0. :: m.Model.m_species;
          m_parameters = Model.parameter "ghost" 1. :: m.Model.m_parameters;
          m_reactions =
            Model.reaction "stuck"
              ~reactants:[ ("orphan", 1) ]
              ~rate:Math.(Const 1. * var "orphan")
            :: m.Model.m_reactions;
        }
      in
      let shuffled =
        {
          defective with
          Model.m_species = permute seed defective.Model.m_species;
          m_reactions = permute (seed + 1) defective.Model.m_reactions;
        }
      in
      Lint.model ~output:"orphan" defective
      = Lint.model ~output:"orphan" shuffled)

let prop_injected_defects_detected =
  QCheck.Test.make
    ~name:"injected defects trip their codes" ~count:100 model_arbitrary
    (fun m ->
      let defective =
        {
          m with
          Model.m_species = Model.species "orphan" 0. :: m.Model.m_species;
          m_reactions =
            Model.reaction "stuck"
              ~reactants:[ ("orphan", 1) ]
              ~products:[ ("S0", 1) ]
              ~rate:Math.(Const 1. * var "orphan")
            :: m.Model.m_reactions;
        }
      in
      let ds = Lint.model ~output:"orphan" defective in
      (* orphan output -> GLC002 error; unreachable reaction -> GLC003 *)
      has_code "GLC002" ds
      && has_code "GLC003" ds
      && D.exit_code ds = 2
      && count_code "GLC002" ds = 1
      && count_code "GLC003" ds = 1)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "glc_lint"
    [
      ( "catalogue",
        [ Alcotest.test_case "codes are dense and unique" `Quick test_catalogue ]
      );
      ( "model checks",
        [
          Alcotest.test_case "clean model lints clean" `Quick test_clean_model;
          Alcotest.test_case "GLC001 ill-formed model" `Quick test_glc001_model;
          Alcotest.test_case "GLC001 ill-formed document" `Quick
            test_glc001_document;
          Alcotest.test_case "GLC002 unproducible species" `Quick test_glc002;
          Alcotest.test_case "GLC003 stuck reactant" `Quick
            test_glc003_stuck_reactant;
          Alcotest.test_case "GLC003 zero rate" `Quick test_glc003_zero_rate;
          Alcotest.test_case "GLC004 inert reaction" `Quick test_glc004;
          Alcotest.test_case "GLC005 conserved pair" `Quick test_glc005;
          Alcotest.test_case "GLC005 constant species" `Quick
            test_glc005_constant_species;
          Alcotest.test_case "GLC005 rejects without simulating" `Quick
            test_glc005_is_fast;
          Alcotest.test_case "GLC006 propensity sanity" `Quick test_glc006;
          Alcotest.test_case "GLC007 unused parameter" `Quick test_glc007;
        ] );
      ( "circuit checks",
        [
          Alcotest.test_case "GLC008 netlist" `Quick test_glc008_netlist;
          Alcotest.test_case "GLC008 circuit arity" `Quick
            test_glc008_circuit_inputs;
          Alcotest.test_case "GLC009 constant logic" `Quick test_glc009;
          Alcotest.test_case "GLC010 cross-document" `Quick test_glc010;
          Alcotest.test_case "GLC011 protocol" `Quick test_glc011;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "diagnostic JSON" `Quick test_diagnostic_json;
          Alcotest.test_case "report JSON" `Quick test_report_json;
          Alcotest.test_case "unreadable file" `Quick test_files_unreadable;
          Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
        ] );
      ( "bundled set",
        [
          Alcotest.test_case "benchmarks are error-free" `Quick
            test_benchmarks_error_free;
          Alcotest.test_case "model files are error-free" `Quick
            test_bundled_files_error_free;
        ] );
      ( "properties",
        qc
          [
            prop_clean_stays_clean;
            prop_permutation_invariant;
            prop_injected_defects_detected;
          ] );
    ]
