(* glcv — genetic logic circuit verifier.

   Command-line front end for the library: list the benchmark circuits,
   synthesise circuits from truth-table codes, run virtual-laboratory
   experiments, analyse and verify their logic, estimate thresholds and
   propagation delays, export SBML/SBOL models, and run resumable
   batch-verification campaigns.

   Exit codes: 0 success; 1 a verification verdict was negative (verify,
   ensemble, campaign report) or lint found warnings; 2 lint found
   errors (the `lint` command, and the pre-flight guard on
   verify/ensemble/campaign run unless --no-lint); 3 a campaign is
   incomplete; 124 a value that fails its option's parser, whose
   converter holds every range check; 123 everything else reported on
   stderr (an unknown option or command, a missing or surplus argument,
   a setting the run itself rejects, a runtime failure); 125 an
   unexpected internal error. [error_exits] words this for every
   command's EXIT STATUS, and [~term_err] below sends every error that
   is not a converter failure to 123. *)

open Cmdliner

(* Verdict exits, distinct from cmdliner's error codes (123/124/125):
   scripts branch on "ran fine, circuit is wrong" without parsing
   output. *)
let exit_not_verified = 1
let exit_lint_error = 2
let exit_incomplete = 3

(* 128 + SIGINT: the conventional "terminated by ^C" code, returned by
   ensemble/campaign runs that were interrupted but flushed cleanly. *)
let exit_interrupted = 130

let lint_guard_exit =
  Cmd.Exit.info exit_lint_error
    ~doc:"the pre-flight lint found errors (see $(b,glcv lint)); no \
          simulation was run. Bypass with $(b,--no-lint)."

let interrupted_exit =
  Cmd.Exit.info exit_interrupted
    ~doc:"the run was interrupted by $(b,SIGINT)/$(b,SIGTERM) and shut \
          down gracefully: completed work was persisted, the journal \
          and metrics were flushed, and a final status line was \
          printed. Resume-capable commands pick up where they left off."

(* The error half of every EXIT STATUS: cmdliner's defaults say 124 for
   "command line parsing errors", unknown options included. *)
let error_exits =
  [
    Cmd.Exit.info Cmd.Exit.some_error
      ~doc:"on an unknown option or command, a missing or surplus \
            argument, or any other failure reported on standard error, \
            including a setting the run itself rejects.";
    Cmd.Exit.info Cmd.Exit.cli_error
      ~doc:"when a value fails its option's parser: not a number, not \
            finite, a time, threshold or trial count that is not \
            positive, a negative spread or margin, a FOV_UD outside \
            (0, 1], or an unknown $(i,CIRCUIT).";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on an unexpected internal error (a bug).";
  ]

let std_exits = Cmd.Exit.info Cmd.Exit.ok ~doc:"on success." :: error_exits

let verdict_exits =
  Cmd.Exit.info exit_not_verified
    ~doc:"the circuit (or at least one campaign job) did $(b,not) verify \
          against its intended logic — the run itself succeeded."
  :: lint_guard_exit :: interrupted_exit :: std_exits

let campaign_exits =
  Cmd.Exit.info exit_incomplete
    ~doc:"the campaign is incomplete: jobs are still pending (a \
          $(b,--limit) cut-off) or failed to run."
  :: verdict_exits

let lint_exits =
  Cmd.Exit.info 0 ~doc:"no diagnostics beyond informational notes."
  :: Cmd.Exit.info 1 ~doc:"lint found warnings but no errors."
  :: Cmd.Exit.info 2 ~doc:"lint found errors."
  :: error_exits

module Circuit = Glc_gates.Circuit
module Benchmarks = Glc_gates.Benchmarks
module Cello = Glc_gates.Cello
module Protocol = Glc_dvasim.Protocol
module Experiment = Glc_dvasim.Experiment
module Analyzer = Glc_core.Analyzer
module Verify = Glc_core.Verify
module Report = Glc_core.Report
module Lint = Glc_lint.Lint
module Diagnostic = Glc_lint.Diagnostic
module Certificate = Glc_symbolic.Certificate

(* Campaign.Runner.resolve is the one name -> circuit rule (benchmark
   name, 0xNN / 0xNNNN code, bare decimal); the CLI only words the
   error for a terminal. *)
let find_circuit name =
  Result.map_error
    (fun _ ->
      `Msg
        (Printf.sprintf
           "unknown circuit %S (try `glcv list`, or a code like 0x1C)" name))
    (Glc_campaign.Runner.resolve name)

(* ---- common options ---- *)

(* Every numeric option whose range the library checks parses through
   here, so a bad value is a usage error (124) before anything runs.
   cmdliner's [Arg.float] accepts [inf] and [nan], which slip past sign
   checks: an infinite --total never ends a run, an infinite
   --threshold still yields a verdict. *)
let where base what ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok x when ok x -> Ok x
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv ~docv:(Arg.conv_docv base) (parse, Arg.conv_printer base)

let finite_float = where Arg.float "a finite number" Float.is_finite

(* the ranges [Protocol.make], [Analyzer.run] and the yield accept *)
let positive_float =
  where Arg.float "a finite number > 0" (fun x -> x > 0. && x < infinity)

let non_negative_float =
  where Arg.float "a finite number >= 0" (fun x -> x >= 0. && x < infinity)

let positive_int = where Arg.int "an integer > 0" (fun n -> n > 0)
let fraction = where Arg.float "a number in (0, 1]" (fun x -> x > 0. && x <= 1.)

(* A CIRCUIT resolves in its converter, so an unknown name is a usage
   error (124) in every command, whether or not the command uses it. *)
let circuit_conv =
  Arg.conv
    (find_circuit, fun ppf c -> Format.pp_print_string ppf c.Circuit.name)

(* a circuit with the name it was given, which grids and the daemon
   store *)
let named_circuit =
  Arg.conv
    ( (fun s -> Result.map (fun c -> (s, c)) (find_circuit s)),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

let circuit_pos doc =
  Arg.pos 0 (Arg.some circuit_conv) None (Arg.info [] ~docv:"CIRCUIT" ~doc)

let circuit_arg =
  Arg.required
    (circuit_pos
       "Benchmark circuit name (see $(b,glcv list)) or a truth-table code \
        such as 0x1C.")

(* An optional CIRCUIT, for commands that also take --all or --expr. *)
let circuit_opt doc = Arg.value (circuit_pos doc)

let threshold_opt =
  Arg.value
    (Arg.opt positive_float Protocol.default.Protocol.threshold
       (Arg.info [ "threshold"; "t" ] ~docv:"MOLECULES"
          ~doc:"Logic threshold; a logic-1 input is clamped to this \
                amount (the paper's setup)."))

let total_opt =
  Arg.value
    (Arg.opt positive_float Protocol.default.Protocol.total_time
       (Arg.info [ "total" ] ~docv:"TIME" ~doc:"Total simulation time."))

let hold_opt =
  Arg.value
    (Arg.opt positive_float Protocol.default.Protocol.hold_time
       (Arg.info [ "hold" ] ~docv:"TIME"
          ~doc:"Hold time per input combination (propagation delay)."))

let seed_opt =
  Arg.value
    (Arg.opt Arg.int Protocol.default.Protocol.seed
       (Arg.info [ "seed" ] ~docv:"INT" ~doc:"Random seed."))

let fov_opt =
  Arg.value
    (Arg.opt fraction Analyzer.default_params.Analyzer.fov_ud
       (Arg.info [ "fov" ] ~docv:"FRACTION"
          ~doc:"FOV_UD: accepted fraction of output variation (eq. 1)."))

let gray_opt =
  Arg.value
    (Arg.flag
       (Arg.info [ "gray" ]
          ~doc:"Sequence the input combinations in Gray-code order (one \
                input changes per step) instead of counting order."))

let protocol_term =
  let make threshold total hold seed gray =
    Protocol.make ~total_time:total ~hold_time:hold ~threshold ~seed
      ~order:(if gray then Protocol.Gray else Protocol.Counting)
      ()
  in
  Term.(
    const make $ threshold_opt $ total_opt $ hold_opt $ seed_opt $ gray_opt)

(* ---- observability (--metrics) ---- *)

let metrics_opt =
  Arg.value
    (Arg.opt (Arg.some Arg.string) None
       (Arg.info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write an observability report to FILE as JSON after the \
                run: $(b,deterministic) (counters and gauges — \
                byte-identical across runs with the same seed and \
                worker count) and $(b,timings) (latency histograms and \
                spans, wall-clock)."))

(* Every file the CLI writes goes through here. *)
let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

(* The --metrics export. The notice goes to stderr: stdout may carry a
   machine-read JSON report. *)
let export_metrics file metrics =
  write_file file (Glc_obs.Metrics.to_json metrics ^ "\n");
  Printf.eprintf "metrics written to %s\n%!" file

(* Runs [f] against a live registry when --metrics FILE was given (the
   no-op sink otherwise) and writes the export afterwards. *)
let with_metrics path f =
  match path with
  | None -> f Glc_obs.Metrics.noop
  | Some file ->
      let metrics = Glc_obs.Metrics.create () in
      let r = f metrics in
      export_metrics file metrics;
      r

(* ---- graceful interrupt (SIGINT/SIGTERM) ---- *)

(* Long-running commands poll this flag between units of work (one
   replicate, one campaign job) instead of dying mid-write: the handler
   only flips an atomic, and the run winds down at the next boundary —
   results persisted, journal and metrics flushed — then exits 130. *)
let interrupted = Atomic.make false

let interrupt_requested () = Atomic.get interrupted

let install_interrupt_handlers () =
  let flag _ = Atomic.set interrupted true in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle flag)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* ---- lint guard ---- *)

let no_lint_opt =
  Arg.value
    (Arg.flag
       (Arg.info [ "no-lint" ]
          ~doc:"Skip the pre-flight lint pass (see $(b,glcv lint)). \
                Without it, lint errors abort the run with exit code 2 \
                before any simulation is spent."))

(* Pre-flight static analysis before a simulation-heavy command: lint
   every circuit involved, print diagnostics on stderr (stdout may
   carry the machine-read report), abort with [Error exit 2] on lint
   errors. Warnings and infos are printed but do not block. *)
let lint_guard ~no_lint ~protocol circuits =
  if no_lint then Ok ()
  else begin
    let ds = List.concat_map (Lint.circuit ~protocol) circuits in
    List.iter
      (fun d -> Format.eprintf "lint: %a@." Diagnostic.pp d)
      ds;
    if Diagnostic.exit_code ds >= 2 then begin
      Format.eprintf
        "lint found %d error(s); fix the model or bypass with --no-lint@."
        (Diagnostic.errors ds);
      Error exit_lint_error
    end
    else Ok ()
  end

(* ---- lint ---- *)

let lint_cmd =
  let run threshold json metrics_file files =
    with_metrics metrics_file (fun metrics ->
        let report = Lint.files ~threshold ~metrics files in
        if json then print_endline (Lint.report_json report)
        else begin
          List.iter
            (fun fr ->
              List.iter
                (fun d ->
                  Format.printf "%s: %a@." fr.Lint.fr_path Diagnostic.pp d)
                fr.Lint.fr_diagnostics)
            report;
          let all =
            List.concat_map (fun fr -> fr.Lint.fr_diagnostics) report
          in
          Format.printf "%d model(s) linted: %d error(s), %d warning(s)@."
            (List.length report) (Diagnostic.errors all)
            (Diagnostic.warnings all)
        end;
        Ok (Lint.report_exit_code report))
  in
  let files_arg =
    Arg.non_empty
      (Arg.pos_all Arg.string []
         (Arg.info [] ~docv:"MODEL"
            ~doc:"Model files to lint. $(b,NAME.sbml.xml) and \
                  $(b,NAME.sbol.xml) siblings are paired into one lint \
                  group so the cross-document checks (GLC010) run and \
                  the SBOL reporter becomes the output species for \
                  GLC002/GLC005; other files are sniffed (SBML first, \
                  then SBOL)."))
  in
  let threshold_opt =
    Arg.value
      (Arg.opt finite_float Protocol.default.Protocol.threshold
         (Arg.info [ "threshold" ] ~docv:"T"
            ~doc:"Logic threshold (molecules) used by the \
                  conservation-bound check GLC005."))
  in
  let json_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "json" ]
            ~doc:"Emit the machine-readable JSON report on stdout \
                  instead of the text diagnostics."))
  in
  Cmd.v
    (Cmd.info "lint" ~exits:lint_exits
       ~doc:"Statically analyse genetic circuit model files without \
             simulating: unproducible species, unreachable and inert \
             reactions, conservation laws that pin the output below \
             the logic threshold, kinetic-law and cross-document \
             sanity. Each finding carries a stable $(b,GLC)-prefixed \
             code; see the library documentation for the catalogue.")
    Term.(
      term_result
        (const run $ threshold_opt $ json_opt $ metrics_opt $ files_arg))

(* ---- list ---- *)

let list_cmd =
  let run () =
    Format.printf "%-14s %7s %6s %11s %9s@." "circuit" "inputs" "gates"
      "components" "expected";
    List.iter
      (fun (name, inputs, gates, comps) ->
        let c = Option.get (Benchmarks.find name) in
        let code =
          Format.asprintf "%a" Glc_logic.Truth_table.pp_code
            c.Circuit.expected
        in
        Format.printf "%-14s %7d %6d %11d %9s@." name inputs gates comps
          code)
      (Benchmarks.summary ());
    0
  in
  Cmd.v
    (Cmd.info "list" ~exits:std_exits
       ~doc:"List the 15 benchmark circuits of the paper.")
    Term.(const run $ const ())

(* ---- synth ---- *)

(* Builds a circuit from a Boolean expression over the sensor proteins
   (LacI, TetR, AraC, IN4, ...); the number of inputs is the number of
   distinct variables. *)
let circuit_of_expression s =
  match Glc_logic.Expr.of_string s with
  | Error e -> Error (`Msg e)
  | Ok expr -> (
      let vars = Glc_logic.Expr.vars expr in
      let n = List.length vars in
      if n = 0 then Error (`Msg "the expression uses no variables")
      else begin
        let sensors = Glc_gates.Assembly.sensors n in
        let missing =
          List.filter (fun v -> not (Array.mem v sensors)) vars
        in
        if missing <> [] then
          Error
            (`Msg
              (Printf.sprintf
                 "unknown input protein(s) %s: a %d-variable expression \
                  may use %s"
                 (String.concat ", " missing)
                 n
                 (String.concat ", " (Array.to_list sensors))))
        else begin
          let tt =
            Glc_logic.Expr.to_truth_table
              ~inputs:(Glc_gates.Assembly.netlist_inputs n) expr
          in
          match
            Glc_gates.Assembly.synthesize
              ~library:(Glc_gates.Repressor.extended 32)
              ~name:(Printf.sprintf "expr_0x%02X" (Glc_logic.Truth_table.to_code tt))
              tt
          with
          | c -> Ok c
          | exception Invalid_argument m -> Error (`Msg m)
        end
      end)

let synth_cmd =
  let ( let* ) = Result.bind in
  let run expr verilog dot circuit =
    let* c =
      match (expr, circuit) with
      | Some s, None -> circuit_of_expression s
      | None, Some c -> Ok c
      | None, None -> Error (`Msg "give a circuit, a code, or --expr")
      | Some _, Some _ -> Error (`Msg "give either a circuit or --expr")
    in
    Format.printf "%a@.@.%a@." Glc_sbol.Document.pp c.Circuit.document
      (Format.pp_print_list (fun ppf (prom, k) ->
           Format.fprintf ppf "%s: ymax=%g ymin=%g K=%g n=%g" prom
             k.Glc_sbol.To_model.ymax k.Glc_sbol.To_model.ymin
             k.Glc_sbol.To_model.k k.Glc_sbol.To_model.n))
      c.Circuit.promoter_kinetics;
    (match dot with
    | Some path ->
        write_file path (Glc_sbol.Document.to_dot c.Circuit.document);
        Format.printf "@.wrote %s (render with dot -Tsvg)@." path
    | None -> ());
    (match verilog with
    | Some path ->
        let nl =
          Glc_logic.Netlist.of_truth_table
            ~inputs:(Glc_gates.Assembly.netlist_inputs (Circuit.arity c))
            c.Circuit.expected
        in
        write_file path
          (Glc_logic.Netlist.to_verilog ~name:"genetic_circuit" nl);
        Format.printf "wrote %s@." path
    | None -> ());
    Ok 0
  in
  let expr_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "expr" ] ~docv:"EXPRESSION"
            ~doc:"Synthesise from a Boolean expression over the sensor \
                  proteins, e.g. \"LacI.TetR' + AraC\"."))
  in
  let verilog_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "verilog" ] ~docv:"FILE"
            ~doc:"Also write the NOR netlist as structural Verilog."))
  in
  let dot_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "dot" ] ~docv:"FILE"
            ~doc:"Also write the regulatory network as a Graphviz file."))
  in
  Cmd.v
    (Cmd.info "synth" ~exits:std_exits
       ~doc:"Synthesise a circuit (from the benchmark set, a truth-table \
             code, or a Boolean expression) and print its structural \
             document.")
    Term.(
      term_result
        (const run $ expr_opt $ verilog_opt $ dot_opt
        $ circuit_opt "Circuit name or code."))

(* ---- simulate ---- *)

let simulate_cmd =
  let run protocol csv metrics_file circuit =
    let e =
      with_metrics metrics_file (fun metrics ->
          Experiment.run ~protocol ~metrics circuit)
    in
    (match csv with
    | Some path ->
        Experiment.log_csv path e;
        Format.printf "wrote %s@." path
    | None ->
        let tr = e.Experiment.trace in
        Format.printf "simulated %s for %g t.u.; final amounts:@."
          circuit.Circuit.name protocol.Protocol.total_time;
        Array.iter
          (fun id ->
            let n = Glc_ssa.Trace.length tr in
            Format.printf "  %-10s %8.1f@." id
              (Glc_ssa.Trace.value tr id (n - 1)))
          (Glc_ssa.Trace.names tr));
    Ok 0
  in
  let csv_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "csv" ] ~docv:"FILE"
            ~doc:"Write the full simulation log to a CSV file."))
  in
  Cmd.v
    (Cmd.info "simulate" ~exits:std_exits
       ~doc:"Run a circuit through the virtual laboratory.")
    Term.(
      term_result
        (const run $ protocol_term $ csv_opt $ metrics_opt $ circuit_arg))

(* ---- analyze ---- *)

let analyze_cmd =
  let run protocol fov circuit =
    let e = Experiment.run ~protocol circuit in
    let params =
      { Analyzer.threshold = protocol.Protocol.threshold; fov_ud = fov }
    in
    let r = Analyzer.of_experiment ~params e in
    Format.printf "%a@."
      (Report.pp_result ~output_name:circuit.Circuit.output)
      r;
    Ok 0
  in
  Cmd.v
    (Cmd.info "analyze" ~exits:std_exits
       ~doc:"Extract the Boolean logic of a circuit from simulation \
             (Algorithm 1 of the paper).")
    Term.(term_result (const run $ protocol_term $ fov_opt $ circuit_arg))

(* ---- verify ---- *)

let margin_opt =
  Arg.value
    (Arg.opt non_negative_float Certificate.default_margin
       (Arg.info [ "margin" ] ~docv:"SIGMAS"
          ~doc:"Noise margin of the symbolic analyser, in Poisson \
                standard deviations: a steady-state bound must clear \
                the threshold by this many sqrt(bound) molecules before \
                a row counts as proved."))

let verify_cmd =
  let run protocol fov margin no_certify all no_lint metrics_file circuit =
    let params =
      { Analyzer.threshold = protocol.Protocol.threshold; fov_ud = fov }
    in
    (* the certificate (unless --no-certify), the Algorithm 1 result
       (when the circuit was simulated) and the verdict *)
    let verify metrics c =
      if no_certify then
        let r, v =
          Verify.experiment ~params (Experiment.run ~protocol ~metrics c)
        in
        (None, Some r, v)
      else
        let o = Verify.certified_first ~params ~margin ~metrics ~protocol c in
        (Some o.Verify.certificate, o.Verify.result, o.Verify.report)
    in
    if all then begin
      match lint_guard ~no_lint ~protocol (Benchmarks.all ()) with
      | Error code -> Ok code
      | Ok () ->
      let failures = ref 0 and simulated = ref 0 in
      let proved = ref 0 and rows = ref 0 in
      with_metrics metrics_file (fun metrics ->
          List.iter
            (fun c ->
              let cert, result, v = verify metrics c in
              if not v.Verify.verified then incr failures;
              let coverage =
                match cert with
                | None -> ""
                | Some k ->
                    proved := !proved + Certificate.decided k;
                    rows := !rows + Certificate.rows k;
                    Printf.sprintf " cert=%d/%d" (Certificate.decided k)
                      (Certificate.rows k)
              in
              let expr =
                match result with
                | Some r ->
                    incr simulated;
                    r.Analyzer.expr
                | None ->
                    Glc_logic.Qm.to_expr ~inputs:c.Circuit.inputs
                      v.Verify.extracted
              in
              Format.printf "%-14s %-8s%s fitness=%6.2f%%  %s = %a@."
                c.Circuit.name
                (if v.Verify.verified then "VERIFIED" else "WRONG")
                coverage v.Verify.fitness c.Circuit.output
                Glc_logic.Expr.pp expr)
            (Benchmarks.all ()));
      if not no_certify then
        Format.printf
          "certified %d/%d truth-table row(s) symbolically; simulated %d \
           circuit(s) with undecided rows@."
          !proved !rows !simulated;
      if !failures > 0 then begin
        Format.printf "%d circuit(s) not verified@." !failures;
        Ok exit_not_verified
      end
      else Ok 0
    end
    else
      match circuit with
      | None -> Error (`Msg "give a circuit name or --all")
      | Some c -> (
          match lint_guard ~no_lint ~protocol [ c ] with
          | Error code -> Ok code
          | Ok () ->
              let cert, result, v =
                with_metrics metrics_file (fun m -> verify m c)
              in
              Option.iter (Format.printf "%a@." Certificate.pp) cert;
              Option.iter
                (Format.printf "%a@."
                   (Report.pp_result ~output_name:c.Circuit.output))
                result;
              Format.printf "%a@." Report.pp_verification v;
              Option.iter
                (fun r ->
                  List.iter
                    (Format.printf "  %a@."
                       (Verify.pp_finding ~arity:r.Analyzer.arity))
                    (Verify.diagnose r v))
                result;
              Ok (if v.Verify.verified then 0 else exit_not_verified))
  in
  let all_opt =
    Arg.value
      (Arg.flag (Arg.info [ "all" ] ~doc:"Verify all benchmark circuits."))
  in
  let no_certify_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "no-certify" ]
            ~doc:"Skip the symbolic analyser: always simulate the \
                  whole protocol and let Algorithm 1 decide."))
  in
  Cmd.v
    (Cmd.info "verify" ~exits:verdict_exits
       ~doc:"Verify a circuit against the intended truth table. The \
             symbolic analyser ($(b,glcv certify)) is consulted first: \
             a certificate that proves every row is the verdict, with \
             no simulation. If any row is undecided the circuit is \
             simulated over the whole protocol and Algorithm 1 \
             decides, with the same trace, verdict and PFoBE as \
             $(b,--no-certify) — the rule every campaign, atlas and \
             serve job follows. Prints the certificate, the Algorithm \
             1 report when the circuit was simulated, the verdict and, \
             for a failed simulation, a diagnosis of each wrong state. \
             Runs the pre-flight lint first (exit 2 on lint errors; \
             $(b,--no-lint) skips it). Exits 0 when the circuit \
             verifies and 1 when it does not, so scripts and CI can \
             branch on the verdict.")
    Term.(
      term_result
        (const run $ protocol_term $ fov_opt $ margin_opt $ no_certify_opt
        $ all_opt $ no_lint_opt $ metrics_opt
        $ circuit_opt "Circuit to verify."))

(* ---- certify ---- *)

let certify_exits =
  Cmd.Exit.info exit_not_verified
    ~doc:"a proved row contradicts the intended truth table — the \
          circuit computes the wrong function there, and no amount of \
          simulation will change that."
  :: Cmd.Exit.info exit_incomplete
    ~doc:"undecided row(s) remain: their steady-state bounds straddle \
          the logic threshold, so only simulation ($(b,glcv verify)) \
          can settle them."
  :: std_exits

let certify_cmd =
  let run protocol margin json all metrics_file circuit =
    let verdict_code certs =
      if
        List.exists (fun ct -> Certificate.contradictions ct <> []) certs
      then exit_not_verified
      else if
        List.exists (fun ct -> not (Certificate.fully_decided ct)) certs
      then exit_incomplete
      else 0
    in
    with_metrics metrics_file (fun metrics ->
        let certify c = Certificate.certify ~metrics ~margin ~protocol c in
        if all then begin
          let certs = List.map certify (Benchmarks.all ()) in
          if json then
            print_string
              (Glc_obs.Json.arr (List.map Certificate.to_json certs) ^ "\n")
          else begin
            List.iter (Format.printf "%a@.@." Certificate.pp) certs;
            let proved =
              List.fold_left (fun a ct -> a + Certificate.decided ct) 0 certs
            and rows =
              List.fold_left (fun a ct -> a + Certificate.rows ct) 0 certs
            in
            Format.printf
              "certified %d/%d truth-table row(s) across %d circuit(s)@."
              proved rows (List.length certs)
          end;
          Ok (verdict_code certs)
        end
        else
          match circuit with
          | None -> Error (`Msg "give a circuit name or --all")
          | Some c ->
              let ct = certify c in
              if json then print_string (Certificate.to_json ct ^ "\n")
              else Format.printf "%a@." Certificate.pp ct;
              Ok (verdict_code [ ct ]))
  in
  let json_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "json" ]
            ~doc:"Print the certificate(s) as deterministic JSON."))
  in
  let all_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "all" ] ~doc:"Certify all benchmark circuits."))
  in
  Cmd.v
    (Cmd.info "certify" ~exits:certify_exits
       ~doc:"Prove truth-table rows symbolically, without simulating: \
             an interval steady-state analysis bounds the output \
             species for every input combination and rows whose bound \
             clears the threshold (with a $(b,--margin) noise margin) \
             are certified. Exits 0 when every row is proved and \
             matches the intent, 1 on a proved contradiction, 3 when \
             undecided rows remain.")
    Term.(
      term_result
        (const run $ protocol_term $ margin_opt $ json_opt $ all_opt
        $ metrics_opt $ circuit_opt "Circuit to certify."))

(* ---- ensemble ---- *)

let ensemble_cmd =
  let module Ensemble = Glc_engine.Ensemble in
  let run protocol fov replicates jobs json no_lint metrics_file circuit =
    match lint_guard ~no_lint ~protocol [ circuit ] with
    | Error code -> Ok code
    | Ok () -> (
    match
      Ensemble.config ~replicates ~jobs ~seed:protocol.Protocol.seed
        ~protocol ~fov_ud:fov ()
    with
    | exception Invalid_argument m -> Error (`Msg m)
    | cfg ->
        install_interrupt_handlers ();
        let progress =
          (* live counter on stderr only when a human is watching; the
             report on stdout stays byte-deterministic either way *)
          if Unix.isatty Unix.stderr then
            Glc_engine.Progress.counter ~total:replicates ()
          else Glc_engine.Progress.null
        in
        let t =
          with_metrics metrics_file (fun metrics ->
              Ensemble.run ~progress ~metrics
                ~should_stop:interrupt_requested cfg circuit)
        in
        if json then print_string (Ensemble.to_json t ^ "\n")
        else Format.printf "%a@." Ensemble.pp t;
        if interrupt_requested () then begin
          Format.eprintf
            "interrupted: %d/%d replicate(s) completed, %d skipped; \
             report and metrics flushed@."
            (Array.length t.Ensemble.replicates)
            replicates
            (Array.length t.Ensemble.failures);
          Ok exit_interrupted
        end
        else if Array.length t.Ensemble.replicates = 0 then
          Error (`Msg "all replicates failed")
        else if not t.Ensemble.consensus_verified then
          Ok exit_not_verified
        else Ok 0)
  in
  let replicates_opt =
    Arg.value
      (Arg.opt Arg.int 16
         (Arg.info [ "replicates"; "n" ] ~docv:"N"
            ~doc:"Number of independent SSA replicates."))
  in
  let jobs_opt =
    Arg.value
      (Arg.opt Arg.int 0
         (Arg.info [ "jobs"; "j" ] ~docv:"J"
            ~doc:"Worker domains; 0 sizes the pool to the hardware. The \
                  report is bit-identical for any value."))
  in
  let json_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "json" ]
            ~doc:"Emit the machine-readable JSON report instead of text."))
  in
  Cmd.v
    (Cmd.info "ensemble" ~exits:verdict_exits
       ~doc:"Run N independent stochastic replicates of an experiment \
             across a pool of CPU domains and aggregate them into a \
             statistically qualified verification verdict (mean/CI of \
             PFoBE, majority-vote consensus logic, flaky combinations). \
             Deterministic: --seed fixes the result for any --jobs. \
             Runs the pre-flight lint first (exit 2 on lint errors; \
             $(b,--no-lint) skips it). Exits 0 when the consensus logic \
             matches the intent and 1 when it does not; execution \
             failures exit 123.")
    Term.(
      term_result
        (const run $ protocol_term $ fov_opt $ replicates_opt $ jobs_opt
        $ json_opt $ no_lint_opt $ metrics_opt $ circuit_arg))

(* ---- threshold ---- *)

let threshold_cmd =
  let run protocol circuit =
    let est = Glc_dvasim.Threshold.estimate ~protocol circuit in
    Format.printf "%a@." Glc_dvasim.Threshold.pp est;
    Ok 0
  in
  Cmd.v
    (Cmd.info "threshold" ~exits:std_exits
       ~doc:"Estimate the output logic threshold (D-VASim's threshold \
             analysis).")
    Term.(term_result (const run $ protocol_term $ circuit_arg))

(* ---- delay ---- *)

let delay_cmd =
  let run protocol circuit =
    match Glc_dvasim.Prop_delay.worst_case ~protocol circuit with
    | Some m ->
        Format.printf "%a@." Glc_dvasim.Prop_delay.pp m;
        Ok 0
    | None ->
        Error (`Msg "no measurable output transition for this circuit")
  in
  Cmd.v
    (Cmd.info "delay" ~exits:std_exits
       ~doc:"Measure the worst-case propagation delay (D-VASim's timing \
             analysis).")
    Term.(term_result (const run $ protocol_term $ circuit_arg))

(* ---- export ---- *)

let export_cmd =
  let run dir =
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter
      (fun c ->
        let base = Filename.concat dir c.Circuit.name in
        Glc_model.Sbml.write_file (base ^ ".sbml.xml") (Circuit.model c);
        Glc_sbol.Sbol_xml.write_file (base ^ ".sbol.xml")
          c.Circuit.document;
        Format.printf "wrote %s.{sbml,sbol}.xml@." base)
      (Benchmarks.all ());
    Ok 0
  in
  let dir_opt =
    Arg.value
      (Arg.opt Arg.string "models"
         (Arg.info [ "dir" ] ~docv:"DIR" ~doc:"Output directory."))
  in
  Cmd.v
    (Cmd.info "export" ~exits:std_exits
       ~doc:"Write SBML and SBOL files for all benchmark circuits.")
    Term.(term_result (const run $ dir_opt))

(* ---- vcd ---- *)

let vcd_cmd =
  let run protocol out circuit =
    let e = Experiment.run ~protocol circuit in
    Glc_core.Vcd.write_file ~threshold:protocol.Protocol.threshold out
      e.Experiment.trace;
    Format.printf "wrote %s (open with gtkwave)@." out;
    Ok 0
  in
  let out_opt =
    Arg.value
      (Arg.opt Arg.string "circuit.vcd"
         (Arg.info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output VCD file."))
  in
  Cmd.v
    (Cmd.info "vcd" ~exits:std_exits
       ~doc:"Dump the digitised waveforms of an experiment as a VCD file \
             for EDA waveform viewers.")
    Term.(term_result (const run $ protocol_term $ out_opt $ circuit_arg))

(* ---- probe ---- *)

let probe_cmd =
  let run protocol circuit =
    let e = Experiment.run ~protocol circuit in
    Format.printf "%-10s %-6s %s@." "species" "code" "extracted logic";
    Array.iter
      (fun species ->
        if not (Array.mem species circuit.Circuit.inputs) then begin
          let r =
            Analyzer.run
              ~params:
                {
                  Analyzer.threshold = protocol.Protocol.threshold;
                  fov_ud = Analyzer.default_params.Analyzer.fov_ud;
                }
              {
                Analyzer.trace = e.Experiment.trace;
                inputs = circuit.Circuit.inputs;
                output = species;
              }
          in
          Format.printf "%-10s %-6s %a@." species
            (Format.asprintf "%a" Glc_logic.Truth_table.pp_code
               (Analyzer.extracted_table r))
            Glc_logic.Expr.pp
            (Analyzer.minimised_expr r)
        end)
      (Glc_ssa.Trace.names e.Experiment.trace);
    Ok 0
  in
  Cmd.v
    (Cmd.info "probe" ~exits:std_exits
       ~doc:"Extract the logic of every internal species from one \
             experiment (intermediate-component analysis).")
    Term.(term_result (const run $ protocol_term $ circuit_arg))

(* ---- sweep / robustness ---- *)

module Robustness = Glc_core.Robustness

(* the threshold-window table: sweep adds the extracted logic *)
let print_window ~expr points =
  Format.printf "%9s %-9s %8s %10s%s@." "threshold" "verdict" "fitness"
    "total-var"
    (if expr then "  extracted" else "");
  List.iter
    (fun (p : Robustness.window_point) ->
      Format.printf "%9g %-9s %7.2f%% %10d%t@." p.w_threshold
        (if p.w_verified then "verified" else "WRONG")
        p.w_fitness p.w_variations (fun ppf ->
          if expr then Format.fprintf ppf "  %a" Glc_logic.Expr.pp p.w_expr))
    points

let sweep_cmd =
  let run total hold seed thresholds circuit =
    let protocol = Protocol.make ~total_time:total ~hold_time:hold ~seed () in
    print_window ~expr:true
      (Robustness.threshold_window ~protocol ~thresholds circuit);
    Ok 0
  in
  let thresholds_opt =
    Arg.value
      (Arg.opt
         (Arg.list positive_float)
         Robustness.default_sweep
         (Arg.info [ "thresholds" ] ~docv:"T1,T2,..."
            ~doc:"Threshold values to sweep (the Fig. 5 study)."))
  in
  Cmd.v
    (Cmd.info "sweep" ~exits:std_exits
       ~doc:"Analyse a circuit across threshold values (the paper's \
             Fig. 5 robustness study).")
    Term.(
      term_result
        (const run $ total_opt $ hold_opt $ seed_opt $ thresholds_opt
        $ circuit_arg))

let robustness_cmd =
  let run protocol trials spread circuit =
    let points = Robustness.threshold_window ~protocol circuit in
    print_window ~expr:false points;
    (match Robustness.operating_range points with
    | Some (lo, hi) ->
        Format.printf "@.operating window: %g .. %g molecules@." lo hi
    | None -> Format.printf "@.no verified operating point@.");
    let y = Robustness.parametric_yield ~protocol ~trials ~spread circuit in
    Format.printf "parametric yield (spread %.0f%%): %a@." (spread *. 100.)
      Robustness.pp_yield y;
    Ok 0
  in
  let trials_opt =
    Arg.value
      (Arg.opt positive_int 20
         (Arg.info [ "trials" ] ~docv:"N"
            ~doc:"Monte-Carlo trials for the parametric yield."))
  in
  let spread_opt =
    Arg.value
      (Arg.opt non_negative_float 0.2
         (Arg.info [ "spread" ] ~docv:"SIGMA"
            ~doc:"Log-normal spread of the part parameters."))
  in
  Cmd.v
    (Cmd.info "robustness" ~exits:std_exits
       ~doc:"Threshold operating window and Monte-Carlo parametric yield \
             of a circuit.")
    Term.(
      term_result
        (const run $ protocol_term $ trials_opt $ spread_opt $ circuit_arg))

(* ---- campaign ---- *)

(* Resumable batch verification over a declarative grid (lib/campaign):
   plan the grid, persist every job result in an on-disk store, journal
   the lifecycle, resume after a kill, and render a deterministic
   report. *)

module Campaign = struct
  module Grid = Glc_campaign.Grid
  module Store = Glc_campaign.Store
  module Runner = Glc_campaign.Runner
  module Resume = Glc_campaign.Resume

  let dir_opt =
    Arg.required
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "dir"; "d" ] ~docv:"DIR"
            ~doc:"Campaign directory (manifest, journal, result store)."))

  let jobs_opt =
    Arg.value
      (Arg.opt Arg.int 0
         (Arg.info [ "jobs"; "j" ] ~docv:"J"
            ~doc:"Worker domains per job; 0 sizes the pool to the \
                  hardware. Results are bit-identical for any value."))

  let limit_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None
         (Arg.info [ "limit" ] ~docv:"N"
            ~doc:"Stop after N jobs (the rest stay pending; exit 3). \
                  Useful for incremental draining and for testing \
                  resume."))

  let progress () =
    if Unix.isatty Unix.stderr then Some (Runner.counter_progress ())
    else None

  let summarize (store : Store.t) (s : Runner.summary) =
    Format.printf
      "campaign %s: attempted %d job(s), %d succeeded, %d failed, %d \
       still pending@."
      (Store.dir store) s.Runner.ran s.Runner.succeeded s.Runner.failed
      s.Runner.remaining;
    if s.Runner.failed > 0 || s.Runner.remaining > 0 then exit_incomplete
    else 0

  let drain ~jobs ~limit ~metrics_file ~dir =
    install_interrupt_handlers ();
    with_metrics metrics_file (fun metrics ->
        match
          Resume.run ~jobs ?limit ?on_progress:(progress ()) ~metrics
            ~should_stop:interrupt_requested ~dir ()
        with
        | Error m -> Error (`Msg m)
        | Ok (store, _spec, summary) ->
            let code = summarize store summary in
            if interrupt_requested () then begin
              Format.printf
                "campaign interrupted: store and journal flushed; finish \
                 with `glcv campaign resume --dir %s`@."
                dir;
              Ok exit_interrupted
            end
            else Ok code)

  let run_cmd =
    let run dir circuits thresholds fovs input_highs replicates seed total
        hold jobs limit no_lint metrics_file =
      match
        let grid =
          Grid.make ~thresholds ~fov_uds:fovs
            ~input_highs:
              (match input_highs with
              | [] -> [ None ]
              | hs -> List.map Option.some hs)
            ~replicate_counts:replicates (List.map fst circuits)
        in
        Grid.spec ~seed ~total_time:total ~hold_time:hold grid
      with
      | exception Invalid_argument m -> Error (`Msg m)
      | spec -> (
          (* pre-flight: lint every (circuit, threshold) cell of the
             grid before anything is persisted or simulated *)
          let guard =
            List.fold_left
              (fun acc threshold ->
                match acc with
                | Error _ -> acc
                | Ok () ->
                    lint_guard ~no_lint (List.map snd circuits)
                      ~protocol:
                        (Protocol.make ~total_time:total ~hold_time:hold ~seed
                           ~threshold ()))
              (Ok ()) thresholds
          in
          match guard with
          | Error code -> Ok code
          | Ok () -> (
          match Store.create ~dir (Grid.spec_to_json spec) with
          | Error m -> Error (`Msg m)
          | Ok _store -> drain ~jobs ~limit ~metrics_file ~dir))
    in
    let circuits_opt =
      Arg.required
        (Arg.opt (Arg.some (Arg.list named_circuit)) None
           (Arg.info [ "circuits"; "c" ] ~docv:"NAME,..."
              ~doc:"Circuits to sweep: benchmark names (see \
                    $(b,glcv list)) or 0xNN truth-table codes."))
    in
    let thresholds_opt =
      Arg.value
        (Arg.opt (Arg.list positive_float)
           [ Protocol.default.Protocol.threshold ]
           (Arg.info [ "thresholds" ] ~docv:"T,..."
              ~doc:"Logic-threshold axis of the grid."))
    in
    let fovs_opt =
      Arg.value
        (Arg.opt (Arg.list fraction) [ 0.25 ]
           (Arg.info [ "fovs" ] ~docv:"F,..."
              ~doc:"FOV_UD axis of the grid (eq. 1)."))
    in
    let input_highs_opt =
      Arg.value
        (Arg.opt (Arg.list finite_float) []
           (Arg.info [ "input-highs" ] ~docv:"H,..."
              ~doc:"Logic-1 input-amount axis; default: the threshold \
                    value, as in the paper."))
    in
    let replicates_opt =
      Arg.value
        (Arg.opt (Arg.list Arg.int) [ 16 ]
           (Arg.info [ "replicates"; "n" ] ~docv:"N,..."
              ~doc:"Ensemble-size axis of the grid."))
    in
    Cmd.v
      (Cmd.info "run" ~exits:campaign_exits
         ~doc:"Plan a fresh campaign (circuits × thresholds × FOV_UD × \
               input-high × replicates), persist its manifest under \
               $(b,--dir), and drain the jobs. Each job's result is \
               journaled and stored atomically, so a killed campaign \
               loses at most the in-flight job — $(b,glcv campaign \
               resume) finishes the rest. Deterministic: the final \
               report depends only on the manifest and the root seed.")
      Term.(
        term_result
          (const run $ dir_opt $ circuits_opt $ thresholds_opt $ fovs_opt
          $ input_highs_opt $ replicates_opt $ seed_opt $ total_opt
          $ hold_opt $ jobs_opt $ limit_opt $ no_lint_opt $ metrics_opt))

  let resume_cmd =
    let run dir jobs limit metrics_file =
      drain ~jobs ~limit ~metrics_file ~dir
    in
    Cmd.v
      (Cmd.info "resume" ~exits:campaign_exits
         ~doc:"Resume an interrupted campaign: re-read the manifest and \
               journal, skip every job whose result is already stored, \
               re-queue and run the rest. With the same root seed the \
               final report is byte-identical to an uninterrupted run.")
      Term.(
        term_result
          (const run $ dir_opt $ jobs_opt $ limit_opt $ metrics_opt))

  let status_cmd =
    let run dir =
      match Resume.status ~dir with
      | Error m -> Error (`Msg m)
      | Ok st ->
          Format.printf "campaign %s: %d/%d job(s) done, %d pending@." dir
            st.Resume.s_done st.Resume.s_total
            (List.length st.Resume.s_pending);
          (match st.Resume.s_jobs_per_second with
          | Some rate ->
              Format.printf "  throughput %.3g job(s)/s%s@." rate
                (match st.Resume.s_eta_seconds with
                | Some eta -> Printf.sprintf ", ETA %.0f s" eta
                | None -> "")
          | None -> ());
          List.iter
            (fun (id, n) ->
              if n > 1 then
                Format.printf "  %s: %d attempt(s)@." id n)
            st.Resume.s_attempts;
          List.iter
            (fun (id, e) -> Format.printf "  %s: last failure: %s@." id e)
            st.Resume.s_failures;
          List.iter
            (fun id -> Format.printf "  pending: %s@." id)
            st.Resume.s_pending;
          Ok (if st.Resume.s_done = st.Resume.s_total then 0
              else exit_incomplete)
    in
    Cmd.v
      (Cmd.info "status" ~exits:campaign_exits
         ~doc:"Progress of a campaign from its store and journal: done \
               vs pending jobs, attempt counts, last failures. Exits 0 \
               when complete, 3 otherwise.")
      Term.(term_result (const run $ dir_opt))

  let report_cmd =
    let run dir json =
      match Resume.load ~dir with
      | Error m -> Error (`Msg m)
      | Ok (store, spec) ->
          if json then print_string (Store.report_json store spec ^ "\n")
          else Format.printf "%a@." Store.pp_report (store, spec);
          let ls = Store.lines store spec in
          Ok
            (if List.exists (fun l -> not l.Store.l_done) ls then
               exit_incomplete
             else if List.exists (fun l -> not l.Store.l_verified) ls then
               exit_not_verified
             else 0)
    in
    let json_opt =
      Arg.value
        (Arg.flag
           (Arg.info [ "json" ]
              ~doc:"Emit the machine-readable JSON report. Deterministic: \
                    a resumed campaign renders byte-identically to an \
                    uninterrupted one with the same seed."))
    in
    Cmd.v
      (Cmd.info "report" ~exits:campaign_exits
         ~doc:"Render the campaign report from the result store, in grid \
               order. Exits 0 when every job is done and verified, 1 \
               when some job's consensus logic is wrong, 3 when jobs \
               are missing.")
      Term.(term_result (const run $ dir_opt $ json_opt))

  let group =
    Cmd.group
      (Cmd.info "campaign" ~exits:campaign_exits
         ~doc:"Resumable batch-verification campaigns with an on-disk \
               result store: $(b,run), $(b,status), $(b,resume), \
               $(b,report).")
      [ run_cmd; resume_cmd; status_cmd; report_cmd ]
end

(* ---- space ---- *)

(* The function-space atlas (lib/space): verify a whole n-input
   Boolean-function space through the campaign stack — certified-first,
   stochastic ensembles only for the rows the interval analysis leaves
   undecided — measure worst-case propagation delays on the ODE limit,
   and render Pareto frontiers (PFoBE × delay × gate cost) per NPN
   class. *)

module Space = struct
  module Store = Glc_campaign.Store
  module Resume = Glc_campaign.Resume
  module Atlas = Glc_space.Atlas

  let dir_opt =
    Arg.required
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "dir"; "d" ] ~docv:"DIR"
            ~doc:"Atlas directory — a regular campaign directory \
                  (manifest, journal, result store) whose jobs are the \
                  functions of the space, so $(b,glcv campaign \
                  status/report) work on it too."))

  let inputs_opt =
    Arg.value
      (Arg.opt Arg.int 3
         (Arg.info [ "inputs" ] ~docv:"N"
            ~doc:"Function arity (2..4). The 3-input space has 256 \
                  functions; the 4-input space has 65,536 and \
                  requires $(b,--sample)."))

  let sample_opt =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None
         (Arg.info [ "sample" ] ~docv:"N"
            ~doc:"Verify a seeded uniform sample of N functions \
                  instead of the whole space (deterministic for a \
                  fixed $(b,--seed))."))

  let replicates_opt =
    Arg.value
      (Arg.opt Arg.int 16
         (Arg.info [ "replicates"; "n" ] ~docv:"N"
            ~doc:"Ensemble size for functions the symbolic \
                  certificate leaves undecided."))

  let certified_only_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "certified-only" ]
            ~doc:"Run only the functions whose truth table certifies \
                  fully by interval analysis; the rest stay pending \
                  (exit 3). No stochastic simulation at all — this is \
                  the cheap CI slice."))

  let config inputs sample seed replicates threshold total hold =
    {
      Atlas.inputs;
      sample;
      seed;
      replicates;
      threshold;
      total_time = total;
      hold_time = hold;
    }

  let summarize dir (s : Atlas.summary) =
    Format.printf
      "space %s: %d function(s), %d done (%d verified), %d failed, %d \
       pending; delays %d/%d@."
      dir s.Atlas.a_functions s.Atlas.a_done s.Atlas.a_verified
      s.Atlas.a_failed s.Atlas.a_remaining s.Atlas.a_delays
      s.Atlas.a_delays_total;
    if
      s.Atlas.a_remaining > 0 || s.Atlas.a_failed > 0
      || s.Atlas.a_delays < s.Atlas.a_delays_total
    then exit_incomplete
    else 0

  let run_cmd =
    let run dir inputs sample seed replicates threshold total hold
        certified_only jobs limit metrics_file =
      match
        Atlas.plan
          (config inputs sample seed replicates threshold total hold)
      with
      | exception Invalid_argument m -> Error (`Msg m)
      | spec ->
          install_interrupt_handlers ();
          with_metrics metrics_file (fun metrics ->
              match
                let ( let* ) = Result.bind in
                let* _, _, stored_plan = Atlas.prepare ~dir spec in
                (* an existing directory keeps its own manifest (that is
                   what makes re-running the same command a resume) *)
                if stored_plan then
                  Printf.eprintf
                    "note: %s already holds an atlas plan; resuming it \
                     (the planning flags of this invocation were \
                     ignored)\n\
                     %!"
                    dir;
                Atlas.run ~jobs ?limit
                  ?on_progress:(Campaign.progress ())
                  ~metrics ~should_stop:interrupt_requested
                  ~certified_only ~dir spec
              with
              | Error m -> Error (`Msg m)
              | Ok summary ->
                  let code = summarize dir summary in
                  if interrupt_requested () then begin
                    Format.printf
                      "space interrupted: store and journal flushed; \
                       finish with `glcv space run --dir %s`@."
                      dir;
                    Ok exit_interrupted
                  end
                  else Ok code)
    in
    Cmd.v
      (Cmd.info "run" ~exits:campaign_exits
         ~doc:"Verify every function of the n-input space (or a seeded \
               sample): plan one campaign job per function under \
               $(b,--dir), certify each truth table symbolically, \
               simulate only the undecided ones, then measure each \
               circuit's worst-case propagation delay on the ODE \
               limit. Killable and resumable: re-running the same \
               command skips everything already stored.")
      Term.(
        term_result
          (const run $ dir_opt $ inputs_opt $ sample_opt $ seed_opt
          $ replicates_opt $ threshold_opt $ total_opt $ hold_opt
          $ certified_only_opt $ Campaign.jobs_opt $ Campaign.limit_opt
          $ metrics_opt))

  let status_cmd =
    let run dir =
      match Resume.status ~dir with
      | Error m -> Error (`Msg m)
      | Ok st ->
          let delays =
            match Resume.load ~dir with
            | Ok (store, spec) -> Some (Atlas.delay_coverage store spec)
            | Error _ -> None
          in
          Format.printf "space %s: %d/%d function(s) done, %d pending@."
            dir st.Resume.s_done st.Resume.s_total
            (List.length st.Resume.s_pending);
          (match delays with
          | Some (m, t) -> Format.printf "  delays measured: %d/%d@." m t
          | None -> ());
          (match st.Resume.s_jobs_per_second with
          | Some rate ->
              Format.printf "  throughput %.3g function(s)/s%s@." rate
                (match st.Resume.s_eta_seconds with
                | Some eta -> Printf.sprintf ", ETA %.0f s" eta
                | None -> "")
          | None -> ());
          List.iter
            (fun (id, e) -> Format.printf "  %s: last failure: %s@." id e)
            st.Resume.s_failures;
          let complete =
            st.Resume.s_done = st.Resume.s_total
            && match delays with Some (m, t) -> m >= t | None -> false
          in
          Ok (if complete then 0 else exit_incomplete)
    in
    Cmd.v
      (Cmd.info "status" ~exits:campaign_exits
         ~doc:"Progress of an atlas run: functions done vs pending and \
               delay-measurement coverage. Exits 0 when the atlas is \
               complete, 3 otherwise.")
      Term.(term_result (const run $ dir_opt))

  let report_cmd =
    let write file s =
      write_file file s;
      Printf.eprintf "wrote %s\n%!" file
    in
    let run dir json out atlas_out =
      match Resume.load ~dir with
      | Error m -> Error (`Msg m)
      | Ok (store, spec) -> (
          let doc = Atlas.space_json store spec in
          (match out with Some f -> write f doc | None -> ());
          let atlas_result =
            match atlas_out with
            | None -> Ok ()
            | Some f -> Result.map (write f) (Atlas.markdown doc)
          in
          match atlas_result with
          | Error m -> Error (`Msg m)
          | Ok () -> (
              let render_stdout =
                if json then Ok (print_string (doc ^ "\n"))
                else if out = None && atlas_out = None then
                  Result.map print_string (Atlas.markdown doc)
                else Ok ()
              in
              match render_stdout with
              | Error m -> Error (`Msg m)
              | Ok () ->
                  let ls = Store.lines store spec in
                  let delays_ok =
                    let m, t = Atlas.delay_coverage store spec in
                    m >= t
                  in
                  Ok
                    (if
                       List.exists (fun l -> not l.Store.l_done) ls
                       || not delays_ok
                     then exit_incomplete
                     else if
                       List.exists (fun l -> not l.Store.l_verified) ls
                     then exit_not_verified
                     else 0)))
    in
    let json_opt =
      Arg.value
        (Arg.flag
           (Arg.info [ "json" ]
              ~doc:"Print the SPACE.json document to stdout instead of \
                    the rendered markdown. Deterministic: a resumed \
                    atlas renders byte-identically to an uninterrupted \
                    one."))
    in
    let out_opt =
      Arg.value
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "out" ] ~docv:"FILE"
              ~doc:"Also write the SPACE.json document to FILE."))
    in
    let atlas_opt =
      Arg.value
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "atlas" ] ~docv:"FILE"
              ~doc:"Also render the markdown atlas (frontier tables \
                    per NPN class) to FILE — the same renderer as \
                    $(b,tools/gen_models_doc.exe --atlas), so the two \
                    can never drift."))
    in
    Cmd.v
      (Cmd.info "report" ~exits:campaign_exits
         ~doc:"Render the function-space report: SPACE.json (run \
               parameters, per-class summaries with bio flags, one \
               record per function, Pareto frontiers) and its markdown \
               atlas. Exits 0 when every function is done and \
               verified, 1 when some are wrong, 3 when functions or \
               delay measurements are missing.")
      Term.(
        term_result (const run $ dir_opt $ json_opt $ out_opt $ atlas_opt))

  let group =
    Cmd.group
      (Cmd.info "space" ~exits:campaign_exits
         ~doc:"The function-space atlas: $(b,run) verifies every \
               function of an n-input space (certified-first, with \
               propagation delays), $(b,status) and $(b,report) render \
               progress and the SPACE.json/ATLAS.md Pareto-frontier \
               report.")
      [ run_cmd; status_cmd; report_cmd ]
end

(* ---- serve / submit / status / result / scrape ---- *)

(* Verification-as-a-service (lib/serve): a daemon on a unix socket
   with a shared engine pool, an admission-controlled priority queue,
   and crash-safe persistence; plus the blocking client subcommands
   the CI smoke test and scripts drive it with. *)

module Serve = struct
  module Server = Glc_serve.Server
  module Client = Glc_serve.Client
  module W = Glc_serve.Protocol_wire

  let serve_exits =
    Cmd.Exit.info exit_lint_error
      ~doc:"the daemon rejected the submission: the pre-flight lint \
            found errors (the GLC diagnostics are in the reply)."
    :: Cmd.Exit.info exit_incomplete
         ~doc:"the job is not done (result polled before completion), \
               or the daemon's queue is full (429; retry after the \
               hinted delay)."
    :: Cmd.Exit.info exit_not_verified
         ~doc:"the job ran and its consensus logic does $(b,not) match \
               the intent."
    :: std_exits

  let socket_opt =
    Arg.required
      (Arg.opt (Arg.some Arg.string) None
         (Arg.info [ "socket"; "s" ] ~docv:"PATH"
            ~doc:"Unix socket the daemon listens on."))

  let opt_float ?(conv = finite_float) names docv doc =
    Arg.value (Arg.opt (Arg.some conv) None (Arg.info names ~docv ~doc))

  let opt_int names docv doc =
    Arg.value
      (Arg.opt (Arg.some Arg.int) None (Arg.info names ~docv ~doc))

  let wait_opt =
    Arg.value
      (Arg.flag
         (Arg.info [ "wait"; "w" ]
            ~doc:"Block until the job finishes and print its result \
                  document; the exit code then reflects the verdict."))

  let timeout_opt =
    Arg.value
      (Arg.opt finite_float 300.
         (Arg.info [ "timeout" ] ~docv:"SECONDS"
            ~doc:"Give up waiting after this long (the job keeps \
                  running server-side)."))

  let finish_result (resp : W.response) =
    match resp.W.status with
    | 200 -> (
        print_endline resp.W.resp_body;
        match Glc_campaign.Store.verdict resp.W.resp_body with
        | Some true -> Ok 0
        | Some false -> Ok exit_not_verified
        | None -> Error (`Msg "result document carries no verdict"))
    | 409 ->
        prerr_endline resp.W.resp_body;
        Ok exit_incomplete
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "daemon answered %d: %s" resp.W.status
               resp.W.resp_body))

  let serve_cmd =
    let run socket state jobs queue seed total hold no_lint metrics_file =
      let metrics = Glc_obs.Metrics.create () in
      let cfg =
        Server.config ~socket_path:socket ~state_dir:state ~pool_jobs:jobs
          ~queue_capacity:queue ~seed ~total_time:total ~hold_time:hold
          ~lint_admission:(not no_lint) ~metrics ()
      in
      match Server.create cfg with
      | Error m -> Error (`Msg m)
      | Ok server ->
          Server.install_signal_handlers server;
          Printf.eprintf "glcv serve: listening on %s (state %s)\n%!"
            socket state;
          Server.run server;
          Printf.eprintf "glcv serve: stopped; state persisted under %s\n%!"
            state;
          Option.iter (fun file -> export_metrics file metrics) metrics_file;
          Ok 0
    in
    let state_opt =
      Arg.required
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "state" ] ~docv:"DIR"
              ~doc:"State directory: result store, persisted \
                    submissions, lock. A daemon killed with \
                    $(b,SIGKILL) resumes its acknowledged jobs from \
                    here on restart."))
    in
    let queue_opt =
      Arg.value
        (Arg.opt Arg.int 64
           (Arg.info [ "queue" ] ~docv:"N"
              ~doc:"Queue capacity; further submissions are rejected \
                    with 429 and a retry-after hint."))
    in
    let jobs_opt =
      Arg.value
        (Arg.opt Arg.int 0
           (Arg.info [ "jobs"; "j" ] ~docv:"J"
              ~doc:"Worker domains of the shared engine pool; 0 sizes \
                    it to the hardware."))
    in
    Cmd.v
      (Cmd.info "serve" ~exits:std_exits
         ~doc:"Run the verification daemon: HTTP/1.1 + JSON over a unix \
               socket ($(b,POST /v1/jobs), $(b,GET /v1/jobs/ID/result), \
               $(b,GET /metrics), ...). Submissions are lint-checked at \
               admission, deduplicated by content-derived job id, \
               prioritised in a bounded queue, executed on a shared \
               domain pool, and persisted so a killed daemon resumes \
               on restart with byte-identical results. $(b,SIGINT)/\
               $(b,SIGTERM) shut down gracefully.")
      Term.(
        term_result
          (const run $ socket_opt $ state_opt $ jobs_opt $ queue_opt
          $ seed_opt $ total_opt $ hold_opt $ no_lint_opt $ metrics_opt))

  let submit_cmd =
    let run socket circuit threshold fov input_high replicates priority
        wait timeout =
      let client = Client.connect ~socket in
      match
        Client.submit ?threshold ?fov_ud:fov ?input_high ?replicates
          ?priority client ~circuit:(fst circuit)
      with
      | Error m -> Error (`Msg m)
      | Ok resp -> (
          match resp.W.status with
          | 200 | 202 -> (
              print_endline resp.W.resp_body;
              if not wait then Ok 0
              else
                match Client.job_id_of_response resp with
                | None -> Error (`Msg "daemon reply carried no job id")
                | Some id -> (
                    match
                      Client.result ~wait:true ~timeout_s:timeout client
                        ~id
                    with
                    | Error m -> Error (`Msg m)
                    | Ok resp -> finish_result resp))
          | 422 ->
              (* lint rejection: the GLC diagnostics are the reply *)
              prerr_endline resp.W.resp_body;
              Ok exit_lint_error
          | 429 ->
              prerr_endline resp.W.resp_body;
              Ok exit_incomplete
          | _ ->
              Error
                (`Msg
                  (Printf.sprintf "daemon answered %d: %s" resp.W.status
                     resp.W.resp_body)))
    in
    let circuit_opt =
      Arg.required
        (Arg.pos 0 (Arg.some named_circuit) None
           (Arg.info [] ~docv:"CIRCUIT"
              ~doc:"Circuit name or 0xNN truth-table code; checked here \
                    and resolved again by the daemon."))
    in
    Cmd.v
      (Cmd.info "submit" ~exits:serve_exits
         ~doc:"Submit a verification job to a running daemon. Prints \
               the acknowledgement (with the content-derived job id); \
               with $(b,--wait), blocks for the result document and \
               exits 0/1 on the verdict. Duplicate submissions are \
               answered instantly with $(b,\"dedup\":true). Exits 2 \
               when the daemon's lint rejects the model, 3 when the \
               queue is full.")
      Term.(
        term_result
          (const run $ socket_opt $ circuit_opt
          $ opt_float ~conv:positive_float [ "threshold"; "t" ] "MOLECULES"
              "Logic threshold."
          $ opt_float ~conv:fraction [ "fov" ] "FRACTION" "FOV_UD (eq. 1)."
          $ opt_float [ "input-high" ] "MOLECULES"
              "Logic-1 input amount (default: the threshold)."
          $ opt_int [ "replicates"; "n" ] "N" "SSA replicates."
          $ opt_int [ "priority" ] "P"
              "Scheduling priority 0–9 (higher runs earlier; default 5)."
          $ wait_opt $ timeout_opt))

  let status_cmd =
    let run socket id =
      let client = Client.connect ~socket in
      let reply = function
        | Error m -> Error (`Msg m)
        | Ok (resp : W.response) ->
            if resp.W.status = 200 then begin
              print_endline resp.W.resp_body;
              Ok 0
            end
            else
              Error
                (`Msg
                  (Printf.sprintf "daemon answered %d: %s" resp.W.status
                     resp.W.resp_body))
      in
      match id with
      | Some id -> reply (Client.status client ~id)
      | None -> reply (Client.list_jobs client)
    in
    let id_opt =
      Arg.value
        (Arg.pos 0 (Arg.some Arg.string) None
           (Arg.info [] ~docv:"JOB"
              ~doc:"Job id; omit to list every job the daemon knows."))
    in
    Cmd.v
      (Cmd.info "status" ~exits:std_exits
         ~doc:"Query a job's lifecycle state (or list all jobs) from a \
               running daemon.")
      Term.(term_result (const run $ socket_opt $ id_opt))

  let result_cmd =
    let run socket id wait timeout =
      let client = Client.connect ~socket in
      match Client.result ~wait ~timeout_s:timeout client ~id with
      | Error m -> Error (`Msg m)
      | Ok resp -> finish_result resp
    in
    let id_arg =
      Arg.required
        (Arg.pos 0 (Arg.some Arg.string) None
           (Arg.info [] ~docv:"JOB" ~doc:"Job id."))
    in
    Cmd.v
      (Cmd.info "result" ~exits:serve_exits
         ~doc:"Fetch a job's result document. Exits 0 when the \
               consensus logic verified, 1 when it did not, 3 when the \
               job is still queued or running (use $(b,--wait)).")
      Term.(
        term_result (const run $ socket_opt $ id_arg $ wait_opt
        $ timeout_opt))

  let scrape_cmd =
    let run socket out =
      let client = Client.connect ~socket in
      match Client.metrics client with
      | Error m -> Error (`Msg m)
      | Ok text ->
          (match out with
          | None -> print_string text
          | Some file ->
              write_file file text;
              Printf.eprintf "metrics scrape written to %s\n%!" file);
          Ok 0
    in
    let out_opt =
      Arg.value
        (Arg.opt (Arg.some Arg.string) None
           (Arg.info [ "o"; "output" ] ~docv:"FILE"
              ~doc:"Write the scrape to FILE instead of stdout."))
    in
    Cmd.v
      (Cmd.info "scrape" ~exits:std_exits
         ~doc:"Fetch the daemon's $(b,/metrics) endpoint: counters, \
               gauges and histograms in the text exposition format \
               Prometheus-style scrapers parse.")
      Term.(term_result (const run $ socket_opt $ out_opt))
end

let main =
  Cmd.group
    (Cmd.info "glcv" ~version:"1.0.0" ~exits:std_exits
       ~doc:"Logic analysis and verification of n-input genetic logic \
             circuits (Baig & Madsen, DATE 2017).")
    [
      list_cmd; lint_cmd; synth_cmd; simulate_cmd; analyze_cmd;
      verify_cmd; certify_cmd; ensemble_cmd; threshold_cmd; delay_cmd;
      export_cmd;
      vcd_cmd; probe_cmd; sweep_cmd; robustness_cmd; Campaign.group;
      Space.group; Serve.serve_cmd; Serve.submit_cmd; Serve.status_cmd;
      Serve.result_cmd; Serve.scrape_cmd;
    ]

(* term_err: every error but a converter failure (124) exits 123, the
   split [error_exits] documents on every manpage *)
let () = exit (Cmd.eval' ~term_err:Cmd.Exit.some_error main)
