(* Generates MODELS.md — the reference table of the bundled model
   files — from the benchmark registry and the files themselves, so the
   document can never drift from the code. Run with --check to verify
   freshness (CI does); any other invocation rewrites the file.

   With --atlas the same freshness contract covers ATLAS.md: the
   markdown is re-rendered from the committed SPACE.json through
   Glc_space.Atlas.markdown — the exact renderer `glcv space report`
   uses — so the two can never drift either.

   Usage: gen_models_doc.exe [--check] [PATH]   (PATH default: MODELS.md)
          gen_models_doc.exe --atlas SPACE.json [--check] [PATH]
                                                (PATH default: ATLAS.md) *)

module Benchmarks = Glc_gates.Benchmarks
module Circuit = Glc_gates.Circuit
module Sbml = Glc_model.Sbml
module Qm = Glc_logic.Qm
module Expr = Glc_logic.Expr
module Lint = Glc_lint.Lint
module Diagnostic = Glc_lint.Diagnostic

let models_dir = "models"

(* Paper-style expression: bit [i] of a truth-table row belongs to
   input [n-1-i] (see the convention note in Circuit). *)
let expression c =
  let n = Array.length c.Circuit.inputs in
  let bit_names = Array.init n (fun i -> c.Circuit.inputs.(n - 1 - i)) in
  Format.asprintf "%s = %a" c.Circuit.output Expr.pp
    (Qm.to_expr ~inputs:bit_names c.Circuit.expected)

let lint_status paths =
  let report = Lint.files paths in
  let ds = List.concat_map (fun fr -> fr.Lint.fr_diagnostics) report in
  match (Diagnostic.errors ds, Diagnostic.warnings ds) with
  | 0, 0 -> "clean"
  | e, 0 -> Printf.sprintf "%d error(s)" e
  | 0, w -> Printf.sprintf "%d warning(s)" w
  | e, w -> Printf.sprintf "%d error(s), %d warning(s)" e w

let row c =
  let name = c.Circuit.name in
  let sbml = Filename.concat models_dir (name ^ ".sbml.xml") in
  let sbol = Filename.concat models_dir (name ^ ".sbol.xml") in
  let n_species, n_reactions =
    match Sbml.read_file sbml with
    | Ok m ->
        ( List.length m.Glc_model.Model.m_species,
          List.length m.Glc_model.Model.m_reactions )
    | Error e -> failwith (Printf.sprintf "%s: %s" sbml e)
  in
  Printf.sprintf "| `%s` | %d | %d | %d | %d | %d | `%s` | %s |" name
    (Circuit.arity c) (Circuit.n_gates c)
    (Circuit.n_components c)
    n_species n_reactions (expression c)
    (lint_status [ sbml; sbol ])

let generate () =
  let circuits = Benchmarks.all () in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Bundled models\n\n";
  add
    "<!-- Generated by tools/gen_models_doc.exe — do not edit by hand.\n\
    \     Regenerate with: dune exec tools/gen_models_doc.exe -->\n\n";
  add
    "The `models/` directory ships the paper's 15-circuit evaluation \
     set\n\
     (five book circuits, ten Cello circuits) as %d files: one kinetic\n\
     SBML model (`NAME.sbml.xml`) and one structural SBOL document\n\
     (`NAME.sbol.xml`) per circuit, exported from the benchmark \
     registry\n\
     (`Glc_gates.Benchmarks`). The expected expression is the \
     minimised\n\
     sum-of-products of the circuit's intended truth table \
     (Quine–McCluskey,\n\
     `Glc_logic.Qm`), written in the paper's input order. The lint \
     column\n\
     is `glcv lint` on the file pair at the default threshold.\n\n"
    (2 * List.length circuits);
  add
    "| Circuit | Inputs | Gates | Components | Species | Reactions | \
     Expected logic | Lint |\n";
  add "|---|---|---|---|---|---|---|---|\n";
  List.iter (fun c -> add "%s\n" (row c)) circuits;
  add "\nColumns: **Inputs** — sensor proteins; **Gates** — \
       transcription units; **Components** — DNA parts in the SBOL \
       document; **Species**/**Reactions** — size of the generated \
       kinetic model.\n";
  Buffer.contents buf

let () =
  let check = Array.exists (( = ) "--check") Sys.argv in
  let args =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> a <> "--check")
  in
  let atlas_json, args =
    match args with
    | "--atlas" :: json :: rest -> (Some json, rest)
    | _ -> (None, args)
  in
  let path =
    match (args, atlas_json) with
    | [ p ], _ -> p
    | [], None -> "MODELS.md"
    | [], Some _ -> "ATLAS.md"
    | _ ->
        failwith
          "usage: gen_models_doc.exe [--atlas SPACE.json] [--check] [PATH]"
  in
  let fresh =
    match atlas_json with
    | None -> generate ()
    | Some json -> (
        match
          Glc_space.Atlas.markdown
            (In_channel.with_open_bin json In_channel.input_all)
        with
        | Ok md -> md
        | Error e -> failwith (Printf.sprintf "%s: %s" json e))
  in
  if check then
    let stale =
      (not (Sys.file_exists path))
      || In_channel.with_open_bin path In_channel.input_all <> fresh
    in
    if stale then begin
      Printf.eprintf
        "%s is stale; regenerate with: dune exec \
         tools/gen_models_doc.exe%s\n"
        path
        (match atlas_json with
        | None -> ""
        | Some json -> Printf.sprintf " -- --atlas %s %s" json path);
      exit 1
    end
    else print_endline (path ^ " is up to date")
  else begin
    let oc = open_out_bin path in
    output_string oc fresh;
    close_out oc;
    Printf.printf "wrote %s\n" path
  end
