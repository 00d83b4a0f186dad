module Document = Glc_sbol.Document
module Netlist = Glc_logic.Netlist
module Truth_table = Glc_logic.Truth_table

let sensors n =
  Array.init n (fun j ->
      match j with
      | 0 -> "LacI"
      | 1 -> "TetR"
      | 2 -> "AraC"
      | _ -> Printf.sprintf "IN%d" (j + 1))

let netlist_inputs n =
  let s = sensors n in
  Array.init n (fun i -> s.(Truth_table.input_bit ~arity:n i))

let reporter = "YFP"

(* Sensor proteins bind their operators tightly (LacI's operator affinity
   is nanomolar), so a logic-1 input of only ~15 molecules switches the
   first gate layer decisively. *)
let sensor_affinity name =
  match name with
  | "LacI" -> (4.0, 2.8)
  | "TetR" -> (4.2, 3.0)
  | "AraC" -> (3.8, 2.6)
  | _ -> (4.0, 2.8)

type builder = {
  mutable parts : Document.dna_part list; (* reverse order *)
  mutable proteins : Document.protein list;
  mutable interactions : Document.interaction list;
  mutable kinetics : (string * Glc_sbol.To_model.kinetics) list;
  mutable pool : Repressor.t list; (* unassigned repressors *)
}

let next_repressor b ~circuit ~library_size =
  match b.pool with
  | [] ->
      invalid_arg
        (Printf.sprintf
           "Assembly: circuit %S needs more than the %d library repressors"
           circuit library_size)
  | r :: rest ->
      b.pool <- rest;
      r

(* Emits one transcription unit: promoter (with the gate's response
   parameters) repressed by [repressed_by], producing [prot]. *)
let emit_gate b ~kinetics ~prot ~repressed_by =
  let prom = "p" ^ prot in
  b.parts <-
    Document.part Document.Terminator ("ter_" ^ prot)
    :: Document.part Document.Cds ("cds_" ^ prot)
    :: Document.part Document.Promoter prom
    :: b.parts;
  if not (List.exists (fun (p : Document.protein) ->
              String.equal p.prot_id prot) b.proteins)
  then
    b.proteins <-
      Document.protein ~reporter:(String.equal prot reporter) prot
      :: b.proteins;
  b.interactions <-
    Document.Production { prom; prot }
    :: List.map
         (fun repressor -> Document.Repression { repressor; prom })
         (List.sort_uniq String.compare repressed_by)
    @ b.interactions;
  b.kinetics <- (prom, kinetics) :: b.kinetics

let of_netlist ?(library = Repressor.library) ~name ~expected
    (nl : Netlist.t) =
  let library_size = List.length library in
  let n = Array.length nl.Netlist.inputs in
  let sensor_names = sensors n in
  let wanted = netlist_inputs n in
  Array.iteri
    (fun i net ->
      let want = wanted.(i) in
      if not (String.equal net want) then
        invalid_arg
          (Printf.sprintf
             "Assembly.of_netlist: input net %d is %S, expected sensor %S" i
             net want))
    nl.Netlist.inputs;
  let b =
    {
      parts = [];
      proteins =
        List.rev
          (Array.to_list
             (Array.map (fun s -> Document.protein s) sensor_names));
      interactions = [];
      kinetics = [];
      pool = library;
    }
  in
  (* Maps each net to the protein carrying its signal. *)
  let protein_of = Hashtbl.create 16 in
  Array.iter (fun s -> Hashtbl.replace protein_of s s) sensor_names;
  let signal net =
    match Hashtbl.find_opt protein_of net with
    | Some p -> p
    | None -> assert false (* topological order guarantees definition *)
  in
  List.iter
    (fun (net, gate) ->
      let is_output = String.equal net nl.Netlist.output in
      let rep = next_repressor b ~circuit:name ~library_size in
      let prot = if is_output then reporter else rep.Repressor.rep_name in
      (match gate with
      | Netlist.Not a ->
          emit_gate b ~kinetics:rep.rep_kinetics ~prot
            ~repressed_by:[ signal a ]
      | Netlist.Nor (a, b') ->
          emit_gate b ~kinetics:rep.rep_kinetics ~prot
            ~repressed_by:[ signal a; signal b' ]
      | Netlist.Const true ->
          emit_gate b ~kinetics:rep.rep_kinetics ~prot ~repressed_by:[]
      | Netlist.Const false ->
          (* A constitutive repressor holding the output promoter off. *)
          let aux = next_repressor b ~circuit:name ~library_size in
          emit_gate b ~kinetics:aux.rep_kinetics
            ~prot:aux.Repressor.rep_name ~repressed_by:[];
          emit_gate b ~kinetics:rep.rep_kinetics ~prot
            ~repressed_by:[ aux.Repressor.rep_name ]);
      Hashtbl.replace protein_of net prot)
    nl.Netlist.gates;
  let output_protein = signal nl.Netlist.output in
  let document =
    Document.make ~id:name ~parts:(List.rev b.parts)
      ~proteins:(List.rev b.proteins)
      ~interactions:(List.rev b.interactions)
  in
  (* Binding affinities: tight constants for the sensors, each internal
     repressor's own (K, n) for the gates it feeds. *)
  let regulator_affinity =
    Array.to_list
      (Array.map (fun s -> (s, sensor_affinity s)) sensor_names)
    @ List.filter_map
        (fun (p : Document.protein) ->
          match
            List.find_opt
              (fun r -> String.equal r.Repressor.rep_name p.prot_id)
              library
          with
          | Some r ->
              Some
                (p.prot_id,
                 (r.Repressor.rep_kinetics.Glc_sbol.To_model.k,
                  r.Repressor.rep_kinetics.Glc_sbol.To_model.n))
          | None -> None)
        (List.rev b.proteins)
  in
  Circuit.make ~name ~document ~inputs:sensor_names ~output:output_protein
    ~expected ~promoter_kinetics:(List.rev b.kinetics) ~regulator_affinity ()

let synthesize ?library ~name tt =
  let inputs = netlist_inputs (Truth_table.arity tt) in
  let nl = Netlist.of_truth_table ~inputs tt in
  of_netlist ?library ~name ~expected:tt nl
