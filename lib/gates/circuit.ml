module Document = Glc_sbol.Document
module To_model = Glc_sbol.To_model
module Truth_table = Glc_logic.Truth_table

type t = {
  name : string;
  document : Document.t;
  inputs : string array;
  output : string;
  expected : Truth_table.t;
  promoter_kinetics : (string * To_model.kinetics) list;
  regulator_affinity : (string * (float * float)) list;
}

let make ~name ~document ~inputs ~output ~expected ?(promoter_kinetics = [])
    ?(regulator_affinity = []) () =
  let fail fmt = Printf.ksprintf invalid_arg ("Circuit.make: " ^^ fmt) in
  Array.iter
    (fun i ->
      if Document.find_protein document i = None then
        fail "input %S is not a protein of %S" i document.doc_id)
    inputs;
  if Document.find_protein document output = None then
    fail "output %S is not a protein of %S" output document.doc_id;
  let doc_inputs = List.sort String.compare (Document.input_proteins document) in
  let declared = List.sort String.compare (Array.to_list inputs) in
  if doc_inputs <> declared then
    fail "inputs [%s] differ from the document's input proteins [%s]"
      (String.concat "; " declared)
      (String.concat "; " doc_inputs);
  if Truth_table.arity expected <> Array.length inputs then
    fail "expected table arity %d does not match %d inputs"
      (Truth_table.arity expected) (Array.length inputs);
  List.iter
    (fun (prom, _) ->
      match Document.find_part document prom with
      | Some { Document.part_role = Document.Promoter; _ } -> ()
      | Some _ | None -> fail "kinetics given for non-promoter %S" prom)
    promoter_kinetics;
  List.iter
    (fun (prot, _) ->
      if Document.find_protein document prot = None then
        fail "affinity given for unknown protein %S" prot)
    regulator_affinity;
  { name; document; inputs; output; expected; promoter_kinetics;
    regulator_affinity }

let arity c = Array.length c.inputs

let model ?degradation c =
  let kinetics prom =
    match List.assoc_opt prom c.promoter_kinetics with
    | Some k -> k
    | None -> To_model.default_kinetics
  in
  let affinity prot = List.assoc_opt prot c.regulator_affinity in
  let degradation =
    match degradation with Some d -> Some (fun _ -> d) | None -> None
  in
  To_model.convert ~kinetics ~affinity ?degradation c.document

let n_gates c =
  List.length
    (List.filter
       (function
         | Document.Production _ -> true
         | Document.Repression _ | Document.Activation _ -> false)
       c.document.doc_interactions)

let n_components c = List.length c.document.doc_parts

let input_value c ~row j =
  let n = arity c in
  (row lsr (n - 1 - j)) land 1 = 1

let row_of_inputs c values =
  if Array.length values <> arity c then
    invalid_arg "Circuit.row_of_inputs: wrong number of values";
  Array.fold_left
    (fun acc v -> (acc lsl 1) lor (if v then 1 else 0))
    0 values

