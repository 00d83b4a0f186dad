module Xml = Glc_model.Xml

let role_to_string = function
  | Document.Promoter -> "promoter"
  | Document.Rbs -> "rbs"
  | Document.Cds -> "cds"
  | Document.Terminator -> "terminator"

let role_of_string = function
  | "promoter" -> Ok Document.Promoter
  | "rbs" -> Ok Document.Rbs
  | "cds" -> Ok Document.Cds
  | "terminator" -> Ok Document.Terminator
  | other -> Error (Printf.sprintf "unknown part role %S" other)

let to_xml (doc : Document.t) =
  let part (p : Document.dna_part) =
    Xml.element "part"
      ~attrs:
        [
          ("id", p.part_id);
          ("role", role_to_string p.part_role);
          ("name", p.part_name);
        ]
      []
  in
  let protein (p : Document.protein) =
    Xml.element "protein"
      ~attrs:
        [
          ("id", p.prot_id);
          ("name", p.prot_name);
          ("reporter", if p.prot_reporter then "true" else "false");
        ]
      []
  in
  let interaction = function
    | Document.Production { prom; prot } ->
        Xml.element "production"
          ~attrs:[ ("promoter", prom); ("protein", prot) ]
          []
    | Document.Repression { repressor; prom } ->
        Xml.element "repression"
          ~attrs:[ ("repressor", repressor); ("promoter", prom) ]
          []
    | Document.Activation { activator; prom } ->
        Xml.element "activation"
          ~attrs:[ ("activator", activator); ("promoter", prom) ]
          []
  in
  Xml.element "sbol"
    ~attrs:[ ("id", doc.doc_id) ]
    (List.map part doc.doc_parts
    @ List.map protein doc.doc_proteins
    @ List.map interaction doc.doc_interactions)

let to_string doc = Xml.to_string (to_xml doc)

let ( let* ) = Result.bind

let require_attr name node =
  match Xml.attr name node with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "missing attribute %S on <%s>" name
           (match Xml.tag node with Some t -> t | None -> "?"))

let collect f nodes =
  List.fold_left
    (fun acc n ->
      let* acc = acc in
      let* x = f n in
      Ok (x :: acc))
    (Ok []) nodes
  |> Result.map List.rev

let of_xml node =
  match node with
  | Xml.Element ("sbol", _, _) ->
      let id = Option.value ~default:"circuit" (Xml.attr "id" node) in
      let* parts =
        collect
          (fun n ->
            let* id = require_attr "id" n in
            let* role_s = require_attr "role" n in
            let* role = role_of_string role_s in
            let name = Option.value ~default:id (Xml.attr "name" n) in
            Ok (Document.part ~name role id))
          (Xml.childs "part" node)
      in
      let* proteins =
        collect
          (fun n ->
            let* id = require_attr "id" n in
            let name = Option.value ~default:id (Xml.attr "name" n) in
            let reporter =
              match Xml.attr "reporter" n with
              | Some "true" -> true
              | Some _ | None -> false
            in
            Ok (Document.protein ~name ~reporter id))
          (Xml.childs "protein" node)
      in
      let* productions =
        collect
          (fun n ->
            let* prom = require_attr "promoter" n in
            let* prot = require_attr "protein" n in
            Ok (Document.Production { prom; prot }))
          (Xml.childs "production" node)
      in
      let* repressions =
        collect
          (fun n ->
            let* repressor = require_attr "repressor" n in
            let* prom = require_attr "promoter" n in
            Ok (Document.Repression { repressor; prom }))
          (Xml.childs "repression" node)
      in
      let* activations =
        collect
          (fun n ->
            let* activator = require_attr "activator" n in
            let* prom = require_attr "promoter" n in
            Ok (Document.Activation { activator; prom }))
          (Xml.childs "activation" node)
      in
      let doc =
        {
          Document.doc_id = id;
          doc_parts = parts;
          doc_proteins = proteins;
          doc_interactions = productions @ repressions @ activations;
        }
      in
      (match Document.validate doc with
      | [] -> Ok doc
      | errs -> Error (String.concat "; " errs))
  | Xml.Element (tag, _, _) ->
      Error (Printf.sprintf "expected <sbol> root, found <%s>" tag)
  | Xml.Text _ -> Error "expected <sbol> root, found text"

let of_string s =
  let* xml = Xml.parse s in
  of_xml xml

let write_file path doc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string doc))

let read_file path =
  of_string (In_channel.with_open_bin path In_channel.input_all)
