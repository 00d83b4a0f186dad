let sbml_ns = "http://www.sbml.org/sbml/level3/version1/core"
let mathml_ns = "http://www.w3.org/1998/Math/MathML"

(* ---- MathML writing ---- *)

let rec math_node (m : Math.t) : Xml.t =
  let apply op args = Xml.element "apply" (Xml.element op [] :: args) in
  match m with
  | Const c -> Xml.element "cn" [ Xml.text (Printf.sprintf "%.17g" c) ]
  | Ident x -> Xml.element "ci" [ Xml.text x ]
  | Neg a -> apply "minus" [ math_node a ]
  | Add (a, b) -> apply "plus" [ math_node a; math_node b ]
  | Sub (a, b) -> apply "minus" [ math_node a; math_node b ]
  | Mul (a, b) -> apply "times" [ math_node a; math_node b ]
  | Div (a, b) -> apply "divide" [ math_node a; math_node b ]
  | Pow (a, b) -> apply "power" [ math_node a; math_node b ]
  | Min (a, b) -> apply "min" [ math_node a; math_node b ]
  | Max (a, b) -> apply "max" [ math_node a; math_node b ]
  | Exp a -> apply "exp" [ math_node a ]
  | Ln a -> apply "ln" [ math_node a ]

let math_to_xml m =
  Xml.element ~attrs:[ ("xmlns", mathml_ns) ] "math" [ math_node m ]

(* ---- MathML reading ---- *)

let ( let* ) = Result.bind

let rec math_of_node node =
  match node with
  | Xml.Text t -> Error (Printf.sprintf "unexpected text %S in MathML" t)
  | Xml.Element ("cn", _, _) -> (
      let s = Xml.text_content node in
      match float_of_string_opt s with
      | Some c -> Ok (Math.Const c)
      | None -> Error (Printf.sprintf "invalid <cn> constant %S" s))
  | Xml.Element ("ci", _, _) -> Ok (Math.Ident (Xml.text_content node))
  | Xml.Element ("apply", _, op :: args) -> (
      let* args =
        List.fold_left
          (fun acc a ->
            let* acc = acc in
            let* a = math_of_node a in
            Ok (a :: acc))
          (Ok []) args
      in
      let args = List.rev args in
      let binary_chain mk = function
        | a :: b :: rest ->
            Ok (List.fold_left (fun acc x -> mk acc x) (mk a b) rest)
        | _ -> Error "MathML apply needs at least two operands"
      in
      match (Xml.tag op, args) with
      | Some "plus", args -> binary_chain (fun a b -> Math.Add (a, b)) args
      | Some "times", args -> binary_chain (fun a b -> Math.Mul (a, b)) args
      | Some "minus", [ a ] -> Ok (Math.Neg a)
      | Some "minus", args -> binary_chain (fun a b -> Math.Sub (a, b)) args
      | Some "divide", args -> binary_chain (fun a b -> Math.Div (a, b)) args
      | Some "power", args -> binary_chain (fun a b -> Math.Pow (a, b)) args
      | Some "min", args -> binary_chain (fun a b -> Math.Min (a, b)) args
      | Some "max", args -> binary_chain (fun a b -> Math.Max (a, b)) args
      | Some "exp", [ a ] -> Ok (Math.Exp a)
      | Some "ln", [ a ] -> Ok (Math.Ln a)
      | Some other, _ ->
          Error (Printf.sprintf "unsupported MathML operator <%s>" other)
      | None, _ -> Error "missing MathML operator in <apply>")
  | Xml.Element ("apply", _, []) -> Error "empty MathML <apply>"
  | Xml.Element (tag, _, _) ->
      Error (Printf.sprintf "unsupported MathML element <%s>" tag)

let math_of_xml node =
  match node with
  | Xml.Element ("math", _, [ body ]) -> math_of_node body
  | Xml.Element ("math", _, _) ->
      Error "<math> must contain exactly one expression"
  | Xml.Element (tag, _, _) ->
      Error (Printf.sprintf "expected <math>, found <%s>" tag)
  | Xml.Text _ -> Error "expected <math>, found text"

(* ---- model writing ---- *)

let bool_attr b = if b then "true" else "false"

let species_node (s : Model.species) =
  Xml.element "species"
    ~attrs:
      [
        ("id", s.s_id);
        ("name", s.s_name);
        ("compartment", "cell");
        ("initialAmount", Printf.sprintf "%.17g" s.s_initial);
        ("hasOnlySubstanceUnits", "true");
        ("boundaryCondition", bool_attr s.s_boundary);
        ("constant", "false");
      ]
    []

let parameter_node (p : Model.parameter) =
  Xml.element "parameter"
    ~attrs:
      [
        ("id", p.p_id);
        ("value", Printf.sprintf "%.17g" p.p_value);
        ("constant", "true");
      ]
    []

let species_ref (id, st) =
  Xml.element "speciesReference"
    ~attrs:
      [
        ("species", id);
        ("stoichiometry", string_of_int st);
        ("constant", "true");
      ]
    []

let modifier_ref id =
  Xml.element "modifierSpeciesReference" ~attrs:[ ("species", id) ] []

let reaction_node (r : Model.reaction) =
  let side tag refs mk =
    if refs = [] then [] else [ Xml.element tag (List.map mk refs) ]
  in
  Xml.element "reaction"
    ~attrs:[ ("id", r.r_id); ("reversible", "false"); ("fast", "false") ]
    (side "listOfReactants" r.r_reactants species_ref
    @ side "listOfProducts" r.r_products species_ref
    @ side "listOfModifiers" r.r_modifiers modifier_ref
    @ [ Xml.element "kineticLaw" [ math_to_xml r.r_rate ] ])

let to_xml (m : Model.t) =
  Xml.element "sbml"
    ~attrs:[ ("xmlns", sbml_ns); ("level", "3"); ("version", "1") ]
    [
      Xml.element "model"
        ~attrs:[ ("id", m.m_id) ]
        [
          Xml.element "listOfCompartments"
            [
              Xml.element "compartment"
                ~attrs:
                  [ ("id", "cell"); ("size", "1"); ("constant", "true") ]
                [];
            ];
          Xml.element "listOfSpecies" (List.map species_node m.m_species);
          Xml.element "listOfParameters"
            (List.map parameter_node m.m_parameters);
          Xml.element "listOfReactions" (List.map reaction_node m.m_reactions);
        ];
    ]

let to_string m = Xml.to_string (to_xml m)

(* ---- model reading ---- *)

let require_attr name node =
  match Xml.attr name node with
  | Some v -> Ok v
  | None ->
      Error
        (Printf.sprintf "missing attribute %S on <%s>" name
           (match Xml.tag node with Some t -> t | None -> "?"))

let float_attr name node =
  let* v = require_attr name node in
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "attribute %s=%S is not a number" name v)

let species_of_node node =
  let* id = require_attr "id" node in
  let* initial = float_attr "initialAmount" node in
  let boundary =
    match Xml.attr "boundaryCondition" node with
    | Some "true" -> true
    | Some _ | None -> false
  in
  let name = match Xml.attr "name" node with Some n -> n | None -> id in
  Ok (Model.species ~name ~boundary id initial)

let parameter_of_node node =
  let* id = require_attr "id" node in
  let* value = float_attr "value" node in
  Ok (Model.parameter id value)

let species_ref_of_node node =
  let* id = require_attr "species" node in
  let st =
    match Xml.attr "stoichiometry" node with
    | Some v -> (
        match float_of_string_opt v with
        | Some f when Float.is_integer f -> Ok (int_of_float f)
        | Some _ | None ->
            Error (Printf.sprintf "non-integer stoichiometry %S" v))
    | None -> Ok 1
  in
  let* st = st in
  Ok (id, st)

let collect f nodes =
  List.fold_left
    (fun acc n ->
      let* acc = acc in
      let* x = f n in
      Ok (x :: acc))
    (Ok []) nodes
  |> Result.map List.rev

let reaction_of_node node =
  let* id = require_attr "id" node in
  let side tag =
    match Xml.child tag node with
    | None -> Ok []
    | Some l -> collect species_ref_of_node (Xml.childs "speciesReference" l)
  in
  let* reactants = side "listOfReactants" in
  let* products = side "listOfProducts" in
  let* modifiers =
    match Xml.child "listOfModifiers" node with
    | None -> Ok []
    | Some l ->
        collect
          (fun n -> require_attr "species" n)
          (Xml.childs "modifierSpeciesReference" l)
  in
  let* rate =
    match Xml.child "kineticLaw" node with
    | None -> Error (Printf.sprintf "reaction %S has no kinetic law" id)
    | Some kl -> (
        match Xml.child "math" kl with
        | None -> Error (Printf.sprintf "reaction %S has no <math>" id)
        | Some math -> math_of_xml math)
  in
  Ok (Model.reaction ~reactants ~products ~modifiers ~rate id)

let of_xml node =
  match node with
  | Xml.Element ("sbml", _, _) -> (
      match Xml.child "model" node with
      | None -> Error "no <model> element in <sbml>"
      | Some model_node ->
          let id =
            match Xml.attr "id" model_node with Some i -> i | None -> "model"
          in
          let list_of tag item_tag f =
            match Xml.child tag model_node with
            | None -> Ok []
            | Some l -> collect f (Xml.childs item_tag l)
          in
          let* species = list_of "listOfSpecies" "species" species_of_node in
          let* parameters =
            list_of "listOfParameters" "parameter" parameter_of_node
          in
          let* reactions =
            list_of "listOfReactions" "reaction" reaction_of_node
          in
          let m =
            {
              Model.m_id = id;
              m_species = species;
              m_parameters = parameters;
              m_reactions = reactions;
            }
          in
          (match Model.validate m with
          | [] -> Ok m
          | errs -> Error (String.concat "; " errs)))
  | Xml.Element (tag, _, _) ->
      Error (Printf.sprintf "expected <sbml> root, found <%s>" tag)
  | Xml.Text _ -> Error "expected <sbml> root, found text"

let of_string s =
  let* xml = Xml.parse s in
  of_xml xml

let write_file path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))

let read_file path =
  of_string (In_channel.with_open_bin path In_channel.input_all)
