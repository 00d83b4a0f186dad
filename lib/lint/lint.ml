module Model = Glc_model.Model
module Math = Glc_model.Math
module Compiled = Glc_ssa.Compiled
module Document = Glc_sbol.Document
module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Truth_table = Glc_logic.Truth_table
module Netlist = Glc_logic.Netlist
module Metrics = Glc_obs.Metrics
module Interval = Glc_symbolic.Interval
module D = Diagnostic

type check = {
  ck_code : string;
  ck_severity : D.severity;
  ck_title : string;
  ck_doc : string;
}

let catalogue =
  [
    {
      ck_code = "GLC001";
      ck_severity = D.Error;
      ck_title = "ill-formed model or document";
      ck_doc =
        "structural validation failed (duplicate ids, undeclared \
         references, bad stoichiometry, negative initial amounts, or an \
         unreadable input file)";
    };
    {
      ck_code = "GLC002";
      ck_severity = D.Error;
      ck_title = "unproducible species";
      ck_doc =
        "a non-boundary species with initial amount 0 that no fireable \
         reaction produces can never become positive; an error when it \
         is the circuit output";
    };
    {
      ck_code = "GLC003";
      ck_severity = D.Warning;
      ck_title = "unreachable reaction";
      ck_doc =
        "the reaction can never fire: a reactant is provably stuck at \
         zero, or its propensity is identically zero";
    };
    {
      ck_code = "GLC004";
      ck_severity = D.Warning;
      ck_title = "inert reaction";
      ck_doc =
        "every reactant and product is a boundary species, so firings \
         change nothing while still consuming SSA steps";
    };
    {
      ck_code = "GLC005";
      ck_severity = D.Error;
      ck_title = "output bounded below threshold";
      ck_doc =
        "a conservation law bounds the output's copy number below the \
         logic threshold, so it can never digitise high and \
         verification is guaranteed to fail";
    };
    {
      ck_code = "GLC006";
      ck_severity = D.Warning;
      ck_title = "kinetic-law sanity";
      ck_doc =
        "a propensity is negative or not finite at the initial state";
    };
    {
      ck_code = "GLC007";
      ck_severity = D.Info;
      ck_title = "unused parameter";
      ck_doc = "the parameter is referenced by no kinetic law";
    };
    {
      ck_code = "GLC008";
      ck_severity = D.Error;
      ck_title = "arity mismatch";
      ck_doc =
        "the expected truth table, the declared inputs, the document's \
         input proteins or a netlist's tabulation disagree on the \
         circuit's logic or arity";
    };
    {
      ck_code = "GLC009";
      ck_severity = D.Warning;
      ck_title = "constant expected logic";
      ck_doc =
        "the intended truth table is constant; verification is trivial";
    };
    {
      ck_code = "GLC010";
      ck_severity = D.Error;
      ck_title = "SBML/SBOL cross-document mismatch";
      ck_doc =
        "the structural document and the kinetic model disagree: a \
         protein without a species, an input protein that is not a \
         boundary species, or a production interaction with no \
         producing reaction";
    };
    {
      ck_code = "GLC011";
      ck_severity = D.Error;
      ck_title = "protocol sanity";
      ck_doc =
        "the D-VASim protocol cannot exercise the circuit: hold slots \
         shorter than the sampling step, a horizon too short for every \
         input combination, or input drive inconsistent with the \
         threshold";
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metrics plumbing                                                    *)

let record metrics ~checks ds =
  if Metrics.enabled metrics then begin
    Metrics.Counter.add (Metrics.counter metrics "lint.checks_run") checks;
    Metrics.Counter.add
      (Metrics.counter metrics "lint.diagnostics")
      (List.length ds);
    Metrics.Counter.add (Metrics.counter metrics "lint.errors") (D.errors ds);
    Metrics.Counter.add
      (Metrics.counter metrics "lint.warnings")
      (D.warnings ds)
  end;
  List.stable_sort D.compare ds

(* ------------------------------------------------------------------ *)
(* Reachability: which species can ever become positive, and which
   reactions can ever fire. The fixed point starts from boundary
   species (the virtual laboratory may drive them) and positive initial
   amounts; a reaction is fireable once every reactant may be positive
   and its propensity is not provably zero, and firing makes its
   products reachable. Zero-propagation over the kinetic law is the
   degenerate [0,0] case of the symbolic interval domain
   ({!Glc_symbolic.Interval}): a stuck species is exactly [0,0], a
   maybe-positive species any admissible amount, a parameter its point
   value — a propensity is provably zero iff its interval is [0,0]
   whatever the maybe-positive species do (the domain's [0/0 = 0]
   convention matches the simulator clamping propensities at zero). *)

let reachability (m : Model.t) =
  let positive = Hashtbl.create 16 in
  List.iter
    (fun (s : Model.species) ->
      if s.s_boundary || s.s_initial > 0. then
        Hashtbl.replace positive s.s_id ())
    m.m_species;
  (* the closure reads [positive] live, so the interval environment
     sharpens as the fixed point grows — exactly like the bespoke
     zero-propagation predicate it replaces *)
  let lookup id =
    match Model.parameter_value m id with
    | Some v -> Interval.point v
    | None ->
        if Hashtbl.mem positive id then Interval.top else Interval.zero
  in
  let zero e = Interval.is_zero (Interval.eval ~lookup e) in
  let enabled = Hashtbl.create 16 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (r : Model.reaction) ->
        if not (Hashtbl.mem enabled r.r_id) then begin
          let reactants_ok =
            List.for_all (fun (id, _) -> Hashtbl.mem positive id) r.r_reactants
          in
          if reactants_ok && not (zero r.r_rate) then begin
            Hashtbl.replace enabled r.r_id ();
            List.iter
              (fun (id, _) ->
                if not (Hashtbl.mem positive id) then
                  Hashtbl.replace positive id ())
              r.r_products;
            changed := true
          end
        end)
      m.m_reactions
  done;
  (positive, enabled)

(* ------------------------------------------------------------------ *)
(* Conservation bounds (GLC005). Two invariant families cover the
   common genetic motifs (a sequestered reporter, a toggling pair):
   a species no reaction changes is bounded by its initial amount, and
   a pair whose per-reaction deltas cancel is bounded by the pair's
   total initial amount. Boundary species are excluded: their deltas
   are dropped at compile time, so they absorb no conserved mass. *)

let conservation_bound (m : Model.t) out_id =
  let delta (r : Model.reaction) id =
    let sum sign =
      List.fold_left (fun acc (i, st) -> if i = id then acc + (sign * st) else acc)
    in
    sum 1 (sum (-1) 0 r.r_reactants) r.r_products
  in
  let initial id =
    match Model.find_species m id with
    | Some s -> s.Model.s_initial
    | None -> 0.
  in
  let out_deltas = List.map (fun r -> delta r out_id) m.m_reactions in
  let bounds = ref [] in
  if List.for_all (( = ) 0) out_deltas then
    bounds := (initial out_id, [ out_id ]) :: !bounds;
  List.iter
    (fun (s : Model.species) ->
      if (not (String.equal s.s_id out_id)) && not s.s_boundary then begin
        let ds = List.map (fun r -> delta r s.s_id) m.m_reactions in
        if
          List.exists (( <> ) 0) out_deltas
          && List.for_all2 (fun a b -> a + b = 0) out_deltas ds
        then
          bounds :=
            (initial out_id +. initial s.s_id, [ out_id; s.s_id ]) :: !bounds
      end)
    m.m_species;
  match !bounds with
  | [] -> None
  | bs ->
      Some
        (List.fold_left
           (fun (b, ids) (b', ids') -> if b' < b then (b', ids') else (b, ids))
           (List.hd bs) (List.tl bs))

(* ------------------------------------------------------------------ *)
(* Model checks: GLC001 .. GLC007                                      *)

let diag_of_issue (m : Model.t) (i : Model.issue) =
  let subject =
    match i.Model.i_subject with
    | `Model -> D.Model m.m_id
    | `Species id -> D.Species id
    | `Parameter id -> D.Parameter id
    | `Reaction id -> D.Reaction id
  in
  D.make ~code:"GLC001" ~severity:D.Error ~subject i.Model.i_message

let n_model_checks = 7

let model ?(threshold = Protocol.default.Protocol.threshold) ?output
    ?(metrics = Metrics.noop) (m : Model.t) =
  match Model.validate_issues m with
  | _ :: _ as issues ->
      (* the remaining analyses need a well-formed, compilable model *)
      record metrics ~checks:1 (List.map (diag_of_issue m) issues)
  | [] ->
      let compiled = Compiled.compile m in
      let positive, enabled = reachability m in
      let ds = ref [] in
      let add code severity subject fmt =
        Printf.ksprintf
          (fun msg -> ds := D.make ~code ~severity ~subject msg :: !ds)
          fmt
      in
      (* GLC002: species that can never become positive *)
      List.iter
        (fun (s : Model.species) ->
          if (not s.s_boundary) && not (Hashtbl.mem positive s.s_id) then
            if output = Some s.s_id then
              add "GLC002" D.Error (D.Species s.s_id)
                "output species %S can never become positive: its initial \
                 amount is 0 and no reaction that can fire produces it — \
                 it never digitises high, so verification is guaranteed \
                 to fail"
                s.s_id
            else
              add "GLC002" D.Warning (D.Species s.s_id)
                "species %S can never become positive: its initial amount \
                 is 0 and no reaction that can fire produces it"
                s.s_id)
        m.m_species;
      (* GLC003: reactions that can never fire *)
      List.iter
        (fun (r : Model.reaction) ->
          if not (Hashtbl.mem enabled r.r_id) then begin
            match
              List.find_opt
                (fun (id, _) -> not (Hashtbl.mem positive id))
                r.r_reactants
            with
            | Some (id, _) ->
                add "GLC003" D.Warning (D.Reaction r.r_id)
                  "reaction %S can never fire: its reactant %S can never \
                   become positive"
                  r.r_id id
            | None ->
                add "GLC003" D.Warning (D.Reaction r.r_id)
                  "reaction %S can never fire: its propensity is \
                   identically zero"
                  r.r_id
          end)
        m.m_reactions;
      (* GLC004: reactions that fire but change nothing *)
      List.iter
        (fun id ->
          if Hashtbl.mem enabled id then
            add "GLC004" D.Warning (D.Reaction id)
              "reaction %S changes no state when it fires (every reactant \
               and product is a boundary species) — it only burns SSA \
               steps"
              id)
        (Compiled.inert_reactions compiled);
      (* GLC005: conservation law pins the output below the threshold *)
      (match output with
      | Some out_id
        when Hashtbl.mem positive out_id
             && (match Model.find_species m out_id with
                | Some s -> not s.Model.s_boundary
                | None -> false) -> (
          match conservation_bound m out_id with
          | Some (bound, ids) when bound < threshold ->
              add "GLC005" D.Error (D.Species out_id)
                "output species %S is bounded above by %g molecules by a \
                 conservation law (%s is invariant) and can never reach \
                 the logic threshold %g — verification is guaranteed to \
                 fail"
                out_id bound
                (String.concat " + " ids)
                threshold
          | Some _ | None -> ())
      | Some _ | None -> ());
      (* GLC006: propensity sanity at the initial state *)
      let lookup id =
        match Model.find_species m id with
        | Some s -> s.Model.s_initial
        | None -> (
            match Model.parameter_value m id with
            | Some v -> v
            | None -> raise Not_found)
      in
      List.iter
        (fun (r : Model.reaction) ->
          let v = Math.eval ~lookup r.r_rate in
          if not (Float.is_finite v) then
            add "GLC006" D.Warning (D.Reaction r.r_id)
              "the propensity of reaction %S is not finite (%g) at the \
               initial state"
              r.r_id v
          else if v < 0. then
            add "GLC006" D.Warning (D.Reaction r.r_id)
              "the propensity of reaction %S is negative (%g) at the \
               initial state; the simulator clamps it to zero"
              r.r_id v)
        m.m_reactions;
      (* GLC007: parameters no kinetic law references *)
      let used = Hashtbl.create 16 in
      List.iter
        (fun (r : Model.reaction) ->
          List.iter
            (fun id -> Hashtbl.replace used id ())
            (Math.idents r.r_rate))
        m.m_reactions;
      List.iter
        (fun (p : Model.parameter) ->
          if not (Hashtbl.mem used p.p_id) then
            add "GLC007" D.Info (D.Parameter p.p_id)
              "parameter %S is referenced by no kinetic law" p.p_id)
        m.m_parameters;
      record metrics ~checks:n_model_checks (List.rev !ds)

(* ------------------------------------------------------------------ *)
(* Document, cross-document, protocol, netlist and circuit checks      *)

let document ?(metrics = Metrics.noop) (doc : Document.t) =
  record metrics ~checks:1
    (List.map
       (fun msg ->
         D.make ~code:"GLC001" ~severity:D.Error ~subject:(D.Document doc.doc_id)
           msg)
       (Document.validate doc))

let cross ?(metrics = Metrics.noop) ~(model : Model.t) (doc : Document.t) =
  let ds = ref [] in
  let add severity subject fmt =
    Printf.ksprintf
      (fun msg -> ds := D.make ~code:"GLC010" ~severity ~subject msg :: !ds)
      fmt
  in
  let inputs = Document.input_proteins doc in
  List.iter
    (fun (p : Document.protein) ->
      match Model.find_species model p.prot_id with
      | None ->
          add D.Error (D.Protein p.prot_id)
            "protein %S has no species in the kinetic model" p.prot_id
      | Some s ->
          if List.mem p.prot_id inputs && not s.Model.s_boundary then
            add D.Error (D.Protein p.prot_id)
              "input protein %S is not a boundary species in the model — \
               the virtual laboratory cannot drive it"
              p.prot_id)
    doc.doc_proteins;
  List.iter
    (function
      | Document.Production { prom; prot } ->
          let produced =
            List.exists
              (fun (r : Model.reaction) ->
                List.exists (fun (id, _) -> String.equal id prot) r.r_products)
              model.m_reactions
          in
          if not produced then
            add D.Error (D.Promoter prom)
              "promoter %S produces protein %S in the document, but no \
               reaction in the model produces it"
              prom prot
      | Document.Repression _ | Document.Activation _ -> ())
    doc.doc_interactions;
  if not (String.equal doc.doc_id model.m_id) then
    add D.Info (D.Document doc.doc_id)
      "document id %S differs from the model id %S" doc.doc_id model.m_id;
  record metrics ~checks:1 (List.rev !ds)

let protocol ?(metrics = Metrics.noop) ~arity (p : Protocol.t) =
  let ds = ref [] in
  let add subject fmt =
    Printf.ksprintf
      (fun msg ->
        ds := D.make ~code:"GLC011" ~severity:D.Error ~subject msg :: !ds)
      fmt
  in
  if p.Protocol.hold_time < p.Protocol.dt then
    add (D.Protocol "hold_time")
      "hold slots (%g t.u.) are shorter than the sampling step dt = %g — \
       no slot contains a settled sample"
      p.Protocol.hold_time p.Protocol.dt;
  if not (Protocol.covers_all_rows p ~arity) then
    add (D.Protocol "total_time")
      "total_time %g gives %d hold slot(s) of %g t.u. — fewer than the %d \
       input combinations of a %d-input circuit, so the truth table is \
       never fully exercised"
      p.Protocol.total_time (Protocol.slots p) p.Protocol.hold_time
      (1 lsl arity) arity;
  if p.Protocol.input_high < p.Protocol.threshold then
    add (D.Protocol "input_high")
      "logic-1 inputs are applied at %g molecules, below the logic \
       threshold %g — driven inputs can never digitise high"
      p.Protocol.input_high p.Protocol.threshold;
  if p.Protocol.input_low >= p.Protocol.threshold then
    add (D.Protocol "input_low")
      "logic-0 inputs are applied at %g molecules, at or above the logic \
       threshold %g — undriven inputs digitise high"
      p.Protocol.input_low p.Protocol.threshold;
  record metrics ~checks:1 (List.rev !ds)

let netlist ?(metrics = Metrics.noop) ~expected (nl : Netlist.t) =
  let ds = ref [] in
  let arity = Truth_table.arity expected in
  let n_inputs = Array.length nl.Netlist.inputs in
  if n_inputs <> arity then
    ds :=
      [
        D.make ~code:"GLC008" ~severity:D.Error ~subject:(D.Net nl.Netlist.output)
          (Printf.sprintf
             "the netlist has %d input(s) but the intended truth table has \
              arity %d"
             n_inputs arity);
      ]
  else begin
    let got = Netlist.to_truth_table nl in
    if not (Truth_table.equal got expected) then
      ds :=
        [
          D.make ~code:"GLC008" ~severity:D.Error
            ~subject:(D.Net nl.Netlist.output)
            (Format.asprintf
               "the netlist computes %a but the intended table is %a"
               Truth_table.pp_code got Truth_table.pp_code expected);
        ]
  end;
  record metrics ~checks:1 !ds

let n_circuit_checks = 2

(* [circuit]'s optional argument shadows the [protocol] check; keep a
   callable alias *)
let protocol_checks = protocol

let circuit ?(protocol = Protocol.default) ?(metrics = Metrics.noop)
    (c : Circuit.t) =
  let arity = Circuit.arity c in
  let ds = ref [] in
  let add code severity fmt =
    Printf.ksprintf
      (fun msg ->
        ds :=
          D.make ~code ~severity ~subject:(D.Circuit c.Circuit.name) msg :: !ds)
      fmt
  in
  (* GLC008: expected table vs declared inputs vs document inputs *)
  if Truth_table.arity c.Circuit.expected <> Array.length c.Circuit.inputs then
    add "GLC008" D.Error
      "circuit %S declares %d input(s) but its expected truth table has \
       arity %d"
      c.Circuit.name
      (Array.length c.Circuit.inputs)
      (Truth_table.arity c.Circuit.expected);
  let doc_inputs = List.sort String.compare (Document.input_proteins c.Circuit.document) in
  let decl_inputs =
    List.sort String.compare (Array.to_list c.Circuit.inputs)
  in
  if doc_inputs <> decl_inputs then
    add "GLC008" D.Error
      "circuit %S declares inputs {%s} but the document's input proteins \
       are {%s}"
      c.Circuit.name
      (String.concat ", " decl_inputs)
      (String.concat ", " doc_inputs);
  (* GLC009: constant intended logic *)
  (match Truth_table.is_constant c.Circuit.expected with
  | Some b ->
      add "GLC009" D.Warning
        "circuit %S has a constant expected logic (always %b) — \
         verification is trivial"
        c.Circuit.name b
  | None -> ());
  let m = Circuit.model c in
  let sub =
    model ~threshold:protocol.Protocol.threshold ~output:c.Circuit.output
      ~metrics m
    @ document ~metrics c.Circuit.document
    @ cross ~metrics ~model:m c.Circuit.document
    @ protocol_checks ~metrics ~arity protocol
  in
  List.stable_sort D.compare
    (record metrics ~checks:n_circuit_checks (List.rev !ds) @ sub)

(* ------------------------------------------------------------------ *)
(* File-level linting                                                  *)

type file_report = { fr_path : string; fr_diagnostics : D.t list }

let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_error path msg =
  D.make ~code:"GLC001" ~severity:D.Error ~subject:(D.File path)
    (Printf.sprintf "cannot read %s: %s" path msg)

(* basename grouping: NAME.sbml.xml and NAME.sbol.xml are one lint
   group and get the cross checks *)
let group_key path =
  if Filename.check_suffix path ".sbml.xml" then
    Some (Filename.chop_suffix path ".sbml.xml")
  else if Filename.check_suffix path ".sbol.xml" then
    Some (Filename.chop_suffix path ".sbol.xml")
  else None

let files ?threshold ?(metrics = Metrics.noop) paths =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  let note key path kind =
    let sbml, sbol =
      match Hashtbl.find_opt groups key with
      | Some pair -> pair
      | None ->
          order := key :: !order;
          (None, None)
    in
    let pair =
      match kind with
      | `Sbml -> (Some path, sbol)
      | `Sbol -> (sbml, Some path)
    in
    Hashtbl.replace groups key pair
  in
  List.iter
    (fun path ->
      match group_key path with
      | Some key ->
          note key path
            (if Filename.check_suffix path ".sbml.xml" then `Sbml else `Sbol)
      | None -> (
          (* sniff: SBML first, then SBOL *)
          match Glc_model.Sbml.of_string (try read_text path with Sys_error e -> e) with
          | Ok _ -> note path path `Sbml
          | Error _ -> note path path `Sbol))
    paths;
  if Metrics.enabled metrics then
    Metrics.Counter.add (Metrics.counter metrics "lint.files") (List.length paths);
  List.rev_map
    (fun key ->
      let sbml_path, sbol_path = Hashtbl.find groups key in
      let parse reader path =
        match path with
        | None -> (None, [])
        | Some path -> (
            match
              (try reader path with Sys_error e -> Error e)
            with
            | Ok v -> (Some v, [])
            | Error e -> (None, [ parse_error path e ]))
      in
      let m, sbml_errs = parse Glc_model.Sbml.read_file sbml_path in
      let doc, sbol_errs = parse Glc_sbol.Sbol_xml.read_file sbol_path in
      let output =
        match doc with
        | Some d -> (
            match Document.output_proteins d with [ o ] -> Some o | _ -> None)
        | None -> None
      in
      let checks =
        match (m, doc) with
        | Some m, Some d ->
            model ?threshold ?output ~metrics m
            @ document ~metrics d
            @ cross ~metrics ~model:m d
        | Some m, None -> model ?threshold ?output ~metrics m
        | None, Some d -> document ~metrics d
        | None, None -> []
      in
      {
        fr_path = key;
        fr_diagnostics =
          List.stable_sort D.compare (sbml_errs @ sbol_errs @ checks);
      })
    !order

let all_diagnostics frs = List.concat_map (fun fr -> fr.fr_diagnostics) frs
let report_exit_code frs = D.exit_code (all_diagnostics frs)

let report_json frs =
  let file_json fr =
    Printf.sprintf
      "{\"file\":%s,\"errors\":%d,\"warnings\":%d,\"diagnostics\":%s}"
      (Glc_obs.Metrics.json_string fr.fr_path)
      (D.errors fr.fr_diagnostics)
      (D.warnings fr.fr_diagnostics)
      (D.list_to_json fr.fr_diagnostics)
  in
  let all = all_diagnostics frs in
  Printf.sprintf
    "{\"files\":[%s],\"summary\":{\"files\":%d,\"errors\":%d,\"warnings\":%d,\"exit\":%d}}"
    (String.concat "," (List.map file_json frs))
    (List.length frs) (D.errors all) (D.warnings all) (D.exit_code all)
