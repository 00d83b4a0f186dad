module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Runner = Glc_campaign.Runner
module Resume = Glc_campaign.Resume
module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Transition = Glc_dvasim.Transition
module Compiled = Glc_ssa.Compiled
module Steady_state = Glc_symbolic.Steady_state
module Certificate = Glc_symbolic.Certificate
module Interval = Glc_symbolic.Interval
module Metrics = Glc_obs.Metrics
module Json = Glc_obs.Json

type config = {
  inputs : int;
  sample : int option;
  seed : int;
  replicates : int;
  threshold : float;
  total_time : float;
  hold_time : float;
}

let default_config =
  let p = Protocol.default in
  {
    inputs = 3;
    sample = None;
    seed = 42;
    replicates = 16;
    threshold = p.Protocol.threshold;
    total_time = p.Protocol.total_time;
    hold_time = p.Protocol.hold_time;
  }

let plan cfg =
  if cfg.inputs < 2 || cfg.inputs > 4 then
    invalid_arg "Atlas.plan: inputs must be in 2..4";
  if cfg.inputs = 4 && cfg.sample = None then
    invalid_arg
      "Atlas.plan: the 4-input space has 65,536 functions — pass a sample \
       size";
  (* the stimulus must hold every input combination at least once, or
     an undecided function's ensemble would silently verify against a
     truncated table (the GLC011 lint condition, enforced up front
     because atlas jobs run unlinted) *)
  if cfg.total_time < cfg.hold_time *. float_of_int (1 lsl cfg.inputs)
  then
    invalid_arg
      (Printf.sprintf
         "Atlas.plan: total_time %g cannot hold all %d input \
          combinations for %g — raise --total to at least %g"
         cfg.total_time (1 lsl cfg.inputs) cfg.hold_time
         (cfg.hold_time *. float_of_int (1 lsl cfg.inputs)));
  let codes =
    match cfg.sample with
    | None -> Fn.all_codes ~arity:cfg.inputs
    | Some n -> Fn.sample_codes ~arity:cfg.inputs ~seed:cfg.seed n
  in
  let names = List.map (Fn.name_of_code ~arity:cfg.inputs) codes in
  let grid =
    Grid.make ~thresholds:[ cfg.threshold ]
      ~replicate_counts:[ cfg.replicates ] names
  in
  Grid.spec ~seed:cfg.seed ~total_time:cfg.total_time
    ~hold_time:cfg.hold_time grid

let prepare ~dir spec =
  let ( let* ) = Result.bind in
  let plan = Grid.spec_to_json spec in
  let* store, manifest = Store.open_or_create ~dir plan in
  (* a fresh directory stores exactly [plan]: nothing to parse *)
  if manifest = plan then Ok (store, spec, false)
  else
    let* stored = Grid.spec_of_json manifest in
    Ok (store, stored, Grid.spec_to_json stored <> plan)

(* {2 Propagation delay} *)

type delay = {
  d_transitions : int;
  d_measured : int;
  d_worst : (float * Transition.t) option;
}

let delay_id name = "delay-" ^ name

(* The delay experiment's horizon: the from-row is held for one hold
   when it is not seeded, and the output followed for 2.5 holds after
   the switch. *)
let settle (p : Protocol.t) = p.hold_time
let timeout (p : Protocol.t) = 2.5 *. p.hold_time

(* The from-row's steady state, as a start state for the ODE: only when
   the interval analysis pins every species to a finite point (boundary
   species always are: rails or initial amounts). Otherwise the
   transition settles on the from-row first. *)
let steady_start ~(protocol : Protocol.t) (circuit : Circuit.t) model c row =
  let inputs =
    Certificate.rails ~input_high:protocol.input_high
      ~input_low:protocol.input_low ~inputs:circuit.inputs row
  in
  let ss = Steady_state.analyse ~inputs model in
  let bounds = Array.map (Steady_state.bound ss) c.Compiled.c_names in
  if Array.for_all (fun b -> Interval.is_point b && Interval.is_finite b) bounds
  then Some (Array.map Interval.lo bounds)
  else None

let measure ~protocol circuit =
  let model = Circuit.model circuit in
  let c = Compiled.compile model in
  let transitions = Transition.adjacent circuit.Circuit.expected in
  let steps = ref 0 in
  let measured =
    List.filter_map
      (fun (tr : Transition.t) ->
        let start = steady_start ~protocol circuit model c tr.from_row in
        let d, n =
          Transition.first_crossing ~protocol ~settle:(settle protocol)
            ~timeout:(timeout protocol) circuit
            (Transition.Ode (c, start))
            tr
        in
        steps := !steps + n;
        Option.map (fun d -> (d, tr)) d)
      transitions
  in
  ( {
      d_transitions = List.length transitions;
      d_measured = List.length measured;
      d_worst = Transition.worst fst measured;
    },
    !steps )

let delay_doc ~name ~protocol d =
  let worst (w, (tr : Transition.t)) =
    Json.obj
      [
        ("delay", Json.float w);
        ("from_row", string_of_int tr.from_row);
        ("to_row", string_of_int tr.to_row);
        ("rising", Json.bool tr.rising);
      ]
  in
  Json.obj
    [
      ("id", Json.string (delay_id name));
      ("kind", Json.string "delay");
      ("circuit", Json.string name);
      ("threshold", Json.float protocol.Protocol.threshold);
      ("settle", Json.float (settle protocol));
      ("timeout", Json.float (timeout protocol));
      ("transitions", string_of_int d.d_transitions);
      ("measured", string_of_int d.d_measured);
      ("worst", Json.option worst d.d_worst);
    ]

(* Every field the reader needs must be present and well-typed: a doc
   that parses but lacks them (truncated, hand-edited) is no delay at
   all, so the frontier never sees it and a resumed run re-measures it. *)
let delay_of_doc doc =
  match Json.parse doc with
  | Error _ -> None
  | Ok v -> (
      let ( let* ) = Option.bind in
      let* transitions = Json.int_field v "transitions" in
      let* measured = Json.int_field v "measured" in
      let d =
        { d_transitions = transitions; d_measured = measured; d_worst = None }
      in
      match Json.member v "worst" with
      | Some Json.Null -> Some d
      | Some (Json.Object _ as w) ->
          let* delay = Json.number_field w "delay" in
          let* from_row = Json.int_field w "from_row" in
          let* to_row = Json.int_field w "to_row" in
          let* rising = Json.bool_field w "rising" in
          let tr = { Transition.from_row; to_row; rising } in
          Some { d with d_worst = Some (delay, tr) }
      | _ -> None)

let stored_delay store name =
  Option.bind (Store.get store ~id:(delay_id name)) delay_of_doc

let spec_circuits (spec : Grid.spec) = spec.Grid.grid.Grid.circuits

(* atlas grids have one job per circuit (single threshold/replicates
   axis); the first expanded job of each name is it *)
let circuit_jobs (spec : Grid.spec) =
  let jobs = Grid.expand spec.Grid.grid in
  List.map
    (fun name -> (name, List.find (fun j -> j.Grid.j_circuit = name) jobs))
    (spec_circuits spec)

let delay_coverage store spec =
  let names = spec_circuits spec in
  let measured =
    List.length (List.filter (fun n -> stored_delay store n <> None) names)
  in
  (measured, List.length names)

(* {2 Running} *)

type summary = {
  a_functions : int;
  a_done : int;
  a_verified : int;
  a_failed : int;
  a_remaining : int;
  a_delays : int;
  a_delays_total : int;
}

(* on the calling domain, in spec order: each doc is stored as it is
   measured, and a stop takes effect before the next function *)
let measure_delays ?(metrics = Metrics.noop) ?(should_stop = fun () -> false)
    store spec =
  let c_measured = Metrics.counter metrics "space.delays_measured" in
  let c_steps = Metrics.counter metrics "space.ode_steps" in
  let h_seconds = Metrics.histogram metrics "space.delay_seconds" in
  List.iter
    (fun (name, job) ->
      if
        (not (should_stop ()))
        && Store.mem store ~id:(Grid.job_id job)
        && stored_delay store name = None
      then
        match Runner.resolve name with
        | Error _ -> ()
        | Ok circuit ->
            let protocol = Runner.job_protocol spec job in
            let t0 = Glc_obs.Clock.now () in
            let d, steps = measure ~protocol circuit in
            Metrics.Histogram.observe h_seconds (Glc_obs.Clock.now () -. t0);
            Metrics.Counter.incr c_measured;
            Metrics.Counter.add c_steps steps;
            Store.put store ~id:(delay_id name) (delay_doc ~name ~protocol d))
    (circuit_jobs spec)

let run ?jobs ?limit ?on_progress ?metrics ?should_stop
    ?(certified_only = false) ~dir spec =
  let ( let* ) = Result.bind in
  let m = Option.value ~default:Metrics.noop metrics in
  let* store, spec, _plan_ignored = prepare ~dir spec in
  let names = spec_circuits spec in
  Metrics.span m "space:synthesise" (fun () ->
      let synthesised = Metrics.counter m "space.functions_synthesised" in
      List.iter
        (fun name ->
          match Glc_gates.Cello.code_of_name name with
          | None -> ()
          | Some (arity, code) ->
              ignore (Fn.describe ~arity code);
              Metrics.Counter.incr synthesised)
        names);
  let* _store, spec, s =
    Resume.run ?jobs ?limit ?on_progress ?metrics ?should_stop ~certified_only
      ~dir ()
  in
  let* () =
    Metrics.span m "space:delays" (fun () ->
        Store.Lock.with_lock ~dir (fun () ->
            measure_delays ~metrics:m ?should_stop store spec))
  in
  let lines = Store.lines store spec in
  let done_ = List.filter (fun l -> l.Store.l_done) lines in
  let verified = List.filter (fun l -> l.Store.l_verified) done_ in
  Metrics.Counter.add
    (Metrics.counter m "space.functions_verified")
    (List.length verified);
  let delays, _ = delay_coverage store spec in
  Ok
    {
      a_functions = List.length names;
      a_done = List.length done_;
      a_verified = List.length verified;
      a_failed = s.Runner.failed;
      a_remaining = List.length lines - List.length done_;
      a_delays = delays;
      a_delays_total = List.length done_;
    }

(* {2 Reporting} *)

type fentry = {
  f_info : Fn.info;
  f_line : Store.job_line;
  f_delay : delay option;
}

let entries store spec =
  let lines = Store.lines store spec in
  List.filter_map
    (fun (l : Store.job_line) ->
      let name = l.Store.l_job.Grid.j_circuit in
      match Glc_gates.Cello.code_of_name name with
      | None -> None
      | Some (arity, code) ->
          let f_delay = stored_delay store name in
          Some { f_info = Fn.describe ~arity code; f_line = l; f_delay })
    lines

(* the frontier coordinate: measured worst delay, or 0 for a function
   with no output-changing transition (the constants); [None] bars the
   entry from frontiers until its delay exists *)
let delay_value e =
  match e.f_delay with
  | Some d when d.d_transitions = 0 -> Some 0.
  | Some { d_worst = Some (w, _); _ } -> Some w
  | _ -> None

let pareto entries =
  (* maximise PFoBE, minimise delay, minimise gates *)
  let coords =
    List.filter_map
      (fun e ->
        if not e.f_line.Store.l_done then None
        else
          match delay_value e with
          | None -> None
          | Some d -> Some (e, e.f_line.Store.l_fitness_mean, d, e.f_info.Fn.i_gates))
      entries
  in
  let dominated (_, p, d, g) (f', p', d', g') =
    ignore f';
    p' >= p && d' <= d && g' <= g && (p' > p || d' < d || g' < g)
  in
  List.filter_map
    (fun ((e, _, _, _) as c) ->
      if List.exists (fun c' -> c' != c && dominated c c') coords then None
      else Some e)
    coords

let orbit_size ~arity rep =
  let distinct = Hashtbl.create 64 in
  List.iter
    (fun tr -> Hashtbl.replace distinct (Npn.apply ~arity tr rep) ())
    (Npn.transforms ~arity);
  Hashtbl.length distinct

let space_json store spec =
  let es = entries store spec in
  let arity =
    match es with e :: _ -> e.f_info.Fn.i_arity | [] -> 3
  in
  let full_space = 1 lsl (1 lsl arity) in
  let planned = List.length es in
  let done_ = List.filter (fun e -> e.f_line.Store.l_done) es in
  let verified = List.filter (fun e -> e.f_line.Store.l_verified) done_ in
  let by_provenance p =
    List.length
      (List.filter (fun e -> e.f_line.Store.l_provenance = p) done_)
  in
  (* classes present in this run, keyed by NPN representative *)
  let class_tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      let rep = e.f_info.Fn.i_class in
      let old = try Hashtbl.find class_tbl rep with Not_found -> [] in
      Hashtbl.replace class_tbl rep (e :: old))
    es;
  let classes =
    Hashtbl.fold (fun rep ms acc -> (rep, List.rev ms) :: acc) class_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let global_frontier = pareto es in
  let class_frontiers =
    List.map (fun (rep, ms) -> (rep, pareto ms)) classes
  in
  let in_frontier frontier e = List.memq e frontier in
  let names es' =
    Json.arr (List.map (fun e -> Json.string e.f_info.Fn.i_name) es')
  in
  let int = string_of_int in
  let space =
    Json.obj
      [
        ("version", "1");
        ("inputs", int arity);
        ("functions", int planned);
        ("full_space", int full_space);
        ("sampled", Json.bool (planned < full_space));
        ("seed", int spec.Grid.seed);
        ( "threshold",
          Json.float
            (match spec.Grid.grid.Grid.thresholds with
            | t :: _ -> t
            | [] -> Protocol.default.Protocol.threshold) );
        ("total_time", Json.float spec.Grid.total_time);
        ("hold_time", Json.float spec.Grid.hold_time);
        ( "replicates",
          int
            (match spec.Grid.grid.Grid.replicate_counts with
            | r :: _ -> r
            | [] -> 16) );
        ("done", int (List.length done_));
        ("verified", int (List.length verified));
        ("certified", int (by_provenance "certified"));
        ("simulated", int (by_provenance "simulated"));
        ("classes", int (List.length classes));
      ]
  in
  let class_json (rep, ms) =
    let rep_info = Fn.describe ~arity rep in
    let ms_done = List.filter (fun e -> e.f_line.Store.l_done) ms in
    let ms_verified =
      List.filter (fun e -> e.f_line.Store.l_verified) ms_done
    in
    let gates = List.map (fun e -> e.f_info.Fn.i_gates) ms in
    Json.obj
      [
        ("rep", Json.string rep_info.Fn.i_name);
        ("orbit", int (orbit_size ~arity rep));
        ("planned", int (List.length ms));
        ("done", int (List.length ms_done));
        ("verified", int (List.length ms_verified));
        ("unate", Json.bool rep_info.Fn.i_unate);
        ("canalizing", Json.bool rep_info.Fn.i_canalizing);
        ("nested_canalizing", Json.bool rep_info.Fn.i_nested_canalizing);
        ("bio", Json.bool (rep_info.Fn.i_unate || rep_info.Fn.i_canalizing));
        ("min_gates", int (List.fold_left min max_int gates));
        ("max_gates", int (List.fold_left max 0 gates));
        ("frontier", names (List.assoc rep class_frontiers));
      ]
  in
  let delay_json d =
    (* no worst transition: SPACE.json's 0/0/false placeholders *)
    let from_row, to_row, rising =
      match d.d_worst with
      | Some (_, tr) -> (tr.Transition.from_row, tr.to_row, tr.rising)
      | None -> (0, 0, false)
    in
    Json.obj
      [
        ("worst", Json.option Json.float (Option.map fst d.d_worst));
        ("transitions", int d.d_transitions);
        ("measured", int d.d_measured);
        ("from_row", int from_row);
        ("to_row", int to_row);
        ("rising", Json.bool rising);
      ]
  in
  let function_json e =
    let info = e.f_info and l = e.f_line in
    Json.obj
      [
        ("name", Json.string info.Fn.i_name);
        ("code", int info.Fn.i_code);
        ("class", Json.string (Fn.name_of_code ~arity info.Fn.i_class));
        ("gates", int info.Fn.i_gates);
        ("depth", int info.Fn.i_depth);
        ("unate", Json.bool info.Fn.i_unate);
        ("canalizing", Json.bool info.Fn.i_canalizing);
        ("nested_canalizing", Json.bool info.Fn.i_nested_canalizing);
        ("done", Json.bool l.Store.l_done);
        ("verified", Json.bool l.Store.l_verified);
        ("provenance", Json.string l.Store.l_provenance);
        ( "pfobe",
          if l.Store.l_done then Json.float l.Store.l_fitness_mean
          else "null" );
        ("certified_rows", int l.Store.l_certified_rows);
        ("total_rows", int l.Store.l_total_rows);
        ("delay", Json.option delay_json e.f_delay);
        ( "class_frontier",
          Json.bool
            (in_frontier (List.assoc info.Fn.i_class class_frontiers) e) );
        ("global_frontier", Json.bool (in_frontier global_frontier e));
      ]
  in
  Json.obj
    [
      ("space", space);
      ("classes", Json.arr (List.map class_json classes));
      ("functions", Json.arr (List.map function_json es));
      ("frontier", names global_frontier);
    ]

(* {2 Markdown rendering} *)

let markdown json =
  let ( let* ) = Result.bind in
  let* v = Json.parse json in
  let mem = Json.member and str = Json.str_field and num = Json.number_field in
  let int_ = Json.int_field and bool_ = Json.bool_field in
  let list o name = Option.value ~default:[] (Json.list_field o name) in
  let req what = function
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "not a SPACE.json document: missing %s" what)
  in
  let* space = req "space" (mem v "space") in
  let* inputs = req "space.inputs" (int_ space "inputs") in
  let i name = Option.value ~default:0 (int_ space name) in
  let fnum o name = Option.value ~default:Float.nan (num o name) in
  let fname o = Option.value ~default:"?" (str o "name") in
  let pct x = if Float.is_integer x then Printf.sprintf "%.0f" x else Printf.sprintf "%.1f" x in
  let b = Buffer.create 16384 in
  let add = Buffer.add_string b in
  add "# Function-space atlas\n\n";
  add
    "<!-- Generated from SPACE.json — do not edit by hand. Regenerate with\n\
    \     `glcv space report --dir <dir> --out SPACE.json --atlas ATLAS.md` or\n\
    \     `dune exec tools/gen_models_doc.exe -- --atlas SPACE.json ATLAS.md`. -->\n\n";
  let sampled = Option.value ~default:false (bool_ space "sampled") in
  add
    (Printf.sprintf
       "**Space:** %d-input — %d%s function%s planned, %d verified of %d run \
        (%d certified symbolically, %d settled by stochastic ensemble), %d \
        NPN class%s in the run.\n"
       inputs (i "functions")
       (if sampled then Printf.sprintf " of %d (sampled)" (i "full_space")
        else "")
       (if i "functions" = 1 then "" else "s")
       (i "verified") (i "done") (i "certified") (i "simulated") (i "classes")
       (if i "classes" = 1 then "" else "es"));
  add
    (Printf.sprintf
       "**Protocol:** threshold %s molecules, %s/%s t.u. total/hold, %d \
        replicates for undecided functions, seed %d.\n\n"
       (pct (fnum space "threshold"))
       (pct (fnum space "total_time"))
       (pct (fnum space "hold_time"))
       (i "replicates") (i "seed"));
  add
    "Delay is the worst-case ODE-limit propagation delay over \
     output-changing adjacent input transitions (t.u. after the input \
     switch); gates count the NOT/NOR gates of the synthesised netlist: \
     the least tree cost over NOT and NOR2, with sharing added on \
     extraction, so not always the fewest gates. Bio flags \
     follow Ray / Das / Choudhury: U = unate, C = canalizing, N = \
     nested-canalizing — the function classes dominating natural \
     regulatory logic.\n\n";
  add "## NPN classes\n\n";
  add
    "| Class | Orbit | In run | Verified | Gates | Bio | Pareto frontier \
     (PFoBE ↑ × delay ↓ × gates ↓) |\n";
  add "|---|---|---|---|---|---|---|\n";
  let classes = list v "classes" in
  List.iter
    (fun c ->
      let bio =
        String.concat ""
          [
            (if Option.value ~default:false (bool_ c "unate") then "U" else "");
            (if Option.value ~default:false (bool_ c "canalizing") then "C"
             else "");
            (if Option.value ~default:false (bool_ c "nested_canalizing") then
               "N"
             else "");
          ]
      in
      let gates =
        let lo = Option.value ~default:0 (int_ c "min_gates")
        and hi = Option.value ~default:0 (int_ c "max_gates") in
        if lo = hi then string_of_int lo else Printf.sprintf "%d–%d" lo hi
      in
      let frontier =
        list c "frontier"
        |> List.filter_map Json.to_str
        |> List.map (Printf.sprintf "`%s`")
        |> String.concat " "
      in
      add
        (Printf.sprintf "| `%s` | %d | %d | %d/%d | %s | %s | %s |\n"
           (Option.value ~default:"?" (str c "rep"))
           (Option.value ~default:0 (int_ c "orbit"))
           (Option.value ~default:0 (int_ c "planned"))
           (Option.value ~default:0 (int_ c "verified"))
           (Option.value ~default:0 (int_ c "done"))
           gates bio frontier))
    classes;
  let functions = list v "functions" in
  let fn_by_name =
    let tbl = Hashtbl.create 300 in
    List.iter (fun f -> Hashtbl.replace tbl (fname f) f) functions;
    tbl
  in
  let delay_cell f =
    match mem f "delay" with
    | Some (Json.Object _ as d) -> (
        match num d "worst" with
        | Some w -> pct w
        | None ->
            if Option.value ~default:0 (int_ d "transitions") = 0 then "0"
            else "timeout")
    | _ -> "—"
  in
  let pfobe_cell f =
    match num f "pfobe" with Some p -> pct p | None -> "—"
  in
  add "\n## Global Pareto frontier\n\n";
  add "| Function | Class | PFoBE % | Delay (t.u.) | Gates | Depth | Provenance |\n";
  add "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun name ->
      match Hashtbl.find_opt fn_by_name name with
      | None -> ()
      | Some f ->
          add
            (Printf.sprintf "| `%s` | `%s` | %s | %s | %d | %d | %s |\n" name
               (Option.value ~default:"?" (str f "class"))
               (pfobe_cell f) (delay_cell f)
               (Option.value ~default:0 (int_ f "gates"))
               (Option.value ~default:0 (int_ f "depth"))
               (Option.value ~default:"-" (str f "provenance"))))
    (list v "frontier" |> List.filter_map Json.to_str);
  add "\n## Functions by class\n";
  List.iter
    (fun c ->
      let rep = Option.value ~default:"?" (str c "rep") in
      let flags =
        List.filter_map
          (fun (key, label) ->
            if Option.value ~default:false (bool_ c key) then Some label
            else None)
          [
            ("unate", "unate");
            ("canalizing", "canalizing");
            ("nested_canalizing", "nested-canalizing");
          ]
      in
      add
        (Printf.sprintf "\n### Class `%s` — orbit %d%s\n\n" rep
           (Option.value ~default:0 (int_ c "orbit"))
           (match flags with
           | [] -> ""
           | l -> ", " ^ String.concat ", " l));
      add "| Function | PFoBE % | Delay | Gates | Depth | Verified | Provenance | Frontier |\n";
      add "|---|---|---|---|---|---|---|---|\n";
      List.iter
        (fun f ->
          if str f "class" = Some rep then
            let frontier =
              (if Option.value ~default:false (bool_ f "class_frontier") then
                 "class"
               else "")
              ^
              if Option.value ~default:false (bool_ f "global_frontier") then
                "+global"
              else ""
            in
            add
              (Printf.sprintf "| `%s` | %s | %s | %d | %d | %s | %s | %s |\n"
                 (fname f) (pfobe_cell f) (delay_cell f)
                 (Option.value ~default:0 (int_ f "gates"))
                 (Option.value ~default:0 (int_ f "depth"))
                 (if Option.value ~default:false (bool_ f "verified") then "yes"
                  else if Option.value ~default:false (bool_ f "done") then "NO"
                  else "—")
                 (Option.value ~default:"-" (str f "provenance"))
                 frontier))
        functions)
    classes;
  Ok (Buffer.contents b)
