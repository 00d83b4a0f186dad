module Trace = Glc_ssa.Trace
module Expr = Glc_logic.Expr
module Truth_table = Glc_logic.Truth_table
module Experiment = Glc_dvasim.Experiment
module Protocol = Glc_dvasim.Protocol
module Circuit = Glc_gates.Circuit

type params = { threshold : float; fov_ud : float }

let default_params = { threshold = 15.; fov_ud = 0.25 }

type data = { trace : Trace.t; inputs : string array; output : string }

type case_stats = {
  row : int;
  case_count : int;
  high_count : int;
  variations : int;
  fov_est : float;
  passes_fov : bool;
  passes_majority : bool;
  included : bool;
}

type result = {
  arity : int;
  inputs : string array;
  params : params;
  cases : case_stats array;
  minterms : int list;
  expr : Expr.t;
  fitness : float;
}

let check_data (data : data) =
  let n = Array.length data.inputs in
  if n = 0 then invalid_arg "Analyzer: no input species selected";
  if n > 16 then invalid_arg "Analyzer: more than 16 input species";
  let missing id = Trace.index data.trace id = None in
  Array.iter
    (fun id ->
      if missing id then
        invalid_arg
          (Printf.sprintf "Analyzer: input species %S not in the trace" id))
    data.inputs;
  if missing data.output then
    invalid_arg
      (Printf.sprintf "Analyzer: output species %S not in the trace"
         data.output)

(* CaseAnalyzer: row of sample k from the digitised inputs (I1 is the most
   significant bit), output bit appended to that row's stream. *)
let case_streams ?smooth_window ~threshold (data : data) =
  check_data data;
  let n = Array.length data.inputs in
  let digital_inputs =
    Array.map (fun id -> Digital.of_trace ~threshold data.trace id)
      data.inputs
  in
  let digital_output = Digital.of_trace ~threshold data.trace data.output in
  let digital_output =
    match smooth_window with
    | Some window -> Digital.majority_smooth ~window digital_output
    | None -> digital_output
  in
  let samples = Array.length digital_output in
  let nc = 1 lsl n in
  let buffers = Array.init nc (fun _ -> Buffer.create 256) in
  for k = 0 to samples - 1 do
    let row = ref 0 in
    for j = 0 to n - 1 do
      row := (!row lsl 1) lor (if digital_inputs.(j).(k) then 1 else 0)
    done;
    Buffer.add_char buffers.(!row) (if digital_output.(k) then '1' else '0')
  done;
  Array.map
    (fun buf ->
      let s = Buffer.contents buf in
      Array.init (String.length s) (fun i -> s.[i] = '1'))
    buffers

let product_of_row ~inputs row =
  let n = Array.length inputs in
  let lits =
    Array.to_list
      (Array.mapi
         (fun j name ->
           if Truth_table.input_value ~arity:n row j then Expr.Var name
           else Expr.Not (Var name))
         inputs)
  in
  match lits with [] -> Expr.True | [ l ] -> l | ls -> Expr.And ls

let expr_of_minterms ~inputs minterms =
  let nc = 1 lsl Array.length inputs in
  match minterms with
  | [] -> Expr.False
  | ms when List.length ms = nc -> Expr.True
  | ms -> (
      match List.map (product_of_row ~inputs) ms with
      | [ p ] -> p
      | ps -> Expr.Or ps)

let run ?(params = default_params) ?smooth_window (data : data) =
  if params.fov_ud <= 0. || params.fov_ud > 1. then
    invalid_arg "Analyzer.run: fov_ud not in (0, 1]";
  let streams =
    case_streams ?smooth_window ~threshold:params.threshold data
  in
  let arity = Array.length data.inputs in
  let nc = Array.length streams in
  let cases =
    Array.mapi
      (fun row stream ->
        let case_count = Array.length stream in
        let high_count = Digital.count_high stream in
        let variations = Digital.count_variations stream in
        if case_count = 0 then
          {
            row;
            case_count;
            high_count;
            variations;
            fov_est = 0.;
            passes_fov = false;
            passes_majority = false;
            included = false;
          }
        else begin
          let fov_est =
            float_of_int variations /. float_of_int case_count
          in
          let passes_fov = fov_est < params.fov_ud in
          let passes_majority = 2 * high_count > case_count in
          {
            row;
            case_count;
            high_count;
            variations;
            fov_est;
            passes_fov;
            passes_majority;
            included = passes_fov && passes_majority;
          }
        end)
      streams
  in
  let minterms =
    Array.to_list cases
    |> List.filter_map (fun c -> if c.included then Some c.row else None)
  in
  let expr = expr_of_minterms ~inputs:data.inputs minterms in
  (* PFoBE, eq. (3): variation of the kept combinations, averaged over all
     nc combinations, as a percentage of perfect stability. *)
  let fov_sum =
    Array.fold_left
      (fun acc c -> if c.included then acc +. c.fov_est else acc)
      0. cases
  in
  let fitness = 100. -. (fov_sum /. float_of_int nc *. 100.) in
  { arity; inputs = Array.copy data.inputs; params; cases; minterms; expr;
    fitness }

let of_experiment ?params (e : Experiment.t) =
  let params =
    match params with
    | Some p -> p
    | None ->
        { default_params with
          threshold = e.Experiment.protocol.Protocol.threshold }
  in
  run ~params
    {
      trace = e.Experiment.trace;
      inputs = e.Experiment.circuit.Circuit.inputs;
      output = e.Experiment.circuit.Circuit.output;
    }

let extracted_table r = Truth_table.of_minterms ~arity:r.arity r.minterms

(* Input j of the display order is row bit (arity - 1 - j), so implicant
   literals (indexed by row bit) are remapped before printing. *)
let minimised_expr r =
  let tt = extracted_table r in
  let arity = r.arity in
  let names = r.inputs in
  let product imp =
    let lits =
      Glc_logic.Qm.implicant_literals ~arity imp
      |> List.map (fun (bit, positive) ->
             let j = Truth_table.input_bit ~arity bit in
             (j, if positive then Expr.Var names.(j)
                 else Expr.Not (Var names.(j))))
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    in
    match lits with [] -> Expr.True | [ l ] -> l | ls -> Expr.And ls
  in
  match List.map product (Glc_logic.Qm.minimise tt) with
  | [] -> Expr.False
  | [ p ] -> p
  | ps -> Expr.Or ps
