module Circuit = Glc_gates.Circuit
module Protocol = Glc_dvasim.Protocol
module Truth_table = Glc_logic.Truth_table
module Metrics = Glc_obs.Metrics
module Json = Glc_obs.Json

type verdict = Proved_high | Proved_low | Undecided

type row = {
  cr_row : int;
  cr_bounds : Interval.t;
  cr_verdict : verdict;
  cr_expected : bool;
  cr_iterations : int;
  cr_converged : bool;
}

type t = {
  c_circuit : string;
  c_output : string;
  c_arity : int;
  c_threshold : float;
  c_margin : float;
  c_rows : row array;
}

let default_margin = 4.0

(* a negative margin would prove rows on the wrong side of the
   threshold *)
let check_margin fn margin =
  if not (margin >= 0. && Float.is_finite margin) then
    invalid_arg (fn ^ ": margin must be finite and >= 0")

let decide ~threshold ~margin iv =
  check_margin "Certificate.decide" margin;
  let lo = Interval.lo iv and hi = Interval.hi iv in
  if Float.is_finite lo && lo -. (margin *. sqrt (Float.max lo 1.)) > threshold
  then Proved_high
  else if
    Float.is_finite hi && hi +. (margin *. sqrt (Float.max hi 1.)) < threshold
  then Proved_low
  else Undecided

let rails ~input_high ~input_low ~inputs row =
  let arity = Array.length inputs in
  Array.to_list
    (Array.mapi
       (fun j name ->
         let bit = Truth_table.input_value ~arity row j in
         (name, Interval.point (if bit then input_high else input_low)))
       inputs)

let certify_model ?(metrics = Metrics.noop) ?(margin = default_margin)
    ~threshold ~input_high ~input_low ~inputs ~output ~expected
    (m : Glc_model.Model.t) =
  check_margin "Certificate.certify_model" margin;
  let arity = Array.length inputs in
  if Truth_table.arity expected <> arity then
    invalid_arg "Certificate.certify_model: expected table arity mismatch";
  let n_rows = 1 lsl arity in
  let rows =
    Array.init n_rows (fun row ->
        let ss =
          Steady_state.analyse
            ~inputs:(rails ~input_high ~input_low ~inputs row)
            m
        in
        let bounds = Steady_state.bound ss output in
        {
          cr_row = row;
          cr_bounds = bounds;
          cr_verdict = decide ~threshold ~margin bounds;
          cr_expected = Truth_table.output expected row;
          cr_iterations = ss.Steady_state.ss_iterations;
          cr_converged = ss.Steady_state.ss_converged;
        })
  in
  if Metrics.enabled metrics then begin
    let proved =
      Array.fold_left
        (fun n r -> if r.cr_verdict <> Undecided then n + 1 else n)
        0 rows
    in
    let iterations =
      Array.fold_left (fun n r -> n + r.cr_iterations) 0 rows
    in
    Metrics.Counter.incr (Metrics.counter metrics "symbolic.certificates");
    Metrics.Counter.add (Metrics.counter metrics "symbolic.rows_proved") proved;
    Metrics.Counter.add
      (Metrics.counter metrics "symbolic.rows_undecided")
      (n_rows - proved);
    Metrics.Counter.add
      (Metrics.counter metrics "symbolic.fixpoint_iterations")
      iterations
  end;
  {
    c_circuit = m.Glc_model.Model.m_id;
    c_output = output;
    c_arity = arity;
    c_threshold = threshold;
    c_margin = margin;
    c_rows = rows;
  }

let certify ?metrics ?margin ?(protocol = Protocol.default) (c : Circuit.t) =
  let t =
    certify_model ?metrics ?margin
      ~threshold:protocol.Protocol.threshold
      ~input_high:protocol.Protocol.input_high
      ~input_low:protocol.Protocol.input_low ~inputs:c.Circuit.inputs
      ~output:c.Circuit.output ~expected:c.Circuit.expected
      (Circuit.model c)
  in
  { t with c_circuit = c.Circuit.name }

let rows t = Array.length t.c_rows
let decided t =
  Array.fold_left
    (fun n r -> if r.cr_verdict <> Undecided then n + 1 else n)
    0 t.c_rows

let undecided_rows t =
  Array.to_list t.c_rows
  |> List.filter_map (fun r ->
         if r.cr_verdict = Undecided then Some r.cr_row else None)

let fully_decided t = undecided_rows t = []

let proved_output t row =
  match t.c_rows.(row).cr_verdict with
  | Proved_high -> Some true
  | Proved_low -> Some false
  | Undecided -> None

let contradictions t =
  Array.to_list t.c_rows
  |> List.filter_map (fun r ->
         match r.cr_verdict with
         | Proved_high when not r.cr_expected -> Some r.cr_row
         | Proved_low when r.cr_expected -> Some r.cr_row
         | Proved_high | Proved_low | Undecided -> None)

let verified t =
  if contradictions t <> [] then Some false
  else if fully_decided t then Some true
  else None

let verdict_string = function
  | Proved_high -> "proved_high"
  | Proved_low -> "proved_low"
  | Undecided -> "undecided"

let agrees r =
  match r.cr_verdict with
  | Undecided -> None
  | Proved_high -> Some r.cr_expected
  | Proved_low -> Some (not r.cr_expected)

(* infinities kept as strings rather than collapsed to null — an
   undecided row's upper bound is typically infinite and that is
   information *)
let bound x =
  if x = Float.infinity then Json.string "inf"
  else if x = Float.neg_infinity then Json.string "-inf"
  else Json.float x

let to_json t =
  let row_json r =
    Json.obj
      [
        ("row", string_of_int r.cr_row);
        ( "combination",
          Json.string (Truth_table.combination ~arity:t.c_arity r.cr_row) );
        ("lo", bound (Interval.lo r.cr_bounds));
        ("hi", bound (Interval.hi r.cr_bounds));
        ("verdict", Json.string (verdict_string r.cr_verdict));
        ("expected", Json.bool r.cr_expected);
        ("agrees", Json.option Json.bool (agrees r));
        ("iterations", string_of_int r.cr_iterations);
        ("converged", Json.bool r.cr_converged);
      ]
  in
  Json.obj
    [
      ("circuit", Json.string t.c_circuit);
      ("output", Json.string t.c_output);
      ("arity", string_of_int t.c_arity);
      ("threshold", bound t.c_threshold);
      ("margin", bound t.c_margin);
      ("rows", Json.arr (Array.to_list (Array.map row_json t.c_rows)));
      ("proved", string_of_int (decided t));
      ("undecided", string_of_int (rows t - decided t));
      ("verified", Json.option Json.bool (verified t));
    ]

let pp ppf t =
  Format.fprintf ppf
    "@[<v>certificate %s: output %s, threshold %g, margin %g sd@," t.c_circuit
    t.c_output t.c_threshold t.c_margin;
  Format.fprintf ppf "%-6s %-22s %-12s %-9s %s@," "combo" "steady-state bound"
    "verdict" "expected" "agrees";
  Array.iter
    (fun r ->
      Format.fprintf ppf "%-6s %-22s %-12s %-9b %s@,"
        (Truth_table.combination ~arity:t.c_arity r.cr_row)
        (Interval.to_string r.cr_bounds)
        (verdict_string r.cr_verdict) r.cr_expected
        (Option.fold ~none:"-" ~some:string_of_bool (agrees r)))
    t.c_rows;
  Format.fprintf ppf "%d/%d row(s) proved%s@]" (decided t) (rows t)
    (match verified t with
    | Some true -> ", verified"
    | Some false -> ", CONTRADICTS the intended table"
    | None -> ", undecided rows remain")
