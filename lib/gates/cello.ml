module Truth_table = Glc_logic.Truth_table
module Netlist = Glc_logic.Netlist

let name_of_code ~arity code =
  (* one hex digit per 4 truth-table rows, but never fewer than two so
     the historical 2- and 3-input names ("0x0B") stay byte-identical *)
  Printf.sprintf "0x%0*X" (max 2 ((1 lsl arity) / 4)) code

let code_of_name name =
  let hex = String.length name - 2 in
  if hex < 1 || hex > 4 || not (String.length name > 2 && name.[0] = '0' && (name.[1] = 'x' || name.[1] = 'X'))
  then None
  else
    match int_of_string_opt name with
    | None -> None
    | Some code ->
        let arity = if hex <= 2 then 3 else 4 in
        if code >= 0 && code < 1 lsl (1 lsl arity) then Some (arity, code)
        else None

let of_code ?(arity = 3) code =
  let tt = Truth_table.of_code ~arity code in
  let name = name_of_code ~arity code in
  if arity <= 3 then Assembly.synthesize ~name tt
  else begin
    (* beyond 3 inputs the synthesised netlist can exceed the stock
       twelve-repressor library (the largest of the 65,536 4-input
       netlists has 50 gates), so size an extended library to the
       netlist — plus one spare, consumed by the auxiliary inverter a
       Const-false output needs *)
    let nl = Netlist.of_truth_table ~inputs:(Assembly.netlist_inputs arity) tt in
    let library = Repressor.extended (Netlist.gate_count nl + 1) in
    Assembly.of_netlist ~library ~name ~expected:tt nl
  end

let circuit_0x0B () = of_code 0x0B
let circuit_0x04 () = of_code 0x04
let circuit_0x1C () = of_code 0x1C

let codes = [ 0x0B; 0x04; 0x1C; 0x70; 0x41; 0x8E; 0x5D; 0x3A; 0xB1; 0x17 ]
