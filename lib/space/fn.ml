module Truth_table = Glc_logic.Truth_table
module Netlist = Glc_logic.Netlist
module Assembly = Glc_gates.Assembly
module Cello = Glc_gates.Cello
module Rng = Glc_ssa.Rng

type info = {
  i_code : int;
  i_arity : int;
  i_name : string;
  i_class : int;
  i_gates : int;
  i_depth : int;
  i_unate : bool;
  i_canalizing : bool;
  i_nested_canalizing : bool;
}

let name_of_code = Cello.name_of_code

let netlist ~arity code =
  Netlist.of_truth_table ~inputs:(Assembly.netlist_inputs arity)
    (Truth_table.of_code ~arity code)

let describe ~arity code =
  let nl = netlist ~arity code in
  {
    i_code = code;
    i_arity = arity;
    i_name = name_of_code ~arity code;
    i_class = Npn.canonical ~arity code;
    i_gates = Netlist.gate_count nl;
    i_depth = Netlist.depth nl;
    i_unate = Npn.is_unate ~arity code;
    i_canalizing = Npn.is_canalizing ~arity code;
    i_nested_canalizing = Npn.is_nested_canalizing ~arity code;
  }

let all_codes ~arity = List.init (1 lsl (1 lsl arity)) Fun.id

let sample_codes ~arity ~seed n =
  if n < 1 then invalid_arg "Fn.sample_codes: n must be >= 1";
  let nf = 1 lsl (1 lsl arity) in
  if n >= nf then all_codes ~arity
  else begin
    let rng = Rng.create seed in
    let a = Array.init nf Fun.id in
    (* Fisher–Yates prefix: after i swaps, a.(0..i-1) is a uniform
       i-sample without replacement *)
    for i = 0 to n - 1 do
      let j = i + Rng.int rng (nf - i) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.sub a 0 n |> Array.to_list |> List.sort compare
  end
