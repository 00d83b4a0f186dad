module Trace = Glc_ssa.Trace
module Events = Glc_ssa.Events
module Sim = Glc_ssa.Sim
module Circuit = Glc_gates.Circuit

type t = {
  circuit : Circuit.t;
  protocol : Protocol.t;
  trace : Trace.t;
}

let clamp (p : Protocol.t) ~inputs ~at row =
  let arity = Array.length inputs in
  List.mapi
    (fun j species ->
      Events.set at species
        (if Glc_logic.Truth_table.input_value ~arity row j then p.input_high
         else p.input_low))
    (Array.to_list inputs)

(* equal-time events apply in list order; a slot's inputs go in
   descending order, the order the pinned traces were recorded with *)
let stimulus (p : Protocol.t) ~inputs =
  let arity = Array.length inputs in
  let events = ref [] in
  for slot = 0 to Protocol.slots p - 1 do
    let at = float_of_int slot *. p.hold_time in
    let row = Protocol.row_of_slot p ~arity slot in
    events := List.rev_append (clamp p ~inputs ~at row) !events
  done;
  Events.of_list !events

let input_schedule (p : Protocol.t) (circuit : Circuit.t) =
  stimulus p ~inputs:circuit.Circuit.inputs

let run_trace ?metrics ~protocol ~inputs model =
  let events = stimulus protocol ~inputs in
  let cfg =
    Sim.config ~dt:protocol.Protocol.dt ~seed:protocol.Protocol.seed
      ~t_end:protocol.Protocol.total_time ()
  in
  Sim.run ~events ?metrics cfg model

let run_model ?metrics ~protocol ~circuit model =
  let trace =
    run_trace ?metrics ~protocol ~inputs:circuit.Circuit.inputs model
  in
  { circuit; protocol; trace }

let run ?(protocol = Protocol.default) ?metrics circuit =
  run_model ?metrics ~protocol ~circuit (Circuit.model circuit)

let applied_row e t =
  Protocol.row_at e.protocol ~arity:(Circuit.arity e.circuit) t

let log_csv path e = Trace.write_csv path e.trace
