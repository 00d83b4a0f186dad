module Circuit = Glc_gates.Circuit
module Truth_table = Glc_logic.Truth_table

type t = { from_row : int; to_row : int; rising : bool }

let make expected ~from_row ~to_row =
  let rising = Truth_table.output expected to_row in
  if Truth_table.output expected from_row = rising then None
  else Some { from_row; to_row; rising }

let adjacent expected =
  let n = 1 lsl Truth_table.arity expected in
  List.filter_map
    (fun r -> make expected ~from_row:r ~to_row:((r + 1) mod n))
    (List.init n Fun.id)

type simulator =
  | Ode of Glc_ssa.Compiled.t * float array option
  | Ssa of Glc_model.Model.t * int

let first_crossing ~(protocol : Protocol.t) ~settle ~timeout
    (circuit : Circuit.t) sim tr =
  let crossed x =
    if tr.rising then x >= protocol.threshold else x < protocol.threshold
  in
  let seeded = match sim with Ode (_, Some _) -> true | _ -> false in
  let clamp = Experiment.clamp protocol ~inputs:circuit.inputs in
  let events =
    Glc_ssa.Events.of_list
      ((if seeded then [] else clamp ~at:0. tr.from_row)
      @ clamp ~at:settle tr.to_row)
  in
  let t_end = settle +. timeout in
  match sim with
  | Ode (c, init) ->
      (* a unit step is the trace resolution the stochastic analyser
         reads; a seeded run starts at the switch, on the grid the
         settled run has from there on *)
      let t0 = if seeded then settle else 0. in
      let cfg = Glc_ssa.Ode.config ~t0 ~dt:1.0 ~step:1.0 ~t_end () in
      let out = Glc_ssa.Compiled.species_index c circuit.output in
      let u =
        Glc_ssa.Ode.run_until ~events ?init ~from:settle cfg c (fun s ->
            crossed s.(out))
      in
      (Option.map (fun t -> t -. settle) u.u_time, u.u_steps)
  | Ssa (model, seed) ->
      let cfg = Glc_ssa.Sim.config ~dt:protocol.dt ~seed ~t_end () in
      let trace = Glc_ssa.Sim.run ~events cfg model in
      let out = Glc_ssa.Trace.column trace circuit.output in
      let rec find k =
        if k >= Array.length out then None
        else
          let t = Glc_ssa.Trace.time trace k in
          if t >= settle && crossed out.(k) then Some (t -. settle)
          else find (k + 1)
      in
      (find 0, 0)

let worst key = function
  | [] -> None
  | x :: rest ->
      Some (List.fold_left (fun w y -> if key y > key w then y else w) x rest)
