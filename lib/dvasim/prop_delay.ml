module Trace = Glc_ssa.Trace
module Events = Glc_ssa.Events
module Sim = Glc_ssa.Sim
module Circuit = Glc_gates.Circuit
module Truth_table = Glc_logic.Truth_table

type measurement = {
  from_row : int;
  to_row : int;
  rising : bool;
  delays : float list;
  mean_delay : float;
  max_delay : float;
}

let measure ?(protocol = Protocol.default) ?(repeats = 5) ?settle_time
    ?timeout ~from_row ~to_row circuit =
  let expected = circuit.Circuit.expected in
  let out_from = Truth_table.output expected from_row in
  let out_to = Truth_table.output expected to_row in
  if out_from = out_to then None
  else begin
    let settle =
      match settle_time with
      | Some s -> s
      | None -> 2. *. protocol.Protocol.hold_time
    in
    let timeout =
      match timeout with
      | Some t -> t
      | None -> 5. *. protocol.Protocol.hold_time
    in
    let rising = out_to in
    let model = Circuit.model circuit in
    let threshold = protocol.Protocol.threshold in
    let delays = ref [] in
    for rep = 0 to repeats - 1 do
      let inputs = circuit.Circuit.inputs in
      let events =
        Events.of_list
          (Experiment.clamp protocol ~inputs ~at:0. from_row
          @ Experiment.clamp protocol ~inputs ~at:settle to_row)
      in
      let cfg =
        Sim.config ~dt:protocol.Protocol.dt
          ~seed:((protocol.Protocol.seed * 7919) + rep)
          ~algorithm:protocol.Protocol.algorithm
          ~t_end:(settle +. timeout) ()
      in
      let trace = Sim.run ~events cfg model in
      let out = Trace.column trace circuit.Circuit.output in
      let n = Array.length out in
      let rec find k =
        if k >= n then None
        else begin
          let t = Trace.time trace k in
          if t < settle then find (k + 1)
          else begin
            let crossed =
              if rising then out.(k) >= threshold else out.(k) < threshold
            in
            if crossed then Some (t -. settle) else find (k + 1)
          end
        end
      in
      match find 0 with
      | Some d -> delays := d :: !delays
      | None -> ()
    done;
    match !delays with
    | [] -> None
    | ds ->
        let mean =
          List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds)
        in
        Some
          {
            from_row;
            to_row;
            rising;
            delays = List.rev ds;
            mean_delay = mean;
            max_delay = List.fold_left Float.max neg_infinity ds;
          }
  end

let worst_case ?protocol ?repeats circuit =
  let nc = 1 lsl Circuit.arity circuit in
  let best = ref None in
  for r = 0 to nc - 1 do
    let from_row = r and to_row = (r + 1) mod nc in
    match measure ?protocol ?repeats ~from_row ~to_row circuit with
    | None -> ()
    | Some m -> (
        match !best with
        | Some b when b.mean_delay >= m.mean_delay -> ()
        | Some _ | None -> best := Some m)
  done;
  !best

let matrix ?protocol ?repeats circuit =
  let nc = 1 lsl Circuit.arity circuit in
  let acc = ref [] in
  for from_row = 0 to nc - 1 do
    for to_row = 0 to nc - 1 do
      if from_row <> to_row then
        match measure ?protocol ?repeats ~from_row ~to_row circuit with
        | Some m -> acc := m :: !acc
        | None -> ()
    done
  done;
  List.rev !acc

let recommended_hold ?protocol ?repeats ?(safety = 5.) circuit =
  if safety <= 0. then invalid_arg "Prop_delay.recommended_hold: safety";
  match matrix ?protocol ?repeats circuit with
  | [] -> None
  | ms ->
      let worst =
        List.fold_left (fun acc m -> Float.max acc m.max_delay) 0. ms
      in
      Some (Float.ceil (safety *. worst /. 50.) *. 50.)

let pp ppf m =
  Format.fprintf ppf
    "%d -> %d (%s): mean %.0f t.u., max %.0f t.u. over %d runs" m.from_row
    m.to_row
    (if m.rising then "rising" else "falling")
    m.mean_delay m.max_delay (List.length m.delays)
