module Circuit = Glc_gates.Circuit

type measurement = {
  transition : Transition.t;
  delays : float list;
  mean_delay : float;
  max_delay : float;
}

(* the SSA's stationary distribution is not the ODE's fixed point, so
   every repetition settles on the from-row itself *)
let measure ?(protocol = Protocol.default) ?(repeats = 5) ~from_row ~to_row
    circuit =
  match Transition.make circuit.Circuit.expected ~from_row ~to_row with
  | None -> None
  | Some tr -> (
      let hold = protocol.Protocol.hold_time in
      let model = Circuit.model circuit in
      let delays =
        List.filter_map
          (fun rep ->
            let seed = (protocol.Protocol.seed * 7919) + rep in
            fst
              (Transition.first_crossing ~protocol ~settle:(2. *. hold)
                 ~timeout:(5. *. hold) circuit
                 (Transition.Ssa (model, seed))
                 tr))
          (List.init repeats Fun.id)
      in
      match delays with
      | [] -> None
      | ds ->
          (* summed last repetition first: the order sets the mean's last bit *)
          let mean =
            List.fold_left ( +. ) 0. (List.rev ds)
            /. float_of_int (List.length ds)
          in
          Some
            {
              transition = tr;
              delays = ds;
              mean_delay = mean;
              max_delay = List.fold_left Float.max neg_infinity ds;
            })

let worst_case ?protocol ?repeats circuit =
  Transition.worst
    (fun m -> m.mean_delay)
    (List.filter_map
       (fun (tr : Transition.t) ->
         measure ?protocol ?repeats ~from_row:tr.from_row ~to_row:tr.to_row
           circuit)
       (Transition.adjacent circuit.Circuit.expected))

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

let pp ppf { transition = tr; delays; mean_delay; max_delay } =
  Format.fprintf ppf
    "%d -> %d (%s): mean %.0f t.u., max %.0f t.u. over %d runs" tr.from_row
    tr.to_row
    (if tr.rising then "rising" else "falling")
    mean_delay max_delay (List.length delays)
