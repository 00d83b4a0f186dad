(* The reference ODE stepper, shared by the test suites: Ode's RK4 as it
   was before it moved onto an allocation-free workspace — a fresh
   propensity array per derivative, five fresh arrays per step, the
   trace recorded in full. Every production entry point must match it
   bit for bit (test_ssa), and its settled state is the containment
   oracle for the interval certifier (test_symbolic). *)

module Compiled = Glc_ssa.Compiled
module Events = Glc_ssa.Events
module Ode = Glc_ssa.Ode
module Trace = Glc_ssa.Trace

(* a compiled reaction's deltas as (species, amount) pairs *)
let deltas (r : Compiled.reaction) =
  List.combine
    (Array.to_list r.Compiled.c_delta_species)
    (Array.to_list r.Compiled.c_delta_amount)

(* Every clamped propensity in [state], through the production entry
   point and a fresh scratch register file. *)
let propensities c state =
  let a = Array.make (Array.length c.Compiled.c_reactions) 0. in
  Compiled.propensities_into_in c ~regs:(Compiled.make_regs c) state a;
  a

let derivative (c : Compiled.t) state dx =
  Array.fill dx 0 (Array.length dx) 0.;
  let a = propensities c state in
  Array.iteri
    (fun j r ->
      List.iter
        (fun (i, d) ->
          if not c.Compiled.c_boundary.(i) then
            dx.(i) <- dx.(i) +. (d *. a.(j)))
        (deltas r))
    c.Compiled.c_reactions;
  dx

let rk4_step (c : Compiled.t) state h =
  let n = Array.length state in
  let k1 = derivative c state (Array.make n 0.) in
  let mid1 = Array.mapi (fun i x -> x +. (h /. 2. *. k1.(i))) state in
  let k2 = derivative c mid1 (Array.make n 0.) in
  let mid2 = Array.mapi (fun i x -> x +. (h /. 2. *. k2.(i))) state in
  let k3 = derivative c mid2 (Array.make n 0.) in
  let last = Array.mapi (fun i x -> x +. (h *. k3.(i))) state in
  let k4 = derivative c last (Array.make n 0.) in
  Array.iteri
    (fun i x ->
      let dx =
        h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))
      in
      state.(i) <- Float.max 0. (x +. dx))
    state

(* Every event scheduled at the head time; the time and the rest. The
   reference oracles in test_ssa apply events through this too. *)
let apply_events_at (c : Compiled.t) state schedule =
  match Events.next schedule with
  | None -> None
  | Some (first, _) ->
      let t = first.Events.e_time in
      let rec go schedule =
        match Events.next schedule with
        | Some (e, rest) when e.Events.e_time = t ->
            state.(Compiled.species_index c e.Events.e_species) <-
              Float.max 0. e.Events.e_value;
            go rest
        | Some _ | None -> schedule
      in
      Some (t, go schedule)

(* the events due by [t0], applied; the rest *)
let rec catch_up c state ~t0 events =
  match Events.next events with
  | Some (e, _) when e.Events.e_time <= t0 -> (
      match apply_events_at c state events with
      | Some (_, rest) -> catch_up c state ~t0 rest
      | None -> events)
  | Some _ | None -> events

let run ?(events = Events.empty) (cfg : Ode.config) model =
  let c = Compiled.compile model in
  let state = Array.copy c.Compiled.c_initial in
  let recorder =
    Trace.Recorder.create ~names:c.Compiled.c_names ~initial:state
      ~t0:cfg.Ode.t0 ~t_end:cfg.Ode.t_end ~dt:cfg.Ode.dt ()
  in
  let events = catch_up c state ~t0:cfg.Ode.t0 events in
  Trace.Recorder.observe recorder cfg.Ode.t0 state;
  let rec loop t events =
    if t < cfg.Ode.t_end then begin
      let t_ev = Events.next_time events in
      let t_stop = Float.min cfg.Ode.t_end t_ev in
      let h = Float.min cfg.Ode.step (t_stop -. t) in
      if h > 0. then begin
        rk4_step c state h;
        Trace.Recorder.observe recorder (t +. h) state;
        loop (t +. h) events
      end
      else if t_ev <= cfg.Ode.t_end then begin
        match apply_events_at c state events with
        | Some (te, rest) ->
            Trace.Recorder.observe recorder te state;
            loop te rest
        | None -> ()
      end
    end
  in
  loop cfg.Ode.t0 events;
  Trace.Recorder.finish recorder

(* Integrates with step 0.5 until the largest relative change per unit
   time falls below [tolerance], or [max_time] passes, and returns the
   settled amounts — a DC operating-point analysis. *)
let steady_state ~max_time ~tolerance model =
  let c = Compiled.compile model in
  let state = Array.copy c.Compiled.c_initial in
  let n = Array.length state in
  let h = 0.5 in
  let t = ref 0. in
  let settled = ref false in
  while (not !settled) && !t < max_time do
    let before = Array.copy state in
    rk4_step c state h;
    t := !t +. h;
    let change = ref 0. in
    for i = 0 to n - 1 do
      let scale = Float.max 1. (Float.abs before.(i)) in
      change :=
        Float.max !change (Float.abs (state.(i) -. before.(i)) /. scale)
    done;
    settled := !change /. h < tolerance
  done;
  Array.to_list (Array.mapi (fun i id -> (id, state.(i))) c.Compiled.c_names)
