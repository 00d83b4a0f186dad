type config = { t0 : float; t_end : float; dt : float; step : float }

let config ?(t0 = 0.) ?(dt = 1.) ?(step = 0.1) ~t_end () =
  if t_end < t0 then invalid_arg "Ode.config: t_end < t0";
  if step <= 0. then invalid_arg "Ode.config: step <= 0";
  if step > dt then invalid_arg "Ode.config: step > dt";
  { t0; t_end; dt; step }

(* The RK4 workspace: every buffer a step touches, allocated once per
   run, so stepping allocates nothing. The deltas of all reactions are
   flattened in reaction order (within a reaction, in compiled delta
   order), so each species accumulates its fluxes in exactly the order a
   per-reaction loop over [c_deltas] would — the derivative, and with it
   every trajectory, is bit-identical to that straightforward form. *)
type workspace = {
  c : Compiled.t;
  regs : float array;
  a : float array;  (** propensities, one per reaction *)
  d_species : int array;
  d_reaction : int array;
  d_amount : float array;
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  mid : float array;  (** the probe state of the current stage *)
  mutable steps : int;
}

let workspace (c : Compiled.t) =
  let n = Array.length c.Compiled.c_initial in
  let deltas =
    Array.to_list c.Compiled.c_reactions
    |> List.mapi (fun j r ->
           (* boundary species have zero derivative *)
           List.filter_map
             (fun (i, d) ->
               if c.Compiled.c_boundary.(i) then None else Some (i, j, d))
             r.Compiled.c_deltas)
    |> List.concat |> Array.of_list
  in
  {
    c;
    regs = Compiled.make_regs c;
    a = Array.make (Array.length c.Compiled.c_reactions) 0.;
    d_species = Array.map (fun (i, _, _) -> i) deltas;
    d_reaction = Array.map (fun (_, j, _) -> j) deltas;
    d_amount = Array.map (fun (_, _, d) -> d) deltas;
    k1 = Array.make n 0.;
    k2 = Array.make n 0.;
    k3 = Array.make n 0.;
    k4 = Array.make n 0.;
    mid = Array.make n 0.;
    steps = 0;
  }

(* dx/dt at the given state, written into [dx] *)
let derivative w state dx =
  Array.fill dx 0 (Array.length dx) 0.;
  Compiled.propensities_into_in w.c ~regs:w.regs state w.a;
  for k = 0 to Array.length w.d_species - 1 do
    let i = w.d_species.(k) in
    dx.(i) <- dx.(i) +. (w.d_amount.(k) *. w.a.(w.d_reaction.(k)))
  done

(* One classic fourth-order Runge–Kutta step of size [h], in place,
   clamping at zero. *)
let rk4_step w state h =
  let n = Array.length state in
  let half = h /. 2. in
  derivative w state w.k1;
  for i = 0 to n - 1 do
    w.mid.(i) <- state.(i) +. (half *. w.k1.(i))
  done;
  derivative w w.mid w.k2;
  for i = 0 to n - 1 do
    w.mid.(i) <- state.(i) +. (half *. w.k2.(i))
  done;
  derivative w w.mid w.k3;
  for i = 0 to n - 1 do
    w.mid.(i) <- state.(i) +. (h *. w.k3.(i))
  done;
  derivative w w.mid w.k4;
  let sixth = h /. 6. in
  for i = 0 to n - 1 do
    let dx =
      sixth
      *. (w.k1.(i) +. (2. *. w.k2.(i)) +. (2. *. w.k3.(i)) +. w.k4.(i))
    in
    state.(i) <- Float.max 0. (state.(i) +. dx)
  done;
  w.steps <- w.steps + 1

let apply_events_at (c : Compiled.t) state schedule =
  match Events.next schedule with
  | None -> None
  | Some (first, _) ->
      let t = first.Events.e_time in
      let rec go n schedule =
        match Events.next schedule with
        | Some (e, rest) when e.Events.e_time = t ->
            (match Compiled.species_index c e.Events.e_species with
            | i -> state.(i) <- Float.max 0. e.Events.e_value
            | exception Not_found ->
                invalid_arg
                  (Printf.sprintf "Ode: event on unknown species %S"
                     e.Events.e_species));
            go (n + 1) rest
        | Some _ | None -> (n, schedule)
      in
      let n, rest = go 0 schedule in
      Some (t, n, rest)

(* The integration loop shared by every entry point: steps of at most
   [cfg.step], split at event times so the input steps stay sharp.
   [observe t] runs after every change of [state] — at [t0] once the
   events due by then are applied, after each step, after each batch of
   simultaneous events. [continue t'] runs before each step with the
   time the step will reach; [false] ends the run without taking it. *)
let integrate w cfg events state ~observe ~continue =
  let rec catch_up events =
    match Events.next events with
    | Some (e, _) when e.Events.e_time <= cfg.t0 -> (
        match apply_events_at w.c state events with
        | Some (_, _, rest) -> catch_up rest
        | None -> events)
    | Some _ | None -> events
  in
  let events = catch_up events in
  observe cfg.t0;
  let rec loop t events =
    if t < cfg.t_end then begin
      let t_ev = Events.next_time events in
      let t_stop = Float.min cfg.t_end t_ev in
      let h = Float.min cfg.step (t_stop -. t) in
      if h > 0. then begin
        if continue (t +. h) then begin
          rk4_step w state h;
          observe (t +. h);
          loop (t +. h) events
        end
      end
      else if t_ev <= cfg.t_end then begin
        match apply_events_at w.c state events with
        | Some (te, _, rest) ->
            observe te;
            loop te rest
        | None -> ()
      end
    end
  in
  loop cfg.t0 events

let run_compiled ?(events = Events.empty) cfg (c : Compiled.t) =
  let w = workspace c in
  let state = Array.copy c.Compiled.c_initial in
  let recorder =
    Trace.Recorder.create ~names:c.Compiled.c_names ~initial:state
      ~t0:cfg.t0 ~t_end:cfg.t_end ~dt:cfg.dt
  in
  integrate w cfg events state
    ~observe:(fun t -> Trace.Recorder.observe recorder t state)
    ~continue:(fun _ -> true);
  Trace.Recorder.finish recorder

let run ?events cfg model = run_compiled ?events cfg (Compiled.compile model)

type until = { u_time : float option; u_steps : int }

let run_until ?(events = Events.empty) ~from cfg (c : Compiled.t) holds =
  let w = workspace c in
  let state = Array.copy c.Compiled.c_initial in
  (* the trace grid of [run_compiled], and its fill rule: a grid point
     holds the state of the last change at or before it, so every point
     strictly before the next change's time holds the current state *)
  let samples =
    int_of_float (Float.floor ((cfg.t_end -. cfg.t0) /. cfg.dt)) + 1
  in
  let grid k = cfg.t0 +. (float_of_int k *. cfg.dt) in
  let next = ref 0 and hit = ref None in
  let scan until =
    while Option.is_none !hit && !next < samples && grid !next < until do
      let g = grid !next in
      if g >= from && holds state then hit := Some g;
      incr next
    done;
    Option.is_none !hit
  in
  integrate w cfg events state ~observe:ignore ~continue:scan;
  ignore (scan infinity);
  { u_time = !hit; u_steps = w.steps }

let steady_state ?(max_time = 100_000.) ?(tolerance = 1e-9) model =
  let c = Compiled.compile model in
  let w = workspace c in
  let state = Array.copy c.Compiled.c_initial in
  let n = Array.length state in
  let before = Array.make n 0. in
  let h = 0.5 in
  let t = ref 0. in
  let settled = ref false in
  while (not !settled) && !t < max_time do
    Array.blit state 0 before 0 n;
    rk4_step w state h;
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
