type config = { t0 : float; t_end : float; dt : float; step : float }

let config ?(t0 = 0.) ?(dt = 1.) ?(step = 0.1) ~t_end () =
  if not (Float.is_finite t0 && Float.is_finite t_end && Float.is_finite dt)
  then invalid_arg "Ode.config: non-finite time";
  if t_end < t0 then invalid_arg "Ode.config: t_end < t0";
  if not (step > 0.) then invalid_arg "Ode.config: step <= 0";
  if step > dt then invalid_arg "Ode.config: step > dt";
  { t0; t_end; dt; step }

(* The RK4 workspace: every buffer a step touches, allocated once per
   run. The deltas of all reactions are flattened in reaction order
   (within a reaction, in compiled delta order), so each species
   accumulates its fluxes in exactly the order a per-reaction loop over
   the compiled deltas would — the derivative, and with it every
   trajectory, is bit-identical to that straightforward form. Boundary
   species need no filter here: [Compiled] already dropped their
   deltas, so their derivative is zero. *)
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
  let rs = Array.to_list c.Compiled.c_reactions in
  {
    c;
    regs = Compiled.make_regs c;
    a = Array.make (Array.length c.Compiled.c_reactions) 0.;
    d_species =
      Array.concat (List.map (fun r -> r.Compiled.c_delta_species) rs);
    d_reaction =
      Array.concat
        (List.mapi
           (fun j r -> Array.make (Array.length r.Compiled.c_delta_species) j)
           rs);
    d_amount = Array.concat (List.map (fun r -> r.Compiled.c_delta_amount) rs);
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

(* The integration loop shared by every entry point: steps of at most
   [cfg.step], split at event times so the input steps stay sharp.
   [observe t] runs after every change of [state] — at [t0] once the
   events due by then are applied, after each step, after each batch of
   simultaneous events. [continue t'] runs before each step with the
   time the step will reach; [false] ends the run without taking it. *)
let integrate w cfg events state ~observe ~continue =
  let _, events = Compiled.catch_up w.c state ~t0:cfg.t0 events in
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
        match Compiled.apply_events_at w.c state events with
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
      ~t0:cfg.t0 ~t_end:cfg.t_end ~dt:cfg.dt ()
  in
  integrate w cfg events state
    ~observe:(fun t -> Trace.Recorder.observe recorder t state)
    ~continue:(fun _ -> true);
  Trace.Recorder.finish recorder

let run ?events cfg model = run_compiled ?events cfg (Compiled.compile model)

type until = { u_time : float option; u_steps : int }

let run_until ?(events = Events.empty) ?init ~from cfg c holds =
  let w = workspace c in
  let state = Array.copy (Option.value init ~default:c.Compiled.c_initial) in
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
