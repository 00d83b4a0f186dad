module Trace = Glc_ssa.Trace
module Sim = Glc_ssa.Sim
module Compiled = Glc_ssa.Compiled

type t = {
  compiled : Compiled.t;
  seed : int;
  dt : float;
  mutable state : float array;
  mutable now : float;
  mutable segment : int; (* seeds each run segment differently *)
  mutable log : Trace.t option; (* None until the first run *)
}

let create ?(seed = 42) ?(dt = 1.) model =
  if dt <= 0. then invalid_arg "Lab.create: dt <= 0";
  let compiled = Compiled.compile model in
  {
    compiled;
    seed;
    dt;
    state = Array.copy compiled.Compiled.c_initial;
    now = 0.;
    segment = 0;
    log = None;
  }

let time lab = lab.now

let index lab id = Compiled.species_index lab.compiled id

let amount lab id = lab.state.(index lab id)

let set lab id v = lab.state.(index lab id) <- Float.max 0. v

let run lab duration =
  let steps = duration /. lab.dt in
  if duration <= 0. || Float.abs (steps -. Float.round steps) > 1e-9 then
    invalid_arg "Lab.run: duration must be a positive multiple of dt";
  (* resume from the current state: same compiled reactions, new start *)
  let compiled = { lab.compiled with Compiled.c_initial = lab.state } in
  let cfg =
    Sim.config ~t0:lab.now
      ~t_end:(lab.now +. duration)
      ~dt:lab.dt
      ~seed:((lab.seed * 1_000_003) + lab.segment) ()
  in
  let trace, stats = Sim.run_compiled cfg compiled in
  lab.segment <- lab.segment + 1;
  lab.now <- lab.now +. duration;
  lab.state <-
    Array.of_list (List.map snd stats.Sim.final_state);
  let segment_tail =
    (* the first sample duplicates the previous segment's last one *)
    match lab.log with
    | None -> trace
    | Some _ -> Trace.sub trace ~from:1 ~until:(Trace.length trace)
  in
  lab.log <-
    Some
      (match lab.log with
      | None -> segment_tail
      | Some log -> Trace.concat log segment_tail)

let history lab =
  match lab.log with
  | Some log -> log
  | None ->
      (* no run yet: a single sample of the current state *)
      let r =
        Trace.Recorder.create ~names:lab.compiled.Compiled.c_names
          ~initial:lab.state ~t0:0. ~t_end:0. ~dt:lab.dt ()
      in
      Trace.Recorder.observe r 0. lab.state;
      Trace.Recorder.finish r

let reset lab =
  lab.state <- Array.copy lab.compiled.Compiled.c_initial;
  lab.now <- 0.;
  lab.segment <- 0;
  lab.log <- None
