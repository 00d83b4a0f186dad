module Model = Glc_model.Model

type config = {
  t0 : float;
  t_end : float;
  dt : float;
  seed : int;
}

let config ?(t0 = 0.) ?(dt = 1.) ?(seed = 42) ~t_end () =
  if not (Float.is_finite t0 && Float.is_finite t_end) then
    invalid_arg "Sim.config: non-finite time";
  if t_end < t0 then invalid_arg "Sim.config: t_end < t0";
  if not (dt > 0. && Float.is_finite dt) then
    invalid_arg "Sim.config: dt must be finite and > 0";
  { t0; t_end; dt; seed }

type stats = {
  reactions_fired : int;
  events_applied : int;
  final_state : (string * float) list;
}

(* Applies reaction [mu]'s deltas; each count is clamped at zero. *)
let fire (c : Compiled.t) state mu =
  let r = c.c_reactions.(mu) in
  let species = r.c_delta_species and amount = r.c_delta_amount in
  for k = 0 to Array.length species - 1 do
    let i = species.(k) in
    state.(i) <- Float.max 0. (state.(i) +. amount.(k))
  done

(* The total propensity, summed left to right. *)
let[@inline] total a =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. a.(i)
  done;
  !acc

(* Selects a reaction index from propensities [a] given a uniform draw
   scaled by their sum. Floating-point rounding can leave the running
   cumulative sum short of [target] even though [target < sum a]; the
   scan must then fall back to the last reaction with positive
   propensity, never to a zero-propensity one (e.g. a reactant at count
   0), which must not fire. Inlined into the direct method's loop, so
   [target] is never boxed. *)
let[@inline] select a target =
  let n = Array.length a in
  let acc = ref 0. and last = ref (-1) and chosen = ref (-1) and i = ref 0 in
  while !chosen < 0 && !i < n do
    let ai = a.(!i) in
    if ai > 0. then begin
      acc := !acc +. ai;
      if target < !acc then chosen := !i else last := !i
    end;
    incr i
  done;
  let mu = if !chosen >= 0 then !chosen else !last in
  if mu < 0 then invalid_arg "Sim.select: no reaction has positive propensity";
  mu

(* Per-run instrumentation totals, accumulated in plain mutable fields
   inside the hot loops and flushed to the metrics registry once per
   run — the inner loops never touch an atomic or a clock. *)
type tot = {
  mutable n_evals : int; (* propensity evaluations *)
  mutable n_instrs : int; (* IR instructions those evaluations executed *)
}

let make_tot () = { n_evals = 0; n_instrs = 0 }

(* Gillespie's direct method with sparse propensity updates: the cached
   array [a] is kept authoritative — after a firing only the reactions
   reachable from the fired reaction's deltas via the compile-time
   dependency closure are re-evaluated, and [a0] is recomputed by
   summing the cache. Because the cached entries equal fresh
   evaluations and the sum runs in the same index order, the RNG draw
   sequence — and therefore the trajectory — is byte-identical to
   re-evaluating every propensity at every step (the reference direct
   method in [test_ssa]), while propensity evaluations drop from O(R)
   to O(deps) per firing.

   A firing allocates nothing. The loop is a [while] over local float
   refs (a recursive [loop t] would box [t] every step); uniforms come
   from [Rng.bits53] as unboxed ints; propensities land in [a] inside
   [Compiled]; and the recorder is called only when a change passes the
   next grid time, with the live state before the change. Under
   [-opaque] (dune's dev profile) nothing is inlined across modules, so
   no float may cross a module boundary, or reach a local closure, once
   per firing. *)
let run_direct rng (c : Compiled.t) cfg events recorder tot =
  let state = Array.copy c.c_initial in
  let fired = ref 0 in
  let n_r = Array.length c.c_reactions in
  let a = Array.make n_r 0. in
  let regs = Compiled.make_regs c in
  let refresh_all () =
    Compiled.propensities_into_in c ~regs state a;
    tot.n_evals <- tot.n_evals + n_r;
    tot.n_instrs <- tot.n_instrs + Compiled.eval_cost c
  in
  (* Interventions scheduled at or before t0 initialise the state. *)
  let n0, events = Compiled.catch_up c state ~t0:cfg.t0 events in
  let applied = ref n0 and events = ref events in
  (* Observe only after catch-up so events at t0 are part of the
     recorded initial state. *)
  let next_grid = ref (Trace.Recorder.advance recorder cfg.t0 state) in
  refresh_all ();
  let t_end = cfg.t_end in
  let t = ref cfg.t0 and t_ev = ref (Events.next_time !events) in
  let running = ref true in
  while !running && !t < t_end do
    let a0 = total a in
    (* no draw when nothing can fire: the next intervention comes first *)
    let t' =
      if a0 > 0. then
        let u = float_of_int (Rng.bits53 rng) *. 0x1.0p-53 in
        !t +. (-.log (1. -. u) /. a0)
      else infinity
    in
    if t' >= !t_ev && !t_ev <= t_end then begin
      if !t_ev < !t then invalid_arg "Sim: time went backwards";
      if !next_grid < !t_ev then
        next_grid := Trace.Recorder.advance recorder !t_ev state;
      match Compiled.apply_events_at c state !events with
      | Some (te, n, rest) ->
          applied := !applied + n;
          t := te;
          events := rest;
          t_ev := Events.next_time rest;
          (* Events clamp arbitrary species: the cache is stale. *)
          refresh_all ()
      | None -> assert false (* t_ev finite implies an event exists *)
    end
    else if t' < t_end then begin
      let mu = select a (float_of_int (Rng.bits53 rng) *. 0x1.0p-53 *. a0) in
      if t' < !t then invalid_arg "Sim: time went backwards";
      if !next_grid < t' then
        next_grid := Trace.Recorder.advance recorder t' state;
      fire c state mu;
      incr fired;
      tot.n_evals <-
        tot.n_evals + Compiled.refresh_affected_in c ~regs state mu a;
      tot.n_instrs <- tot.n_instrs + Compiled.affected_cost c mu;
      t := t'
    end
    else running := false
  done;
  ignore (Trace.Recorder.advance recorder infinity state);
  (state, !fired, !applied)

module Metrics = Glc_obs.Metrics

(* One registry interaction per run: the loops above count into [tot];
   this flushes the totals after the fact. *)
let flush_metrics metrics ~fired ~applied ~samples tot ~t_start =
  let c name = Metrics.counter metrics name in
  Metrics.Counter.incr (c "ssa.runs.direct");
  Metrics.Counter.add (c "ssa.reactions_fired") fired;
  Metrics.Counter.add (c "ssa.events_applied") applied;
  Metrics.Counter.add (c "ssa.propensity_evals") tot.n_evals;
  Metrics.Counter.add (c "ssa.trace_samples") samples;
  Metrics.Counter.add (c "ssa.ir.instructions") tot.n_instrs;
  Metrics.observe_since metrics "ssa.run_seconds.direct" t_start

let simulate ?(events = Events.empty) ?(metrics = Metrics.noop) ?columns ~rng
    cfg (c : Compiled.t) =
  let live = Metrics.enabled metrics in
  let t_start = if live then Glc_obs.Clock.now () else 0. in
  let recorder =
    Trace.Recorder.create ?columns ~names:c.c_names ~initial:c.c_initial
      ~t0:cfg.t0 ~t_end:cfg.t_end ~dt:cfg.dt ()
  in
  let tot = make_tot () in
  let state, fired, applied = run_direct rng c cfg events recorder tot in
  let trace = Trace.Recorder.finish recorder in
  if live then
    flush_metrics metrics ~fired ~applied ~samples:(Trace.length trace) tot
      ~t_start;
  let final_state =
    Array.to_list (Array.mapi (fun i id -> (id, state.(i))) c.c_names)
  in
  (trace, { reactions_fired = fired; events_applied = applied; final_state })

let run_compiled_rng ?events ?metrics ~rng ~record cfg c =
  simulate ?events ?metrics ~columns:record ~rng cfg c

let run_compiled ?events ?metrics cfg c =
  simulate ?events ?metrics ~rng:(Rng.create cfg.seed) cfg c

let run_with_stats ?events ?metrics cfg model =
  run_compiled ?events ?metrics cfg (Compiled.compile ?metrics model)

let run ?events ?metrics cfg model =
  fst (run_with_stats ?events ?metrics cfg model)
