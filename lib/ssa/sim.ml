module Model = Glc_model.Model

type algorithm =
  | Direct
  | Tau_leaping of { epsilon : float }

type config = {
  t0 : float;
  t_end : float;
  dt : float;
  seed : int;
  algorithm : algorithm;
}

let config ?(t0 = 0.) ?(dt = 1.) ?(seed = 42) ?(algorithm = Direct) ~t_end ()
    =
  if not (Float.is_finite t0 && Float.is_finite t_end) then
    invalid_arg "Sim.config: non-finite time";
  if t_end < t0 then invalid_arg "Sim.config: t_end < t0";
  if not (dt > 0. && Float.is_finite dt) then
    invalid_arg "Sim.config: dt must be finite and > 0";
  { t0; t_end; dt; seed; algorithm }

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
  mutable n_rej : int; (* tau-leap steps rejected (negative overshoot) *)
}

let make_tot () = { n_evals = 0; n_instrs = 0; n_rej = 0 }

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
     recorded initial state, exactly as under tau-leaping. *)
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

(* Explicit tau-leaping. The leap length follows Cao, Gillespie & Petzold
   (2006): bound the expected relative change of every species by
   [epsilon], estimating the drift and diffusion of each species from the
   current propensities. Leaps shorter than a few expected SSA steps are
   not worth their bias, so the loop falls back to exact direct-method
   steps there. A leap whose Poisson counts would drive any species
   negative is rejected — tau is halved and the counts redrawn (the
   step-rejection remedy of Cao, Gillespie & Petzold 2005). The previous
   behaviour, clamping negatives to zero after committing the leap, was
   a real correctness bug: the products of the overshooting channel were
   credited in full while the reactants gave up fewer molecules than
   were consumed, creating mass out of nothing and corrupting every
   propensity evaluated downstream. *)
let run_tau_leap rng (c : Compiled.t) cfg ~epsilon events recorder tot =
  if not (epsilon > 0. && epsilon < 1.) then
    invalid_arg "Sim: tau-leaping epsilon must be in (0, 1)";
  let state = Array.copy c.c_initial in
  let fired = ref 0 in
  let observe t = Trace.Recorder.observe recorder t state in
  let n_species = Array.length c.c_names in
  let n_reactions = Array.length c.c_reactions in
  let mu = Array.make n_species 0. in
  let sigma2 = Array.make n_species 0. in
  let choose_tau a =
    Array.fill mu 0 n_species 0.;
    Array.fill sigma2 0 n_species 0.;
    for j = 0 to n_reactions - 1 do
      let r = c.c_reactions.(j) in
      for k = 0 to Array.length r.c_delta_species - 1 do
        let i = r.c_delta_species.(k) and d = r.c_delta_amount.(k) in
        mu.(i) <- mu.(i) +. (d *. a.(j));
        sigma2.(i) <- sigma2.(i) +. (d *. d *. a.(j))
      done
    done;
    let tau = ref infinity in
    for i = 0 to n_species - 1 do
      if not c.c_boundary.(i) then begin
        (* g_i = 2 is a conservative bound for at-most-second-order
           kinetics *)
        let bound = Float.max (epsilon *. state.(i) /. 2.) 1. in
        if mu.(i) <> 0. then tau := Float.min !tau (bound /. Float.abs mu.(i));
        if sigma2.(i) > 0. then
          tau := Float.min !tau (bound *. bound /. sigma2.(i))
      end
    done;
    !tau
  in
  let n0, events = Compiled.catch_up c state ~t0:cfg.t0 events in
  let applied = ref n0 in
  observe cfg.t0;
  let a = Array.make n_reactions 0. in
  let regs = Compiled.make_regs c in
  let refresh_all () =
    Compiled.propensities_into_in c ~regs state a;
    tot.n_evals <- tot.n_evals + n_reactions;
    tot.n_instrs <- tot.n_instrs + Compiled.eval_cost c
  in
  (* The cache [a] is kept authoritative across iterations, so only the
     exact-fallback branch can update it sparsely: a leap fires many
     reactions at once, and events clamp arbitrary species, so both are
     followed by a full refresh. *)
  refresh_all ();
  (* One attempted leap of length [tau]: draw every channel's Poisson
     count into [dstate] first, commit only if no species would go
     negative. Committing returns true; the caller halves tau and
     redraws on false. *)
  let dstate = Array.make n_species 0. in
  let try_leap tau =
    Array.fill dstate 0 n_species 0.;
    let k_tot = ref 0 in
    for j = 0 to n_reactions - 1 do
      if a.(j) > 0. then begin
        let k = Rng.poisson rng ~mean:(a.(j) *. tau) in
        if k > 0 then begin
          k_tot := !k_tot + k;
          let r = c.c_reactions.(j) in
          for m = 0 to Array.length r.c_delta_species - 1 do
            let i = r.c_delta_species.(m) in
            dstate.(i) <- dstate.(i) +. (r.c_delta_amount.(m) *. float_of_int k)
          done
        end
      end
    done;
    let ok = ref true in
    for i = 0 to n_species - 1 do
      if state.(i) +. dstate.(i) < 0. then ok := false
    done;
    if !ok then begin
      for i = 0 to n_species - 1 do
        state.(i) <- state.(i) +. dstate.(i)
      done;
      fired := !fired + !k_tot
    end;
    !ok
  in
  (* Halving caps out after 32 rejections (a factor of 4e9 — by then the
     leap means are far below one count and still overdrawing, which a
     real model cannot sustain); the caller then takes one exact step. *)
  let max_rejections = 32 in
  let rec leap tau rejections =
    if try_leap tau then Some tau
    else begin
      tot.n_rej <- tot.n_rej + 1;
      if rejections < max_rejections then leap (tau /. 2.) (rejections + 1)
      else None
    end
  in
  let rec loop t events =
    if t < cfg.t_end then begin
      let a0 = total a in
      let t_ev = Events.next_time events in
      if a0 <= 0. then (if t_ev <= cfg.t_end then jump events)
      else begin
        let tau_sel = choose_tau a in
        if tau_sel < 10. /. a0 then exact_step t events a0 t_ev
        else begin
          let t_stop = Float.min cfg.t_end t_ev in
          match leap (Float.min tau_sel (t_stop -. t)) 0 with
          | None ->
              (* pathological: even a vanishing leap overdraws — resolve
                 the contention one exact firing at a time *)
              exact_step t events a0 t_ev
          | Some tau ->
              let t' = t +. tau in
              if t' >= t_ev && t_ev <= cfg.t_end then jump events
              else begin
                observe t';
                refresh_all ();
                loop t' events
              end
        end
      end
    end
  and exact_step t events a0 t_ev =
    (* exact fallback: one direct-method step, updated sparsely *)
    let tau = Rng.exponential rng ~rate:a0 in
    let t' = t +. tau in
    if t' >= t_ev && t_ev <= cfg.t_end then jump events
    else if t' < cfg.t_end then begin
      let mu_r = select a (Rng.float rng *. a0) in
      fire c state mu_r;
      incr fired;
      tot.n_evals <-
        tot.n_evals + Compiled.refresh_affected_in c ~regs state mu_r a;
      tot.n_instrs <- tot.n_instrs + Compiled.affected_cost c mu_r;
      observe t';
      loop t' events
    end
  and jump events =
    (* the next batch of interventions: apply, record, refresh every
       propensity (events clamp arbitrary species), go on from there *)
    match Compiled.apply_events_at c state events with
    | Some (te, m, rest) ->
        applied := !applied + m;
        observe te;
        refresh_all ();
        loop te rest
    | None -> ()
  in
  loop cfg.t0 events;
  (state, !fired, !applied)

module Metrics = Glc_obs.Metrics

let algorithm_label = function
  | Direct -> "direct"
  | Tau_leaping _ -> "tau_leaping"

(* One registry interaction per run: the loops above count into [tot];
   this flushes the totals after the fact. *)
let flush_metrics metrics cfg ~fired ~applied ~samples tot ~t_start =
  let algo = algorithm_label cfg.algorithm in
  let c name = Metrics.counter metrics name in
  Metrics.Counter.incr (c ("ssa.runs." ^ algo));
  Metrics.Counter.add (c "ssa.reactions_fired") fired;
  Metrics.Counter.add (c "ssa.events_applied") applied;
  Metrics.Counter.add (c "ssa.propensity_evals") tot.n_evals;
  Metrics.Counter.add (c "ssa.tau_leap_rejections") tot.n_rej;
  Metrics.Counter.add (c "ssa.trace_samples") samples;
  Metrics.Counter.add (c "ssa.ir.instructions") tot.n_instrs;
  Metrics.observe_since metrics ("ssa.run_seconds." ^ algo) t_start

let simulate ?(events = Events.empty) ?(metrics = Metrics.noop) ?columns ~rng
    cfg (c : Compiled.t) =
  let live = Metrics.enabled metrics in
  let t_start = if live then Glc_obs.Clock.now () else 0. in
  let recorder =
    Trace.Recorder.create ?columns ~names:c.c_names ~initial:c.c_initial
      ~t0:cfg.t0 ~t_end:cfg.t_end ~dt:cfg.dt ()
  in
  let tot = make_tot () in
  let state, fired, applied =
    match cfg.algorithm with
    | Direct -> run_direct rng c cfg events recorder tot
    | Tau_leaping { epsilon } ->
        run_tau_leap rng c cfg ~epsilon events recorder tot
  in
  let trace = Trace.Recorder.finish recorder in
  if live then
    flush_metrics metrics cfg ~fired ~applied ~samples:(Trace.length trace)
      tot ~t_start;
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
