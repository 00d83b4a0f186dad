module Model = Glc_model.Model
module Math = Glc_model.Math
module Metrics = Glc_obs.Metrics

type reaction = {
  c_id : string;
  c_delta_species : int array;
  c_delta_amount : float array;
  c_expr : Ir.expr;
  c_reads : int list;
  c_cost : int;
}

type t = {
  c_model : Model.t;
  c_names : string array;
  c_initial : float array;
  c_boundary : bool array;
  c_reactions : reaction array;
  c_affected : int array array;
  c_regs : int;
  c_eval_cost : int;
  c_affected_cost : int array;
}

exception
  Non_finite_propensity of {
    nf_model : string;
    nf_reaction : string;
    nf_value : float;
    nf_state : (string * float) list;
  }

let () =
  Printexc.register_printer (function
    | Non_finite_propensity { nf_model; nf_reaction; nf_value; nf_state } ->
        Some
          (Printf.sprintf
             "Non_finite_propensity: model %S, reaction %S evaluated to %g \
              in state [%s]"
             nf_model nf_reaction nf_value
             (String.concat "; "
                (List.map
                   (fun (id, v) -> Printf.sprintf "%s=%g" id v)
                   nf_state)))
    | _ -> None)

(* Cold path, deliberately out of line. *)
let non_finite t j p state =
  raise
    (Non_finite_propensity
       {
         nf_model = t.c_model.Model.m_id;
         nf_reaction = t.c_reactions.(j).c_id;
         nf_value = p;
         nf_state =
           Array.to_list (Array.mapi (fun i id -> (id, state.(i))) t.c_names);
       })

(* Every propensity that enters a simulator's cache goes through here:
   finite negatives clamp to zero (a kinetic law may dip below zero
   transiently in ill-parameterised models), but NaN and infinity raise.
   The previous [Float.max 0.] clamp returned NaN for a NaN law value
   (e.g. 0/0 at an empty state, or ln of a negative concentration),
   which flowed silently into [a0], made every comparison false and
   ended the run as if time had run out — a corrupted trace with no
   diagnostic. *)
let[@inline] clamp_checked t j p state =
  if Float.is_finite p then if p > 0. then p else 0.
  else non_finite t j p state

(* Parameters are substituted by their constant values first, so only
   species remain — which is also what lets the IR constant-fold
   parameter arithmetic like [k^n] away. *)
let substitute (m : Model.t) index (rate : Math.t) =
  let rate =
    Math.subst
      (fun id ->
        match Model.parameter_value m id with
        | Some v -> Some (Math.Const v)
        | None -> None)
      rate
  in
  let reads =
    List.filter_map (fun id -> Hashtbl.find_opt index id) (Math.idents rate)
    |> List.sort_uniq Int.compare
  in
  (rate, reads)

let compile ?(metrics = Metrics.noop) (m : Model.t) =
  (match Model.validate m with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Compiled.compile: %s" (String.concat "; " errs)));
  let live = Metrics.enabled metrics in
  let t_start = if live then Glc_obs.Clock.now () else 0. in
  let species = Array.of_list m.m_species in
  let names = Array.map (fun (s : Model.species) -> s.s_id) species in
  let boundary =
    Array.map (fun (s : Model.species) -> s.s_boundary) species
  in
  let index = Hashtbl.create 32 in
  Array.iteri (fun i id -> Hashtbl.replace index id i) names;
  let resolve id = Hashtbl.find_opt index id in
  let n_instrs = ref 0
  and n_regs = ref 0
  and n_cse = ref 0
  and n_folds = ref 0 in
  let reactions =
    Array.of_list
      (List.map
         (fun (r : Model.reaction) ->
           let deltas = Hashtbl.create 8 in
           let add sign (id, st) =
             let i = Hashtbl.find index id in
             let d = Option.value ~default:0. (Hashtbl.find_opt deltas i) in
             Hashtbl.replace deltas i (d +. (sign *. float_of_int st))
           in
           List.iter (add (-1.)) r.r_reactants;
           List.iter (add 1.) r.r_products;
           (* SBML boundaryCondition semantics: a boundary species may
              participate in a reaction (its amount still scales the
              kinetic law) but is never changed by firings, so its
              deltas are dropped here — the single place every
              simulation algorithm applies state changes from. *)
           let c_deltas =
             Hashtbl.fold (fun i d acc -> (i, d) :: acc) deltas []
             |> List.filter (fun (i, d) -> d <> 0. && not boundary.(i))
             |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
             |> Array.of_list
           in
           let rate, c_reads = substitute m index r.r_rate in
           let c_expr, st = Ir.compile ~resolve rate in
           n_instrs := !n_instrs + st.Ir.s_instrs;
           n_regs := max !n_regs c_expr.Ir.e_prog.Ir.p_regs;
           n_cse := !n_cse + st.Ir.s_cse_hits;
           n_folds := !n_folds + st.Ir.s_const_folds;
           {
             c_id = r.r_id;
             c_delta_species = Array.map fst c_deltas;
             c_delta_amount = Array.map snd c_deltas;
             c_expr;
             c_reads;
             c_cost = st.Ir.s_instrs;
           })
         m.m_reactions)
  in
  let dependents = Array.make (Array.length species) [] in
  Array.iteri
    (fun ri r ->
      List.iter (fun s -> dependents.(s) <- ri :: dependents.(s)) r.c_reads)
    reactions;
  Array.iteri (fun s l -> dependents.(s) <- List.rev l) dependents;
  let affected =
    Array.map
      (fun r ->
        Array.to_list r.c_delta_species
        |> List.concat_map (fun s -> dependents.(s))
        |> List.sort_uniq Int.compare |> Array.of_list)
      reactions
  in
  let affected_cost =
    Array.map
      (fun aff ->
        Array.fold_left (fun acc j -> acc + reactions.(j).c_cost) 0 aff)
      affected
  in
  if live then begin
    let c name = Metrics.counter metrics name in
    Metrics.Counter.add (c "ssa.ir.programs") (Array.length reactions);
    Metrics.Counter.add (c "ssa.ir.instructions_compiled") !n_instrs;
    Metrics.Counter.add (c "ssa.ir.cse_hits") !n_cse;
    Metrics.Counter.add (c "ssa.ir.const_folds") !n_folds;
    Metrics.observe_since metrics "ssa.ir.compile_seconds" t_start
  end;
  {
    c_model = m;
    c_names = names;
    c_initial = Array.map (fun (s : Model.species) -> s.s_initial) species;
    c_boundary = boundary;
    c_reactions = reactions;
    c_affected = affected;
    c_regs = !n_regs;
    c_eval_cost = Array.fold_left (fun acc r -> acc + r.c_cost) 0 reactions;
    c_affected_cost = affected_cost;
  }

let species_index t id =
  let n = Array.length t.c_names in
  let rec find i =
    if i >= n then raise Not_found
    else if String.equal t.c_names.(i) id then i
    else find (i + 1)
  in
  find 0

(* Runs reaction [j]'s program and stores its clamped result in
   [a.(j)]. The result operand is read here, inside every arm of the
   match, rather than through [Ir.eval]: under [-opaque] nothing is
   inlined across modules, so a float returned from [Ir] is boxed on
   every evaluation. *)
let[@inline] eval_into t regs state j a =
  let e = t.c_reactions.(j).c_expr in
  Ir.exec e.Ir.e_prog ~regs state;
  match e.Ir.e_result with
  | Ir.Reg r -> a.(j) <- clamp_checked t j regs.(r) state
  | Ir.Pool i -> a.(j) <- clamp_checked t j e.Ir.e_prog.Ir.p_pool.(i) state
  | Ir.State i -> a.(j) <- clamp_checked t j state.(i) state

let make_regs t = Array.make t.c_regs 0.

let propensities_into_in t ~regs state a =
  if Array.length a <> Array.length t.c_reactions then
    invalid_arg "Compiled.propensities_into_in: wrong buffer length";
  for i = 0 to Array.length a - 1 do
    eval_into t regs state i a
  done

let inert_reactions t =
  Array.to_list t.c_reactions
  |> List.filter_map (fun r ->
         if Array.length r.c_delta_species = 0 then Some r.c_id else None)

let refresh_affected_in t ~regs state ri a =
  let aff = t.c_affected.(ri) in
  for k = 0 to Array.length aff - 1 do
    eval_into t regs state aff.(k) a
  done;
  Array.length aff

let eval_cost t = t.c_eval_cost
let affected_cost t ri = t.c_affected_cost.(ri)

(* Once per event batch, never per firing. *)
let apply_events_at t state schedule =
  match Events.next schedule with
  | None -> None
  | Some (first, _) ->
      let time = first.Events.e_time in
      let rec go n schedule =
        match Events.next schedule with
        | Some (e, rest) when e.Events.e_time = time ->
            (match species_index t e.Events.e_species with
            | i -> state.(i) <- Float.max 0. e.Events.e_value
            | exception Not_found ->
                invalid_arg
                  (Printf.sprintf "event on unknown species %S"
                     e.Events.e_species));
            go (n + 1) rest
        | Some _ | None -> (n, schedule)
      in
      let n, rest = go 0 schedule in
      Some (time, n, rest)

let catch_up t state ~t0 schedule =
  let rec go n schedule =
    match Events.next schedule with
    | Some (e, _) when e.Events.e_time <= t0 -> (
        match apply_events_at t state schedule with
        | Some (_, m, rest) -> go (n + m) rest
        | None -> (n, schedule))
    | Some _ | None -> (n, schedule)
  in
  go 0 schedule
