(* Tests for glc_ssa: the RNG, trace recording, event schedules, model
   compilation, the direct method against its two exact oracles (the
   full-recompute direct method and the next-reaction method) and the
   ODE. *)

module Rng = Glc_ssa.Rng
module Trace = Glc_ssa.Trace
module Events = Glc_ssa.Events
module Compiled = Glc_ssa.Compiled
module Sim = Glc_ssa.Sim
module Model = Glc_model.Model
module Math = Glc_model.Math

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf eps = Alcotest.check (Alcotest.float eps)
let checks = Alcotest.check Alcotest.string

let deltas = Ode_oracle.deltas
let propensities = Ode_oracle.propensities

(* ---- rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 17 and b = Rng.create 17 in
  for _ = 1 to 100 do
    checkb "same stream" true (Int64.equal (Rng.bits64 a) (Rng.bits64 b))
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 17 and b = Rng.create 18 in
  checkb "different seeds differ" false
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  checkb "copy continues identically" true
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b));
  ignore (Rng.bits64 a);
  (* a advanced one extra step; streams now out of phase *)
  checkb "independent afterwards" false
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let test_rng_float_range () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %g" x
  done;
  let r = Rng.create 6 in
  for _ = 1 to 10_000 do
    let x = Rng.float_pos r in
    if x <= 0. || x > 1. then Alcotest.failf "float_pos out of range: %g" x
  done

let test_rng_float_mean () =
  let r = Rng.create 7 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float r
  done;
  checkf 0.01 "uniform mean" 0.5 (!sum /. float_of_int n)

let test_rng_int () =
  let r = Rng.create 8 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let k = Rng.int r 10 in
    if k < 0 || k >= 10 then Alcotest.failf "int out of range: %d" k;
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      (* each bucket expects 5000; allow 10% deviation *)
      if c < 4500 || c > 5500 then Alcotest.failf "skewed bucket: %d" c)
    counts;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential () =
  let r = Rng.create 9 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~rate:4. in
    if x < 0. then Alcotest.fail "negative waiting time";
    sum := !sum +. x
  done;
  checkf 0.01 "mean 1/rate" 0.25 (!sum /. float_of_int n);
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Rng.exponential: rate <= 0") (fun () ->
      ignore (Rng.exponential r ~rate:0.))

let test_rng_split () =
  let a = Rng.create 10 in
  let b = Rng.split a in
  checkb "split decorrelates" false
    (Int64.equal (Rng.bits64 a) (Rng.bits64 b))

(* The stream-independence contract documented in rng.mli, which the
   ensemble engine's counter-based seed derivation relies on. *)

let prop_rng_split_deterministic =
  QCheck.Test.make ~name:"split is deterministic given the parent state"
    ~count:50 QCheck.small_int (fun seed ->
      let a = Rng.create seed and b = Rng.create seed in
      let sa = Rng.split a and sb = Rng.split b in
      let children_agree = ref true in
      for _ = 1 to 100 do
        if not (Int64.equal (Rng.bits64 sa) (Rng.bits64 sb)) then
          children_agree := false
      done;
      (* splitting advanced both parents identically *)
      !children_agree && Int64.equal (Rng.bits64 a) (Rng.bits64 b))

let prop_rng_split_no_collisions =
  QCheck.Test.make ~name:"split streams don't collide on first 1k draws"
    ~count:20 QCheck.small_int (fun seed ->
      let parent = Rng.create seed in
      let s1 = Rng.split parent in
      let s2 = Rng.split parent in
      (* no 64-bit output may appear in two different streams *)
      let seen = Hashtbl.create 8192 in
      let clean = ref true in
      let drain tag rng =
        for _ = 1 to 1_000 do
          let v = Rng.bits64 rng in
          (match Hashtbl.find_opt seen v with
          | Some owner when owner <> tag -> clean := false
          | Some _ | None -> ());
          Hashtbl.replace seen v tag
        done
      in
      drain `Sibling1 s1;
      drain `Sibling2 s2;
      drain `Parent parent;
      !clean)

(* The bounded-int rejection sampler, pinned by properties. The old
   acceptance condition compared against [max_int lsr 2] although the
   draw already keeps only 62 bits (= [max_int] exactly), so it rejected
   3 of every 4 draws at small bounds and looped forever for bounds
   above 2^60. *)

let prop_rng_int_range =
  QCheck.Test.make ~name:"int stays in [0, bound) and terminates, any bound"
    ~count:100
    QCheck.(
      pair small_int
        (oneofl
           [
             1; 2; 7; 1000; 1 lsl 20; 1 lsl 40; (1 lsl 60) + 9; 1 lsl 61;
             max_int - 1; max_int;
           ]))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_rng_int_uniform =
  QCheck.Test.make ~name:"int is uniform (chi-square)" ~count:20
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let n = 10_000 in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let v = Rng.int r bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int n /. float_of_int bound in
      let chi2 =
        Array.fold_left
          (fun acc c ->
            let d = float_of_int c -. expected in
            acc +. (d *. d /. expected))
          0. counts
      in
      (* df <= 11: P(chi2 > 50) < 1e-6, stable across QCheck seeds *)
      chi2 < 50.)

let test_rng_gaussian () =
  let r = Rng.create 21 in
  let n = 50_000 in
  let sum = ref 0. and sum2 = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian r in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  checkf 0.02 "zero mean" 0. mean;
  checkf 0.03 "unit variance" 1. var

(* The reference generator: xoshiro256++ seeded through splitmix64
   with the four words in a record of [int64] fields, and the derived
   draws written against it, as [Rng] was before its state moved into
   an unboxed buffer. It shares no code with [Rng], so a change to any
   stream [Rng] produces — and with it every pinned trace — fails the
   property below. ([Direct_oracle] draws from [Rng] itself, so it
   cannot catch one.) *)
module Rng_reference = struct
  type t = {
    mutable s0 : int64;
    mutable s1 : int64;
    mutable s2 : int64;
    mutable s3 : int64;
  }

  let splitmix64 state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let of_state state =
    let s0 = splitmix64 state in
    let s1 = splitmix64 state in
    let s2 = splitmix64 state in
    let s3 = splitmix64 state in
    { s0; s1; s2; s3 }

  let create seed = of_state (ref (Int64.of_int seed))

  let rotl x k =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let bits64 t =
    let open Int64 in
    let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
    let tmp = shift_left t.s1 17 in
    t.s2 <- logxor t.s2 t.s0;
    t.s3 <- logxor t.s3 t.s1;
    t.s1 <- logxor t.s1 t.s2;
    t.s0 <- logxor t.s0 t.s3;
    t.s2 <- logxor t.s2 tmp;
    t.s3 <- rotl t.s3 45;
    result

  let split t = of_state (ref (bits64 t))

  let float t =
    Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1.0p-53

  let float_pos t = 1.0 -. float t

  let rec int t bound =
    let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then int t bound else v

  let exponential t ~rate = -.Float.log (float_pos t) /. rate

  let gaussian t =
    let u1 = float_pos t and u2 = float t in
    Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
end

let test_rng_pinned_seed_42 () =
  let r = Rng.create 42 in
  List.iteri
    (fun k expected ->
      Alcotest.(check int64) (Printf.sprintf "bits64 #%d" (k + 1)) expected
        (Rng.bits64 r))
    [
      0xd0764d4f4476689fL; 0x519e4174576f3791L; 0xfbe07cfb0c24ed8cL;
      0xb37d9f600cd835b8L; 0xcb231c3874846a73L; 0x968d9f004e50de7dL;
      0x201718ff221a3556L; 0x9ae94e070ed8cb46L;
    ]

let prop_rng_matches_reference =
  QCheck.Test.make ~name:"every draw matches the reference generator"
    ~count:200 QCheck.int (fun seed ->
      let same_float x y =
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      in
      (* one round of every draw kind, on a parent or a child stream *)
      let round r e =
        Int64.equal (Rng.bits64 r) (Rng_reference.bits64 e)
        && same_float (Rng.float r) (Rng_reference.float e)
        && same_float (Rng.float_pos r) (Rng_reference.float_pos e)
        && List.for_all
             (fun bound -> Rng.int r bound = Rng_reference.int e bound)
             [ 1; 7; 1000; 1 lsl 40; (1 lsl 60) + 9; max_int ]
        && same_float
             (Rng.exponential r ~rate:2.5)
             (Rng_reference.exponential e ~rate:2.5)
        && same_float (Rng.gaussian r) (Rng_reference.gaussian e)
      in
      let rounds r e = List.for_all (fun _ -> round r e) (List.init 20 Fun.id) in
      let r = Rng.create seed and e = Rng_reference.create seed in
      rounds r e
      (* successive children, then the parent after splitting *)
      && (let r1 = Rng.split r and e1 = Rng_reference.split e in
          let r2 = Rng.split r and e2 = Rng_reference.split e in
          rounds r1 e1 && rounds r2 e2 && rounds r e))

(* ---- trace recorder ---- *)

let test_recorder_hold () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 1. |] ~t0:0.
      ~t_end:10. ~dt:1. ()
  in
  Trace.Recorder.observe r 0. [| 1. |];
  Trace.Recorder.observe r 2.5 [| 5. |];
  Trace.Recorder.observe r 7. [| 2. |];
  let tr = Trace.Recorder.finish r in
  checki "samples" 11 (Trace.length tr);
  (* zero-order hold: value at grid g is the state holding just before g *)
  checkf 0. "t=0" 1. (Trace.value tr "x" 0);
  checkf 0. "t=2" 1. (Trace.value tr "x" 2);
  checkf 0. "t=3" 5. (Trace.value tr "x" 3);
  checkf 0. "t=6" 5. (Trace.value tr "x" 6);
  checkf 0. "t=7" 2. (Trace.value tr "x" 7);
  checkf 0. "t=10" 2. (Trace.value tr "x" 10)

let test_recorder_exact_grid_point () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 0. |] ~t0:0.
      ~t_end:4. ~dt:1. ()
  in
  Trace.Recorder.observe r 0. [| 0. |];
  Trace.Recorder.observe r 2. [| 9. |];
  let tr = Trace.Recorder.finish r in
  (* a jump exactly on a grid point is visible at that point *)
  checkf 0. "t=1" 0. (Trace.value tr "x" 1);
  checkf 0. "t=2" 9. (Trace.value tr "x" 2)

let test_recorder_backwards () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 0. |] ~t0:0.
      ~t_end:5. ~dt:1. ()
  in
  Trace.Recorder.observe r 3. [| 1. |];
  Alcotest.check_raises "backwards"
    (Invalid_argument "Trace.Recorder.observe: time went backwards")
    (fun () -> Trace.Recorder.observe r 2. [| 2. |])

let make_trace () =
  let r =
    Trace.Recorder.create ~names:[| "a"; "b" |] ~initial:[| 0.; 10. |]
      ~t0:0. ~t_end:9. ~dt:1. ()
  in
  Trace.Recorder.observe r 0. [| 0.; 10. |];
  Trace.Recorder.observe r 5. [| 4.; 6. |];
  Trace.Recorder.finish r

let test_trace_accessors () =
  let tr = make_trace () in
  Alcotest.(check (array string)) "names" [| "a"; "b" |] (Trace.names tr);
  checki "length" 10 (Trace.length tr);
  checkf 0. "time" 3. (Trace.time tr 3);
  checkf 0. "mean a" 2. (Trace.mean tr "a");
  checkf 0. "max b" 10. (Trace.max_value tr "b");
  checkb "index" true (Trace.index tr "b" = Some 1);
  checkb "missing" true (Trace.index tr "zz" = None);
  let sub = Trace.sub tr ~from:5 ~until:10 in
  checki "sub length" 5 (Trace.length sub);
  checkf 0. "sub t0" 5. (Trace.t0 sub);
  checkf 0. "sub value" 4. (Trace.value sub "a" 0)

let test_trace_csv_roundtrip () =
  let tr = make_trace () in
  match Trace.of_csv (Trace.to_csv tr) with
  | Error e -> Alcotest.fail e
  | Ok tr' ->
      Alcotest.(check (array string))
        "names" (Trace.names tr) (Trace.names tr');
      checki "length" (Trace.length tr) (Trace.length tr');
      for k = 0 to Trace.length tr - 1 do
        checkf 0. "a" (Trace.value tr "a" k) (Trace.value tr' "a" k);
        checkf 0. "b" (Trace.value tr "b" k) (Trace.value tr' "b" k)
      done

let test_trace_statistics () =
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 2. |] ~t0:0.
      ~t_end:3. ~dt:1. ()
  in
  Trace.Recorder.observe r 0. [| 2. |];
  Trace.Recorder.observe r 1. [| 4. |];
  Trace.Recorder.observe r 2. [| 6. |];
  Trace.Recorder.observe r 3. [| 8. |];
  let tr = Trace.Recorder.finish r in
  (* samples 2,4,6,8: mean 5, variance 5 *)
  checkf 1e-9 "mean" 5. (Trace.mean tr "x");
  checkf 1e-9 "variance" 5. (Trace.variance tr "x");
  checkf 1e-9 "fano" 1. (Trace.fano_factor tr "x");
  checki "crossings of 5" 1 (Trace.crossings tr "x" 5.);
  checki "crossings of 3" 1 (Trace.crossings tr "x" 3.);
  checki "crossings of 100" 0 (Trace.crossings tr "x" 100.);
  (* the _opt forms agree with the sentinel forms on non-empty data *)
  checkb "mean_opt agrees" true (Trace.mean_opt tr "x" = Some 5.);
  checkb "variance_opt agrees" true (Trace.variance_opt tr "x" = Some 5.);
  checkb "fano_opt agrees" true (Trace.fano_factor_opt tr "x" = Some 1.)

let test_trace_empty_statistics () =
  let tr = make_trace () in
  let empty = Trace.sub tr ~from:0 ~until:0 in
  checki "empty length" 0 (Trace.length empty);
  (* the _opt accessors make emptiness unmissable... *)
  checkb "mean_opt" true (Trace.mean_opt empty "a" = None);
  checkb "variance_opt" true (Trace.variance_opt empty "a" = None);
  checkb "fano_opt" true (Trace.fano_factor_opt empty "a" = None);
  (* ...while the plain forms keep their documented sentinels *)
  checkf 0. "mean sentinel" 0. (Trace.mean empty "a");
  checkf 0. "variance sentinel" 0. (Trace.variance empty "a");
  checkb "fano sentinel is nan" true
    (Float.is_nan (Trace.fano_factor empty "a"));
  (* zero mean: variance is defined, the Fano ratio is not *)
  let r =
    Trace.Recorder.create ~names:[| "x" |] ~initial:[| 0. |] ~t0:0. ~t_end:2.
      ~dt:1. ()
  in
  let flat = Trace.Recorder.finish r in
  checkb "zero-mean fano_opt" true (Trace.fano_factor_opt flat "x" = None);
  checkb "zero-mean fano sentinel" true
    (Float.is_nan (Trace.fano_factor flat "x"))

let test_trace_csv_errors () =
  let fails s = match Trace.of_csv s with Ok _ -> false | Error _ -> true in
  checkb "empty" true (fails "");
  checkb "no species" true (fails "time\n0\n");
  checkb "bad cell" true (fails "time,x\n0,zap\n");
  checkb "wrong arity" true (fails "time,x\n0,1,2\n");
  checkb "non-uniform" true (fails "time,x\n0,1\n1,1\n3,1\n")

let prop_trace_split_concat =
  QCheck.Test.make ~name:"sub/concat round trip at any split point"
    ~count:100
    QCheck.(int_bound 8)
    (fun cut ->
      let tr = make_trace () in
      let cut = 1 + cut in
      let left = Trace.sub tr ~from:0 ~until:cut in
      let right = Trace.sub tr ~from:cut ~until:(Trace.length tr) in
      Trace.to_csv (Trace.concat left right) = Trace.to_csv tr)

let test_trace_concat_validation () =
  let tr = make_trace () in
  let left = Trace.sub tr ~from:0 ~until:5 in
  (* gluing a non-contiguous piece must fail *)
  let gap = Trace.sub tr ~from:6 ~until:10 in
  (match Trace.concat left gap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected non-contiguous failure");
  let other =
    let r =
      Trace.Recorder.create ~names:[| "z" |] ~initial:[| 0. |] ~t0:5.
        ~t_end:9. ~dt:1. ()
    in
    Trace.Recorder.finish r
  in
  match Trace.concat left other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected species mismatch failure"

let test_trace_concat_empty () =
  (* Regression: with an empty operand the contiguity check used to
     compare against the meaningless time [t0 - dt] of a non-existent
     last sample, rejecting valid concatenations (or accepting them only
     when the empty trace's nominal t0 happened to line up). An empty
     operand is the identity. *)
  let tr = make_trace () in
  let empty = Trace.sub tr ~from:4 ~until:4 in
  checki "empty sub" 0 (Trace.length empty);
  Alcotest.(check string)
    "empty left operand" (Trace.to_csv tr)
    (Trace.to_csv (Trace.concat empty tr));
  Alcotest.(check string)
    "empty right operand" (Trace.to_csv tr)
    (Trace.to_csv (Trace.concat tr empty));
  checki "both operands empty" 0 (Trace.length (Trace.concat empty empty))

(* ---- events ---- *)

let prop_events_merge_sorted =
  QCheck.Test.make ~name:"merge keeps schedules sorted by time" ~count:200
    QCheck.(pair (list (int_bound 100)) (list (int_bound 100)))
    (fun (xs, ys) ->
      let schedule l =
        Events.of_list
          (List.map (fun t -> Events.set (float_of_int t) "s" 1.) l)
      in
      let merged = Events.merge (schedule xs) (schedule ys) in
      let times =
        List.map (fun e -> e.Events.e_time) (Events.to_list merged)
      in
      List.length times = List.length xs + List.length ys
      && List.sort compare times = times)

let test_events () =
  let s =
    Events.of_list
      [ Events.set 5. "a" 1.; Events.set 1. "b" 2.; Events.set 5. "c" 3. ]
  in
  (match Events.to_list s with
  | [ e1; e2; e3 ] ->
      Alcotest.(check string) "sorted" "b" e1.Events.e_species;
      (* stable for equal times *)
      Alcotest.(check string) "stable 1" "a" e2.Events.e_species;
      Alcotest.(check string) "stable 2" "c" e3.Events.e_species
  | _ -> Alcotest.fail "wrong length");
  checkf 0. "next_time" 1. (Events.next_time s);
  checkf 0. "empty next_time" infinity (Events.next_time Events.empty);
  let merged = Events.merge s (Events.of_list [ Events.set 0.5 "z" 0. ]) in
  checkf 0. "merged head" 0.5 (Events.next_time merged)

(* ---- compiled models ---- *)

let birth_death ~k ~gamma =
  Model.make ~id:"bd"
    ~species:[ Model.species "X" 0. ]
    ~parameters:[ Model.parameter "k" k; Model.parameter "g" gamma ]
    ~reactions:
      [
        Model.reaction ~products:[ ("X", 1) ] ~rate:(Math.var "k") "birth";
        Model.reaction
          ~reactants:[ ("X", 1) ]
          ~rate:Math.(var "g" * var "X")
          "death";
      ]
    ()

let test_compile () =
  let c = Compiled.compile (birth_death ~k:10. ~gamma:0.1) in
  checki "species" 1 (Array.length c.Compiled.c_names);
  checki "reactions" 2 (Array.length c.Compiled.c_reactions);
  let a = propensities c [| 5. |] in
  checkf 1e-12 "birth propensity" 10. a.(0);
  checkf 1e-12 "death propensity" 0.5 a.(1);
  (* parameters folded: no lookup of k at simulation time *)
  checki "birth reads nothing" 0
    (List.length c.Compiled.c_reactions.(0).Compiled.c_reads);
  Alcotest.(check (list int))
    "death reads X" [ 0 ]
    c.Compiled.c_reactions.(1).Compiled.c_reads;
  Alcotest.(check (array int))
    "birth affects death" [| 1 |] c.Compiled.c_affected.(0);
  Alcotest.(check (array int))
    "death affects itself" [| 1 |] c.Compiled.c_affected.(1);
  checki "species index" 0 (Compiled.species_index c "X")

let boundary_conversion_model () =
  (* A boundary input consumed by a reaction: the kinetics see it, but
     firings must never drain it (SBML boundaryCondition). *)
  Model.make ~id:"bnd"
    ~species:[ Model.species ~boundary:true "I" 30.; Model.species "P" 0. ]
    ~reactions:
      [
        Model.reaction
          ~reactants:[ ("I", 1) ]
          ~products:[ ("P", 1) ]
          ~rate:Math.(num 0.5 * var "I")
          "conv";
      ]
    ()

let test_compile_boundary_deltas () =
  let c = Compiled.compile (boundary_conversion_model ()) in
  let p = Compiled.species_index c "P" in
  Alcotest.(check (list (pair int (float 0.))))
    "boundary reactant dropped from the state-change vector" [ (p, 1.) ]
    (deltas c.Compiled.c_reactions.(0))

let test_compile_negative_propensity_clamped () =
  let m =
    Model.make ~id:"neg"
      ~species:[ Model.species "X" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("X", 1) ]
            ~rate:Math.(num 1. - var "X")
            "r";
        ]
      ()
  in
  let c = Compiled.compile m in
  let a = propensities c [| 5. |] in
  checkf 0. "clamped to zero" 0. a.(0)

(* ---- the reference direct method ---- *)

(* The oracle the production direct method is compared against:
   Gillespie's direct method re-evaluating every propensity at every
   step straight from the model's kinetic laws with [Math.eval]
   (parameters looked up by value, species read from the state) and
   clamped as production clamps — finite negatives to zero, NaN and
   infinity raise. It draws from [Rng], selects with [Sim.select],
   applies events (through [Ode_oracle], not [Compiled]) and records
   through [Trace.Recorder] in the same order as [Sim], so for one seed
   the traces must match byte for byte;
   a difference is a bug in the sparse updates or the flat IR. *)
module Direct_oracle = struct
  let propensities (m : Model.t) (c : Compiled.t) state =
    let lookup id =
      match Model.parameter_value m id with
      | Some v -> v
      | None -> state.(Compiled.species_index c id)
    in
    Array.of_list
      (List.map
         (fun (r : Model.reaction) ->
           let p = Math.eval ~lookup r.Model.r_rate in
           if Float.is_finite p then if p > 0. then p else 0.
           else
             raise
               (Compiled.Non_finite_propensity
                  {
                    nf_model = m.Model.m_id;
                    nf_reaction = r.Model.r_id;
                    nf_value = p;
                    nf_state =
                      Array.to_list
                        (Array.mapi
                           (fun i id -> (id, state.(i)))
                           c.Compiled.c_names);
                  }))
         m.Model.m_reactions)

  let run ?(events = Events.empty) (cfg : Sim.config) (m : Model.t) =
    let c = Compiled.compile m in
    let rng = Rng.create cfg.Sim.seed in
    let state = Array.copy c.Compiled.c_initial in
    let recorder =
      Trace.Recorder.create ~names:c.Compiled.c_names
        ~initial:c.Compiled.c_initial ~t0:cfg.Sim.t0 ~t_end:cfg.Sim.t_end
        ~dt:cfg.Sim.dt ()
    in
    let observe t = Trace.Recorder.observe recorder t state in
    let rec loop t events =
      if t < cfg.Sim.t_end then begin
        let a = propensities m c state in
        let a0 = Array.fold_left ( +. ) 0. a in
        let t_ev = Events.next_time events in
        let jump () =
          match Ode_oracle.apply_events_at c state events with
          | Some (te, rest) ->
              observe te;
              loop te rest
          | None -> ()
        in
        if a0 <= 0. then (if t_ev <= cfg.Sim.t_end then jump ())
        else
          let t' = t +. Rng.exponential rng ~rate:a0 in
          if t' >= t_ev && t_ev <= cfg.Sim.t_end then jump ()
          else if t' < cfg.Sim.t_end then begin
            let mu = Sim.select a (Rng.float rng *. a0) in
            List.iter
              (fun (i, d) -> state.(i) <- Float.max 0. (state.(i) +. d))
              (deltas c.Compiled.c_reactions.(mu));
            observe t';
            loop t' events
          end
      end
    in
    let events = Ode_oracle.catch_up c state ~t0:cfg.Sim.t0 events in
    observe cfg.Sim.t0;
    loop cfg.Sim.t0 events;
    Trace.Recorder.finish recorder
end

(* The Gibson–Bruck next-reaction method (Gibson & Bruck 2000), the
   second exact SSA the direct method is checked against, statistically:
   its draws differ from the direct method's, so only distributions
   agree. Every reaction keeps one putative firing time; the earliest
   fires and draws a fresh time, even when its own propensity did not
   change (a pure birth reaction would otherwise stay at the minimum
   and stop time). Every other reaction whose propensity changed
   rescales its time, [t + a_old / a_new * (t_j - t)], or draws afresh
   when it was disabled (old propensity 0, or time infinite).
   Exponential memorylessness makes redrawing every time after an
   intervention exact. Propensities come from
   [Direct_oracle.propensities] and events apply as there. An oracle
   needs the semantics, not an O(log R) heap: the next reaction is
   found by a linear scan, ties to the lowest index. *)
module Next_reaction_oracle = struct
  let run ?(events = Events.empty) (cfg : Sim.config) (m : Model.t) =
    let c = Compiled.compile m in
    let rng = Rng.create cfg.Sim.seed in
    let state = Array.copy c.Compiled.c_initial in
    let recorder =
      Trace.Recorder.create ~names:c.Compiled.c_names
        ~initial:c.Compiled.c_initial ~t0:cfg.Sim.t0 ~t_end:cfg.Sim.t_end
        ~dt:cfg.Sim.dt ()
    in
    let observe t = Trace.Recorder.observe recorder t state in
    let draw t ai =
      if ai <= 0. then infinity else t +. Rng.exponential rng ~rate:ai
    in
    let a = ref [||] and times = ref [||] in
    let redraw_all t =
      a := Direct_oracle.propensities m c state;
      times := Array.map (draw t) !a
    in
    let rec loop events =
      let mu = ref (-1) and t_mu = ref infinity in
      Array.iteri
        (fun j tj ->
          if tj < !t_mu then begin
            mu := j;
            t_mu := tj
          end)
        !times;
      let t = !t_mu and mu = !mu in
      let t_ev = Events.next_time events in
      if Float.min t t_ev >= cfg.Sim.t_end then ()
      else if t_ev <= t then begin
        match Ode_oracle.apply_events_at c state events with
        | Some (te, rest) ->
            observe te;
            redraw_all te;
            loop rest
        | None -> ()
      end
      else begin
        List.iter
          (fun (i, d) -> state.(i) <- Float.max 0. (state.(i) +. d))
          (deltas c.Compiled.c_reactions.(mu));
        observe t;
        let a_old = !a and a_new = Direct_oracle.propensities m c state in
        times :=
          Array.mapi
            (fun j tj ->
              if j = mu then draw t a_new.(j)
              else if a_new.(j) = a_old.(j) then tj
              else if a_new.(j) <= 0. then infinity
              else if a_old.(j) <= 0. || tj = infinity then draw t a_new.(j)
              else t +. (a_old.(j) /. a_new.(j) *. (tj -. t)))
            !times;
        a := a_new;
        loop events
      end
    in
    let events = Ode_oracle.catch_up c state ~t0:cfg.Sim.t0 events in
    observe cfg.Sim.t0;
    redraw_all cfg.Sim.t0;
    loop events;
    Trace.Recorder.finish recorder
end

(* The simulators the all-algorithm checks run, each as
   [events -> config -> model -> trace]: the production direct method
   and the next-reaction oracle. *)
let direct events cfg m = Sim.run ~events cfg m

let next_reaction events cfg m = Next_reaction_oracle.run ~events cfg m

(* ---- simulation ---- *)

let final trace id = Trace.value trace id (Trace.length trace - 1)

let test_birth_death_fano () =
  (* the stationary distribution of a birth-death process is Poisson:
     Fano factor 1 *)
  let m = birth_death ~k:20. ~gamma:0.2 in
  let tr = Sim.run (Sim.config ~seed:14 ~t_end:3000. ()) m in
  let late = Trace.sub tr ~from:500 ~until:(Trace.length tr) in
  checkf 0.15 "poisson dispersion" 1. (Trace.fano_factor late "X")

let test_sim_determinism () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let cfg = Sim.config ~seed:123 ~t_end:100. () in
  let a = Sim.run cfg m and b = Sim.run cfg m in
  checkf 0. "same seed, same trace" (final a "X") (final b "X");
  let c = Sim.run (Sim.config ~seed:124 ~t_end:100. ()) m in
  checkb "different seed, different path" true (final a "X" <> final c "X")

let test_sim_birth_death_mean () =
  (* stationary mean of a birth-death process is k/gamma = 100 *)
  let m = birth_death ~k:10. ~gamma:0.1 in
  let cfg = Sim.config ~seed:42 ~t_end:2000. () in
  let tr = Sim.run cfg m in
  let late = Trace.sub tr ~from:500 ~until:(Trace.length tr) in
  checkf 5. "stationary mean" 100. (Trace.mean late "X")

let test_sim_methods_agree () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let mean run seed =
    let tr = run Events.empty (Sim.config ~seed ~t_end:2000. ()) m in
    Trace.mean (Trace.sub tr ~from:500 ~until:(Trace.length tr)) "X"
  in
  checkf 6. "direct vs next-reaction"
    (mean direct 1)
    (mean next_reaction 2)

let test_sim_events_applied () =
  let m =
    Model.make ~id:"clamp"
      ~species:[ Model.species ~boundary:true "I" 0. ]
      ~reactions:[] ()
  in
  let events =
    Events.of_list [ Events.set 10. "I" 50.; Events.set 20. "I" 5. ]
  in
  let tr, stats = Sim.run_with_stats ~events (Sim.config ~t_end:30. ()) m in
  checki "events applied" 2 stats.Sim.events_applied;
  checkf 0. "before" 0. (Trace.value tr "I" 5);
  checkf 0. "during" 50. (Trace.value tr "I" 15);
  checkf 0. "after" 5. (Trace.value tr "I" 25)

let test_sim_event_on_unknown_species () =
  let m = birth_death ~k:1. ~gamma:1. in
  let events = Events.of_list [ Events.set 1. "nope" 1. ] in
  match Sim.run ~events (Sim.config ~t_end:5. ()) m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_sim_boundary_untouched_by_reactions () =
  (* An input species read by a reaction keeps its clamped value. *)
  let m =
    Model.make ~id:"b"
      ~species:
        [ Model.species ~boundary:true "I" 30.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.1 * var "I")
            "prod";
        ]
      ()
  in
  let tr = Sim.run (Sim.config ~t_end:50. ()) m in
  for k = 0 to Trace.length tr - 1 do
    checkf 0. "clamped" 30. (Trace.value tr "I" k)
  done;
  checkb "P produced" true (final tr "P" > 0.)

let test_sim_boundary_reactant_all_algorithms () =
  (* Headline regression for the boundary-semantics fix: a boundary
     input species consumed by a reaction stays at its set level under
     every algorithm, while the product still accumulates (the kinetic
     law reads the input). Before the fix this model was rejected
     outright by Model.validate, and applying the stoichiometry would
     have drained I — making the stochastic algorithms disagree with the
     ODE limit, which always gave boundary species a zero derivative. *)
  let m = boundary_conversion_model () in
  List.iter
    (fun (name, run) ->
      let tr = run Events.empty (Sim.config ~t_end:50. ()) m in
      for k = 0 to Trace.length tr - 1 do
        checkf 0. (name ^ ": input held at its set level") 30.
          (Trace.value tr "I" k)
      done;
      checkb (name ^ ": product accumulates") true (final tr "P" > 0.))
    [
      ("direct", direct);
      ("next-reaction", next_reaction);
    ];
  let tr = Glc_ssa.Ode.run (Glc_ssa.Ode.config ~t_end:50. ()) m in
  checkf 1e-9 "ode: input held at its set level" 30. (final tr "I");
  checkb "ode: product accumulates" true (final tr "P" > 1.)

let test_sim_stats () =
  let m = birth_death ~k:5. ~gamma:0.05 in
  let _, stats = Sim.run_with_stats (Sim.config ~t_end:100. ()) m in
  checkb "fired some reactions" true (stats.Sim.reactions_fired > 100);
  checkb "final state reported" true
    (List.mem_assoc "X" stats.Sim.final_state)

let test_sim_zero_propensity () =
  (* nothing can fire; events still advance the state *)
  let m =
    Model.make ~id:"stall"
      ~species:
        [ Model.species ~boundary:true "I" 0.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.2 * var "I")
            "prod";
        ]
      ()
  in
  let events = Events.of_list [ Events.set 50. "I" 100. ] in
  let tr = Sim.run ~events (Sim.config ~t_end:100. ()) m in
  checkf 0. "quiet before event" 0. (Trace.value tr "P" 49);
  checkb "production after event" true (Trace.value tr "P" 99 > 0.)

let test_sim_pure_birth_next_reaction () =
  (* A reaction whose propensity reads nothing it writes must still get
     a fresh clock after firing, or time stops at its old one. *)
  let m =
    Model.make ~id:"pure_birth"
      ~species:[ Model.species "X" 0. ]
      ~reactions:
        [ Model.reaction ~products:[ ("X", 1) ] ~rate:(Math.num 5.) "birth" ]
      ()
  in
  let tr = Next_reaction_oracle.run (Sim.config ~t_end:100. ()) m in
  checkf 40. "linear growth" 500. (final tr "X")

(* The byte-identity and distribution checks pin one seed per oracle
   run, so an oracle must replay a seed exactly and a seed must
   matter. *)
let test_oracles_deterministic () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  List.iter
    (fun (name, run) ->
      let csv seed = Trace.to_csv (run (Sim.config ~seed ~t_end:100. ()) m) in
      Alcotest.(check string)
        (name ^ ": same seed, same trace")
        (csv 5) (csv 5);
      checkb (name ^ ": different seed, different path") true (csv 5 <> csv 6))
    [
      ("direct", fun cfg m -> Direct_oracle.run cfg m);
      ("next-reaction", fun cfg m -> Next_reaction_oracle.run cfg m);
    ]

(* ---- population ---- *)

let test_population_mean () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let cfg = Sim.config ~seed:31 ~t_end:500. () in
  let mean, cells = Glc_ssa.Population.run ~cells:20 cfg m in
  checki "twenty cells" 20 (List.length cells);
  (* cells are genuinely different trajectories *)
  let finals = List.map (fun tr -> final tr "X") cells in
  checkb "independent cells" true
    (List.length (List.sort_uniq compare finals) > 10);
  (* the averaged signal is smoother: variance well below a single cell *)
  let late tr = Trace.sub tr ~from:250 ~until:(Trace.length tr) in
  let mean_var = Trace.variance (late mean) "X" in
  let cell_var = Trace.variance (late (List.hd cells)) "X" in
  checkb "averaging reduces noise" true (mean_var < cell_var /. 4.);
  checkf 5. "mean level preserved" 100. (Trace.mean (late mean) "X")

let test_population_determinism_and_validation () =
  let m = birth_death ~k:5. ~gamma:0.1 in
  let cfg = Sim.config ~seed:9 ~t_end:100. () in
  let a, _ = Glc_ssa.Population.run ~cells:3 cfg m in
  let b, _ = Glc_ssa.Population.run ~cells:3 cfg m in
  checkb "reproducible" true (Trace.to_csv a = Trace.to_csv b);
  (match Glc_ssa.Population.run ~cells:0 cfg m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cells 0");
  match Glc_ssa.Population.mean_of [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty mean"

(* ---- ode ---- *)

let test_ode_config_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Glc_ssa.Ode.config ~step:0. ~t_end:10. ());
  expect_invalid (fun () ->
      Glc_ssa.Ode.config ~step:2. ~dt:1. ~t_end:10. ());
  expect_invalid (fun () -> Glc_ssa.Ode.config ~t_end:(-1.) ());
  expect_invalid (fun () -> Glc_ssa.Ode.config ~t_end:infinity ());
  expect_invalid (fun () -> Glc_ssa.Ode.config ~t_end:nan ());
  expect_invalid (fun () -> Glc_ssa.Ode.config ~step:nan ~t_end:10. ());
  expect_invalid (fun () -> Glc_ssa.Ode.config ~dt:infinity ~t_end:10. ());
  (* the SSA's config takes the same checks *)
  expect_invalid (fun () -> Sim.config ~t_end:infinity ());
  expect_invalid (fun () -> Sim.config ~t_end:nan ());
  expect_invalid (fun () -> Sim.config ~t0:neg_infinity ~t_end:10. ());
  expect_invalid (fun () -> Sim.config ~dt:infinity ~t_end:10. ());
  expect_invalid (fun () -> Sim.config ~dt:0. ~t_end:10. ())

let test_ode_birth_death () =
  (* dx/dt = k - g x settles at k/g exactly, with no noise *)
  let m = birth_death ~k:10. ~gamma:0.1 in
  let tr = Glc_ssa.Ode.run (Glc_ssa.Ode.config ~t_end:500. ()) m in
  checkf 0.01 "deterministic steady state" 100. (final tr "X");
  (* analytic transient: x(t) = 100 (1 - e^-0.1t) *)
  checkf 0.1 "transient at t=10" (100. *. (1. -. Float.exp (-1.)))
    (Trace.value tr "X" 10)

let test_ode_events () =
  let m =
    Model.make ~id:"e"
      ~species:[ Model.species ~boundary:true "I" 0.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.1 * var "I")
            "prod";
        ]
      ()
  in
  let events = Events.of_list [ Events.set 50. "I" 10. ] in
  let tr = Glc_ssa.Ode.run ~events (Glc_ssa.Ode.config ~t_end:100. ()) m in
  checkf 0. "input steps sharply" 10. (Trace.value tr "I" 50);
  checkf 1e-6 "quiet before" 0. (Trace.value tr "P" 50);
  checkf 0.01 "linear accumulation after" 49.
    (Trace.value tr "P" 99)

let test_ode_event_on_unknown_species () =
  let m = birth_death ~k:1. ~gamma:1. in
  let events = Events.of_list [ Events.set 1. "nope" 1. ] in
  match Glc_ssa.Ode.run ~events (Glc_ssa.Ode.config ~t_end:5. ()) m with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_ode_steady_state () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  match Ode_oracle.steady_state ~max_time:100_000. ~tolerance:1e-9 m with
  | [ ("X", x) ] -> checkf 0.01 "operating point" 100. x
  | _ -> Alcotest.fail "unexpected shape"

(* Random models for the ODE differential: Hill-repressed production
   (the fused IR superinstruction), mass-action conversion and decay,
   and a boundary input the events drive. *)
let random_ode_model seed =
  let st = Random.State.make [| seed |] in
  let n_s = 2 + Random.State.int st 4 in
  let name i = Printf.sprintf "S%d" i in
  let species =
    List.init n_s (fun i ->
        Model.species ~boundary:(i = 0) (name i)
          (float_of_int (Random.State.int st 40)))
  in
  let pick () = name (Random.State.int st n_s) in
  let reactions =
    List.init
      (2 + Random.State.int st 6)
      (fun j ->
        let id = Printf.sprintf "r%d" j in
        let k = 0.05 +. (float_of_int (Random.State.int st 20) /. 10.) in
        match Random.State.int st 3 with
        | 0 ->
            let rep = pick () and out = pick () in
            let rate =
              Math.hill_repression ~ymin:(Math.num 0.1)
                ~ymax:(Math.num (10. *. k))
                ~k:(Math.num (1. +. float_of_int (Random.State.int st 30)))
                ~n:(Math.num (float_of_int (1 + Random.State.int st 3)))
                (Math.var rep)
            in
            Model.reaction ~products:[ (out, 1) ] ~modifiers:[ rep ] ~rate id
        | 1 ->
            let x = pick () in
            Model.reaction ~reactants:[ (x, 1) ]
              ~rate:Math.(num k * var x)
              id
        | _ ->
            let a = pick () and b = pick () in
            Model.reaction ~reactants:[ (a, 1) ] ~products:[ (b, 1) ]
              ~rate:Math.(num k * var a)
              id)
  in
  Model.make ~id:(Printf.sprintf "ode%d" seed) ~species ~reactions ()

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_ode_matches_oracle =
  QCheck.Test.make
    ~name:"Ode entry points match the allocating RK4 bit for bit"
    ~count:60 QCheck.small_int (fun seed ->
      let module Ode = Glc_ssa.Ode in
      let m = random_ode_model seed in
      let st = Random.State.make [| seed; 7 |] in
      (* integration steps that do and do not divide the sampling grid,
         and events on and off it *)
      let step = [| 0.1; 0.25; 0.3; 1.0 |].(Random.State.int st 4) in
      let cfg = Ode.config ~dt:1.0 ~step ~t_end:40. () in
      let events =
        Events.of_list
          [
            Events.set 0. "S0" (float_of_int (Random.State.int st 30));
            Events.set
              (5.5 +. float_of_int (Random.State.int st 20))
              "S0"
              (float_of_int (Random.State.int st 30));
            Events.set 12. "S1" 3.;
          ]
      in
      let reference = Ode_oracle.run ~events cfg m in
      let trace = Ode.run ~events cfg m in
      let names = Trace.names reference in
      let n = Trace.length reference in
      let samples = List.init n Fun.id in
      let traces_equal =
        Trace.names trace = names
        && Trace.length trace = n
        && Array.for_all
             (fun id ->
               List.for_all
                 (fun k ->
                   same_bits (Trace.value reference id k)
                     (Trace.value trace id k))
                 samples)
             names
      in
      (* run_until against a scan of the oracle trace: the threshold is
         a value the trace actually takes, so hits and misses both occur *)
      let c = Compiled.compile m in
      let id = names.(Random.State.int st (Array.length names)) in
      let i = Compiled.species_index c id in
      let threshold = Trace.value reference id (Random.State.int st n) in
      let rising = Random.State.bool st in
      let from =
        float_of_int (Random.State.int st 30)
        +. if Random.State.bool st then 0.5 else 0.
      in
      let meets x = if rising then x >= threshold else x < threshold in
      let expected =
        List.find_opt
          (fun k ->
            Trace.time reference k >= from
            && meets (Trace.value reference id k))
          samples
      in
      let seen = ref [||] in
      let u =
        Ode.run_until ~events ~from cfg c (fun s ->
            meets s.(i) && (seen := Array.copy s; true))
      in
      let until_equal =
        match (expected, u.Ode.u_time) with
        | None, None -> true
        | Some k, Some t ->
            same_bits (Trace.time reference k) t
            && List.for_all
                 (fun j ->
                   same_bits (Trace.value reference names.(j) k) !seen.(j))
                 (List.init (Array.length names) Fun.id)
        | _ -> false
      in
      traces_equal && until_equal)

let test_sim_next_reaction_with_events () =
  let m = birth_death ~k:10. ~gamma:0.1 in
  let events = Events.of_list [ Events.set 500. "X" 0. ] in
  let cfg = Sim.config ~seed:11 ~t_end:1000. () in
  let tr = Next_reaction_oracle.run ~events cfg m in
  (* the clamp resets the population; it must recover to its mean *)
  checkf 0. "reset visible" 0. (Trace.value tr "X" 500);
  checkb "recovers" true (final tr "X" > 50.)

(* ---- reaction selection (direct method) ---- *)

(* Regression: the selector used to fall through to index n-1 whenever
   rounding left the cumulative sum short of the target — firing a
   reaction with propensity 0. It must fall back to the last reaction
   with positive propensity instead. *)
let test_select_skips_zero_propensity () =
  (* target equal to the full sum: rounding-miss fallback territory *)
  checki "trailing zero is never selected" 0 (Sim.select [| 1.; 0. |] 1.0);
  checki "falls back to last positive index" 1
    (Sim.select [| 0.3; 0.3; 0. |] 0.6);
  (* zero-propensity entries are skipped in the scan itself *)
  checki "leading zero skipped" 1 (Sim.select [| 0.; 2.; 0. |] 1.5);
  checki "interior zero skipped" 2 (Sim.select [| 0.5; 0.; 0.5 |] 0.75);
  (* ordinary in-range draws are untouched by the fix *)
  checki "first reaction" 0 (Sim.select [| 1.; 1. |] 0.5);
  checki "second reaction" 1 (Sim.select [| 1.; 1. |] 1.5);
  match Sim.select [| 0.; 0. |] 0. with
  | exception Invalid_argument _ -> ()
  | i -> Alcotest.failf "all-zero vector selected reaction %d" i

let prop_select_positive_propensity =
  QCheck.Test.make ~name:"select never picks a zero-propensity reaction"
    ~count:500
    QCheck.(pair (small_list (int_bound 10)) (int_bound 999))
    (fun (raw, frac) ->
      (* propensity vector with zeros mixed in; at least one positive *)
      let a = Array.of_list (List.map float_of_int (1 :: raw)) in
      let total = Array.fold_left ( +. ) 0. a in
      let target = total *. (float_of_int frac /. 1000.) in
      a.(Sim.select a target) > 0.)

(* An event exactly at t0 must be part of the recorded initial state —
   under every algorithm. *)
let test_sim_event_at_t0_in_first_sample () =
  let m =
    Model.make ~id:"t0ev"
      ~species:
        [ Model.species ~boundary:true "I" 0.; Model.species "P" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("P", 1) ] ~modifiers:[ "I" ]
            ~rate:Math.(num 0.001 * var "I")
            "prod";
        ]
      ()
  in
  let events = Events.of_list [ Events.set 0. "I" 25. ] in
  List.iter
    (fun (name, run) ->
      let tr = run events (Sim.config ~t_end:5. ()) m in
      checkf 0.
        (name ^ ": t0 event visible in the first sample")
        25. (Trace.value tr "I" 0))
    [
      ("direct", direct);
      ("next-reaction", next_reaction);
    ]

(* The sparse direct method's invariant: cached propensities equal fresh
   evaluations and the total propensity is summed in the same index
   order, so the RNG draw sequence — and hence the whole trajectory —
   matches the full-recompute reference byte for byte. *)

let random_mass_action_model seed =
  let st = Random.State.make [| seed |] in
  let n_s = 1 + Random.State.int st 4 in
  let name i = Printf.sprintf "S%d" i in
  let species =
    List.init n_s (fun i ->
        Model.species
          ~boundary:(i = 0 && Random.State.bool st)
          (name i)
          (float_of_int (Random.State.int st 40)))
  in
  let n_r = 1 + Random.State.int st 5 in
  let reactions =
    List.init n_r (fun j ->
        let pick () = name (Random.State.int st n_s) in
        let reactants =
          if Random.State.int st 4 = 0 then [] else [ (pick (), 1) ]
        in
        let products = [ (pick (), 1) ] in
        let k = 0.1 +. (float_of_int (Random.State.int st 20) /. 10.) in
        let rate =
          List.fold_left
            (fun acc (id, _) -> Math.(acc * var id))
            (Math.num k) reactants
        in
        Model.reaction ~reactants ~products ~rate (Printf.sprintf "r%d" j))
  in
  Model.make ~id:(Printf.sprintf "rand%d" seed) ~species ~reactions ()

let prop_sparse_direct_equivalence =
  QCheck.Test.make
    ~name:"sparse direct is byte-identical to the full-recompute reference"
    ~count:80 QCheck.small_int (fun seed ->
      let m = random_mass_action_model seed in
      let cfg = Sim.config ~seed:(seed + 1) ~t_end:30. () in
      String.equal
        (Trace.to_csv (Sim.run cfg m))
        (Trace.to_csv (Direct_oracle.run cfg m)))

let prop_nonnegative_populations =
  (* no simulator may ever record a negative copy number *)
  QCheck.Test.make ~name:"populations stay nonnegative, all algorithms"
    ~count:40 QCheck.small_int (fun seed ->
      let m = random_mass_action_model seed in
      List.for_all
        (fun run ->
          let tr =
            run Events.empty (Sim.config ~seed:(seed + 3) ~t_end:30. ()) m
          in
          let ok = ref true in
          Array.iter
            (fun id ->
              for k = 0 to Trace.length tr - 1 do
                if Trace.value tr id k < 0. then ok := false
              done)
            (Trace.names tr);
          !ok)
        [ direct; next_reaction ])

let test_sparse_equivalence_circuits () =
  (* Same check on the paper's Table-1 circuits under the virtual lab's
     input stimulus, shortened to keep the suite fast. *)
  let protocol =
    Glc_dvasim.Protocol.make ~total_time:400. ~hold_time:100. ()
  in
  let cfg = Sim.config ~seed:42 ~t_end:400. () in
  List.iter
    (fun circuit ->
      let events = Glc_dvasim.Experiment.input_schedule protocol circuit in
      let model = Glc_gates.Circuit.model circuit in
      Alcotest.(check string)
        (circuit.Glc_gates.Circuit.name ^ ": byte-identical trace")
        (Trace.to_csv (Direct_oracle.run ~events cfg model))
        (Trace.to_csv (Sim.run ~events cfg model)))
    (Glc_gates.Benchmarks.all ())

(* ---- flat propensity IR ---- *)

module Ir = Glc_ssa.Ir

let resolve_xyz = function
  | "x" -> Some 0
  | "y" -> Some 1
  | "z" -> Some 2
  | _ -> None

let ir_eval_of e state =
  let ex, _ = Ir.compile ~resolve:resolve_xyz e in
  Ir.eval ex ~regs:(Array.make ex.Ir.e_prog.Ir.p_regs 0.) state

let test_ir_const_fold () =
  (* (2 + 3) * x folds the addition at compile time; the remaining
     multiply reads the pool and the state directly, so the whole law
     is one instruction *)
  let e = Math.((num 2. + num 3.) * var "x") in
  let ex, st = Ir.compile ~resolve:resolve_xyz e in
  checki "one fold" 1 st.Ir.s_const_folds;
  checki "one instruction" 1 st.Ir.s_instrs;
  checkf 0. "value" 20.
    (Ir.eval ex ~regs:(Array.make ex.Ir.e_prog.Ir.p_regs 0.) [| 4.; 0.; 0. |]);
  (* a law folding entirely to a constant emits no code at all *)
  let ex2, st2 = Ir.compile ~resolve:resolve_xyz Math.(num 2. ** num 5.) in
  checki "no code" 0 (Array.length ex2.Ir.e_prog.Ir.p_code);
  checki "pow folded" 1 st2.Ir.s_const_folds;
  checkf 0. "folded value" 32. (Ir.eval ex2 ~regs:[||] [||]);
  (* folding is IEEE-exact, never algebraic: 0 * x survives so a NaN
     state still propagates *)
  checkb "0 * nan is nan" true
    (Float.is_nan (ir_eval_of Math.(num 0. * var "x") [| Float.nan; 0.; 0. |]))

let test_ir_cse () =
  (* x*y appears twice: the second occurrence reuses the register *)
  let xy = Math.(var "x" * var "y") in
  let _, st = Ir.compile ~resolve:resolve_xyz Math.(xy + xy) in
  checki "two instructions" 2 st.Ir.s_instrs;
  checki "one cse hit" 1 st.Ir.s_cse_hits;
  checkf 0. "value" 24. (ir_eval_of Math.(xy + xy) [| 3.; 4.; 0. |])

let test_ir_hill_superinstruction () =
  (* A gate's whole production law — built the way the SBOL importer
     builds it — fuses to a single superinstruction: k^n folds, and the
     remaining [ymin + (ymax-ymin) * factor] shape is one opcode. *)
  let open Math in
  let kn = num 12. ** num 2.4 in
  let xn = var "x" ** num 2.4 in
  let gate product = num 0.03 + ((num 5. - num 0.03) * product) in
  let check_fused name law =
    let _, st = Ir.compile ~resolve:resolve_xyz law in
    checki (name ^ " fuses to one instruction") 1 st.Ir.s_instrs;
    List.iter
      (fun v ->
        let ast = Math.eval ~lookup:(fun _ -> v) law in
        let ir = ir_eval_of law [| v; 0.; 0. |] in
        if Int64.bits_of_float ast <> Int64.bits_of_float ir then
          Alcotest.failf "%s(%g): ast %h <> ir %h" name v ast ir)
      [ 0.; 1.; 7.3; 12.; 1e6 ]
  in
  check_fused "repression" (gate (kn / (kn + xn)));
  (* activation evaluates x^n twice in the AST; the fused form computes
     it once yet returns the same bits *)
  check_fused "activation" (gate (xn / (kn + xn)));
  (* the library's own hill constructors associate the numerator
     differently, so they fold to a constant numerator and take the
     hillrf factor superinstruction plus the final add: two
     instructions, still bit-identical *)
  let law =
    hill_repression ~ymin:(num 0.03) ~ymax:(num 5.) ~k:(num 12.)
      ~n:(num 2.4) (var "x")
  in
  let _, st = Ir.compile ~resolve:resolve_xyz law in
  checki "constructor form takes two instructions" 2 st.Ir.s_instrs;
  List.iter
    (fun v ->
      let ast = Math.eval ~lookup:(fun _ -> v) law in
      let ir = ir_eval_of law [| v; 0.; 0. |] in
      if Int64.bits_of_float ast <> Int64.bits_of_float ir then
        Alcotest.failf "hill(%g): ast %h <> ir %h" v ast ir)
    [ 0.; 1.; 7.3; 12.; 1e6 ]

let test_ir_register_bounds () =
  let e = Math.((var "x" + var "y") * (var "x" - var "y")) in
  let ex, st = Ir.compile ~resolve:resolve_xyz e in
  let p = ex.Ir.e_prog in
  (* single assignment: one register per emitted instruction *)
  checki "regs = instrs" st.Ir.s_instrs p.Ir.p_regs;
  checkb "needs registers" true (p.Ir.p_regs > 0);
  checkf 0. "value" 5. (ir_eval_of e [| 3.; 2.; 0. |]);
  Alcotest.check_raises "short register file"
    (Invalid_argument "Ir.exec: register file smaller than p_regs")
    (fun () ->
      ignore (Ir.eval ex ~regs:(Array.make (p.Ir.p_regs - 1) 0.) [| 1.; 2.; 0. |]))

let test_ir_unresolved_ident () =
  match Ir.compile ~resolve:resolve_xyz (Math.var "ghost") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Random laws over every operator with awkward constants: the IR must
   return the very bits Math.eval returns, NaN and infinity included. *)
let rec ir_math_gen depth =
  let open QCheck.Gen in
  let const =
    map2
      (fun m e -> Math.Const (float_of_int m *. (10. ** float_of_int e)))
      (int_range (-50) 50) (int_range (-2) 2)
  in
  let ident = map (fun v -> Math.Ident v) (oneofl [ "x"; "y"; "z" ]) in
  if depth = 0 then oneof [ const; ident ]
  else begin
    let sub = ir_math_gen (depth - 1) in
    frequency
      [
        (2, const);
        (2, ident);
        (1, map (fun a -> Math.Neg a) sub);
        (1, map2 (fun a b -> Math.Add (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Sub (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Mul (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Div (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Pow (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Min (a, b)) sub sub);
        (1, map2 (fun a b -> Math.Max (a, b)) sub sub);
        (1, map (fun a -> Math.Exp a) sub);
        (1, map (fun a -> Math.Ln a) sub);
      ]
  end

let prop_ir_matches_math_eval =
  QCheck.Test.make
    ~name:"IR evaluation is bit-identical to Math.eval on random laws"
    ~count:500
    QCheck.(
      pair
        (make ~print:Math.to_string (ir_math_gen 4))
        (triple (int_range (-10) 40) (int_range (-10) 40)
           (int_range (-10) 40)))
    (fun (e, (vx, vy, vz)) ->
      let state =
        [| float_of_int vx; float_of_int vy /. 4.; float_of_int vz |]
      in
      let lookup = function
        | "x" -> state.(0)
        | "y" -> state.(1)
        | "z" -> state.(2)
        | _ -> raise Not_found
      in
      let ast = Math.eval ~lookup e in
      let ir = ir_eval_of e state in
      if Int64.bits_of_float ast = Int64.bits_of_float ir then true
      else
        QCheck.Test.fail_reportf "ast %h <> ir %h on %s" ast ir
          (Math.to_string e))

let prop_ir_ast_trace_equivalence =
  (* the flat IR against Math.eval at trace level: Hill laws (the fused
     superinstructions), mass action and a boundary input driven by
     events *)
  QCheck.Test.make
    ~name:"IR and AST paths produce byte-identical traces" ~count:80
    QCheck.small_int (fun seed ->
      let m = random_ode_model seed in
      let st = Random.State.make [| seed; 11 |] in
      let events =
        Events.of_list
          [
            Events.set 0. "S0" (float_of_int (Random.State.int st 30));
            Events.set
              (5.5 +. float_of_int (Random.State.int st 20))
              "S0"
              (float_of_int (Random.State.int st 30));
          ]
      in
      let cfg = Sim.config ~seed:(seed + 1) ~t_end:30. () in
      String.equal
        (Trace.to_csv (Sim.run ~events cfg m))
        (Trace.to_csv (Direct_oracle.run ~events cfg m)))

(* ---- non-finite propensities ---- *)

(* The headline bugfix: a kinetic law evaluating to NaN used to slip
   through the [Float.max 0.] clamp (max 0. nan = nan), corrupt the
   total propensity and silently truncate the run. The compiled model
   and the reference must both raise instead, naming the reaction and
   the state. Each case was verified to reproduce the silent truncation
   before the guard existed. *)
let test_non_finite_propensity_raises () =
  let cases =
    [
      ("0/0", Math.(var "X" / var "X"));
      ("ln of negative", Math.(Ln (var "X" - num 5.)));
      ("division by zero", Math.(num 1. / var "X"));
    ]
  in
  List.iter
    (fun (engine, run) ->
      List.iter
        (fun (case, rate) ->
          let m =
            Model.make
              ~id:("nonfinite_" ^ case)
              ~species:[ Model.species "X" 0. ]
              ~reactions:[ Model.reaction ~products:[ ("X", 1) ] ~rate "bad" ]
              ()
          in
          match run (Sim.config ~t_end:5. ()) m with
          | _ ->
              Alcotest.failf "%s/%s: expected Non_finite_propensity"
                engine case
          | exception
              Compiled.Non_finite_propensity
                { nf_model; nf_reaction; nf_value; nf_state } ->
              checks (case ^ ": model id") ("nonfinite_" ^ case) nf_model;
              checks (case ^ ": reaction id") "bad" nf_reaction;
              checkb (case ^ ": value is non-finite") false
                (Float.is_finite nf_value);
              checkb (case ^ ": state recorded") true
                (List.mem_assoc "X" nf_state))
        cases)
    [
      ("compiled", fun cfg m -> Sim.run cfg m);
      ("reference", fun cfg m -> Direct_oracle.run cfg m);
    ]

let test_negative_propensity_still_clamps () =
  (* finite negatives stay a clamp, not an error: the law dips below
     zero but the simulation proceeds with propensity 0 *)
  let m =
    Model.make ~id:"negclamp"
      ~species:[ Model.species "X" 0. ]
      ~reactions:
        [
          Model.reaction ~products:[ ("X", 1) ]
            ~rate:Math.(var "X" - num 5.)
            "sink";
        ]
      ()
  in
  let c = Compiled.compile m in
  checkf 0. "compiled: clamped to zero" 0. (propensities c [| 0. |]).(0);
  checkf 0. "reference: clamped to zero" 0.
    (Direct_oracle.propensities m c [| 0. |]).(0)

(* ---- recorder grid property ---- *)

let prop_recorder_grid =
  QCheck.Test.make
    ~name:"recorder: finish yields the full grid, each point holding the \
           latest observation at or before it" ~count:300
    QCheck.(
      pair (int_range 1 20) (small_list (pair (int_bound 40) (int_bound 99))))
    (fun (t_end_i, steps) ->
      let t_end = float_of_int t_end_i in
      let r =
        Trace.Recorder.create ~names:[| "x" |] ~initial:[| -1. |] ~t0:0.
          ~t_end ~dt:1. ()
      in
      (* the same changes through [advance]: the live state is handed
         over before each change, and only column 1 of it is recorded *)
      let live = [| 0.; -1. |] in
      let r_live =
        Trace.Recorder.create ~columns:[| 1 |] ~names:[| "y"; "x" |]
          ~initial:live ~t0:0. ~t_end ~dt:1. ()
      in
      let next = ref (Trace.Recorder.advance r_live 0. live) in
      (* nondecreasing observation times in tenths, some past t_end;
         [obs] is newest-first, seeded with the initial state at t0 *)
      let t = ref 0. in
      let obs = ref [ (0., -1.) ] in
      List.iter
        (fun (dt10, v) ->
          t := !t +. (float_of_int dt10 /. 10.);
          let v = float_of_int v in
          Trace.Recorder.observe r !t [| v |];
          if !next < !t then next := Trace.Recorder.advance r_live !t live;
          live.(1) <- v;
          obs := (!t, v) :: !obs)
        steps;
      let tr = Trace.Recorder.finish r in
      ignore (Trace.Recorder.advance r_live infinity live);
      let tr_live = Trace.Recorder.finish r_live in
      let samples = t_end_i + 1 in
      Trace.length tr = samples
      && Trace.to_csv tr = Trace.to_csv tr_live
      && List.for_all
           (fun k ->
             let tk = float_of_int k in
             let expected =
               (* newest-first scan: first entry at or before the grid
                  point is the latest one *)
               List.find_opt (fun (ti, _) -> ti <= tk) !obs
               |> Option.fold ~none:(-1.) ~some:snd
             in
             Trace.value tr "x" k = expected)
           (List.init samples Fun.id))

let test_recorder_columns () =
  let r =
    Trace.Recorder.create ~columns:[| 2; 0 |] ~names:[| "a"; "b"; "c" |]
      ~initial:[| 1.; 2.; 3. |] ~t0:0. ~t_end:2. ~dt:1. ()
  in
  Trace.Recorder.observe r 1. [| 4.; 5.; 6. |];
  let tr = Trace.Recorder.finish r in
  Alcotest.(check (array string)) "recorded names" [| "c"; "a" |]
    (Trace.names tr);
  Alcotest.(check (array (float 0.))) "c" [| 3.; 6.; 6. |]
    (Trace.column tr "c");
  Alcotest.(check (array (float 0.))) "a" [| 1.; 4.; 4. |]
    (Trace.column tr "a");
  Alcotest.check_raises "out of range"
    (Invalid_argument "Trace.Recorder.create: column out of range")
    (fun () ->
      ignore
        (Trace.Recorder.create ~columns:[| 3 |] ~names:[| "a"; "b"; "c" |]
           ~initial:[| 1.; 2.; 3. |] ~t0:0. ~t_end:2. ~dt:1. ()))

(* ---- allocation tripwires ---- *)

(* Minor-heap words allocated by the second of two identical calls of
   [f] (the first warms lazy tables), with [f]'s result. dune's default
   profile compiles with [-opaque], so nothing is inlined across
   modules: a float that crosses a module boundary, or reaches a local
   closure, in a hot loop shows up here as words per step. *)
let minor_words_of f =
  ignore (f ());
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

(* 0x17 under the paper's input stimulus, the circuit BENCH_ssa.json's
   last row runs *)
let tripwire_circuit () =
  let circuit = Option.get (Glc_gates.Benchmarks.find "0x17") in
  ( Compiled.compile (Glc_gates.Circuit.model circuit),
    Glc_dvasim.Experiment.input_schedule Glc_dvasim.Protocol.default circuit )

let test_direct_firing_allocates_nothing () =
  let c, events = tripwire_circuit () in
  let cfg = Sim.config ~seed:42 ~t_end:2000. () in
  let words, (_, stats) =
    minor_words_of (fun () -> Sim.run_compiled ~events cfg c)
  in
  let fired = stats.Sim.reactions_fired in
  let per_firing = words /. float_of_int fired in
  if fired < 10_000 || per_firing >= 1. then
    Alcotest.failf "%.0f minor words over %d firings: %.3f per firing" words
      fired per_firing

let test_rk4_step_allocation () =
  let c, events = tripwire_circuit () in
  let cfg = Glc_ssa.Ode.config ~t_end:2000. () in
  let words, u =
    minor_words_of (fun () ->
        Glc_ssa.Ode.run_until ~events ~from:0. cfg c (fun _ -> false))
  in
  let steps = u.Glc_ssa.Ode.u_steps in
  let per_step = words /. float_of_int steps in
  if steps < 10_000 || per_step >= 16. then
    Alcotest.failf "%.0f minor words over %d RK4 steps: %.2f per step" words
      steps per_step

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "glc_ssa"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick
            test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "float ranges" `Quick test_rng_float_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int" `Quick test_rng_int;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "first draws of seed 42 are pinned" `Quick
            test_rng_pinned_seed_42;
          Alcotest.test_case "gaussian" `Quick test_rng_gaussian;
        ]
        @ qc
            [
              prop_rng_split_deterministic;
              prop_rng_split_no_collisions;
              prop_rng_int_range;
              prop_rng_int_uniform;
              prop_rng_matches_reference;
            ] );
      ( "trace",
        [
          Alcotest.test_case "zero-order hold" `Quick test_recorder_hold;
          Alcotest.test_case "jump on grid point" `Quick
            test_recorder_exact_grid_point;
          Alcotest.test_case "time goes backwards" `Quick
            test_recorder_backwards;
          Alcotest.test_case "recorded columns" `Quick test_recorder_columns;
          Alcotest.test_case "accessors" `Quick test_trace_accessors;
          Alcotest.test_case "statistics" `Quick test_trace_statistics;
          Alcotest.test_case "csv round trip" `Quick test_trace_csv_roundtrip;
          Alcotest.test_case "csv errors" `Quick test_trace_csv_errors;
          Alcotest.test_case "concat validation" `Quick
            test_trace_concat_validation;
          Alcotest.test_case "concat empty operands" `Quick
            test_trace_concat_empty;
          Alcotest.test_case "empty-trace statistics" `Quick
            test_trace_empty_statistics;
        ]
        @ qc [ prop_trace_split_concat; prop_recorder_grid ] );
      ( "events",
        Alcotest.test_case "schedules" `Quick test_events
        :: qc [ prop_events_merge_sorted ] );
      ( "compiled",
        [
          Alcotest.test_case "compile" `Quick test_compile;
          Alcotest.test_case "boundary deltas dropped" `Quick
            test_compile_boundary_deltas;
          Alcotest.test_case "negative propensity clamped" `Quick
            test_compile_negative_propensity_clamped;
          Alcotest.test_case "non-finite propensity raises, both paths"
            `Quick test_non_finite_propensity_raises;
          Alcotest.test_case "finite negatives still clamp, both paths"
            `Quick test_negative_propensity_still_clamps;
        ] );
      ( "ir",
        [
          Alcotest.test_case "constant folding" `Quick test_ir_const_fold;
          Alcotest.test_case "common subexpressions share a register"
            `Quick test_ir_cse;
          Alcotest.test_case "Hill responses fuse to one instruction"
            `Quick test_ir_hill_superinstruction;
          Alcotest.test_case "register bounds" `Quick test_ir_register_bounds;
          Alcotest.test_case "unresolved identifier" `Quick
            test_ir_unresolved_ident;
        ]
        @ qc [ prop_ir_matches_math_eval; prop_ir_ast_trace_equivalence ] );
      ( "simulation",
        [
          Alcotest.test_case "determinism" `Quick test_sim_determinism;
          Alcotest.test_case "birth-death Fano factor" `Slow
            test_birth_death_fano;
          Alcotest.test_case "birth-death mean" `Slow
            test_sim_birth_death_mean;
          Alcotest.test_case "methods agree" `Slow test_sim_methods_agree;
          Alcotest.test_case "events applied" `Quick test_sim_events_applied;
          Alcotest.test_case "unknown event species" `Quick
            test_sim_event_on_unknown_species;
          Alcotest.test_case "boundary clamped" `Quick
            test_sim_boundary_untouched_by_reactions;
          Alcotest.test_case "boundary reactant, all algorithms" `Quick
            test_sim_boundary_reactant_all_algorithms;
          Alcotest.test_case "sparse equivalence on Table-1 circuits"
            `Slow test_sparse_equivalence_circuits;
          Alcotest.test_case "stats" `Quick test_sim_stats;
          Alcotest.test_case "zero propensity stall" `Quick
            test_sim_zero_propensity;
          Alcotest.test_case "next-reaction with events" `Quick
            test_sim_next_reaction_with_events;
          Alcotest.test_case "pure birth via next-reaction" `Quick
            test_sim_pure_birth_next_reaction;
          Alcotest.test_case "select skips zero propensity" `Quick
            test_select_skips_zero_propensity;
          Alcotest.test_case "event at t0 in first sample" `Quick
            test_sim_event_at_t0_in_first_sample;
        ]
        @ qc
            [
              prop_select_positive_propensity;
              prop_sparse_direct_equivalence;
              prop_nonnegative_populations;
            ]
      );
      ( "population",
        [
          Alcotest.test_case "mean of cells" `Slow test_population_mean;
          Alcotest.test_case "determinism and validation" `Quick
            test_population_determinism_and_validation;
        ] );
      ( "ode",
        [
          Alcotest.test_case "config validation" `Quick
            test_ode_config_validation;
          Alcotest.test_case "birth-death analytic" `Quick
            test_ode_birth_death;
          Alcotest.test_case "events" `Quick test_ode_events;
          Alcotest.test_case "event on unknown species" `Quick
            test_ode_event_on_unknown_species;
          Alcotest.test_case "steady state" `Quick test_ode_steady_state;
        ]
        @ qc [ prop_ode_matches_oracle ] );
      ( "allocation",
        [
          Alcotest.test_case "a direct-method firing allocates nothing"
            `Quick test_direct_firing_allocates_nothing;
          Alcotest.test_case "an RK4 step allocates under 16 words" `Quick
            test_rk4_step_allocation;
        ] );
      (* alcotest truncates printed test names to the width left after
         the longest group label; at 12 characters this is the longest,
         and renaming it re-truncates every printed name in the suite *)
      ( "test_oracles",
        [
          Alcotest.test_case "SSA oracles replay a seed exactly" `Quick
            test_oracles_deterministic;
        ] );
    ]
