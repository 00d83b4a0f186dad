(* Tests for glc_space: NPN classification (the 14-class pin for n = 3,
   orbit sizes, bio-class counts), netlist synthesis as a roundtrip
   over the whole 256-function space, the atlas (delay measurement,
   kill + resume = byte-identical SPACE.json) and the GA (seeded
   determinism, interrupt + resume = byte-identical journal). *)

module Truth_table = Glc_logic.Truth_table
module Netlist = Glc_logic.Netlist
module Cello = Glc_gates.Cello
module Protocol = Glc_dvasim.Protocol
module Store = Glc_campaign.Store
module Grid = Glc_campaign.Grid
module Runner = Glc_campaign.Runner
module Resume = Glc_campaign.Resume
module Circuit = Glc_gates.Circuit
module Ode = Glc_ssa.Ode
module Events = Glc_ssa.Events
module Trace = Glc_ssa.Trace
module Json = Glc_obs.Json
module Npn = Glc_space.Npn
module Fn = Glc_space.Fn
module Atlas = Glc_space.Atlas
module Evolve = Glc_space.Evolve

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---- scratch directories ---- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "glc-space-test-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_dirs2 f =
  with_dir (fun a -> with_dir (fun b -> f a b))

(* ---- NPN classification ---- *)

(* The published pin: 14 NPN classes cover the 256 3-input functions.
   Representatives and orbit sizes are fixed by the canonicalisation
   order, so any change to the classifier shows up here. *)
let expected_classes_3 =
  [
    (0x00, 2); (0x01, 16); (0x03, 24); (0x06, 24); (0x07, 48); (0x0F, 6);
    (0x16, 16); (0x17, 8); (0x18, 8); (0x19, 48); (0x1B, 24); (0x1E, 24);
    (0x3C, 6); (0x69, 2);
  ]

let test_npn_class_pin () =
  checki "14 classes for n=3" 14 (Npn.class_count ~arity:3);
  checki "4 classes for n=2" 4 (Npn.class_count ~arity:2);
  let cs = Npn.classes ~arity:3 in
  List.iter2
    (fun (rep, size) (rep', members) ->
      checki "representative" rep rep';
      checki "orbit size" size (List.length members))
    expected_classes_3 cs

let test_npn_partition () =
  let cs = Npn.classes ~arity:3 in
  let all = List.concat_map snd cs in
  checki "classes partition the space" 256 (List.length all);
  checki "no duplicates" 256
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun (rep, members) ->
      List.iter
        (fun m ->
          checki
            (Printf.sprintf "canonical 0x%02X" m)
            rep
            (Npn.canonical ~arity:3 m))
        members)
    cs

let test_npn_canonical_invariant () =
  (* the canonical form is constant on every orbit: check a slice of
     transforms against the whole space *)
  let trs = Npn.transforms ~arity:3 in
  checki "96 transforms for n=3" 96 (List.length trs);
  let some = [ List.nth trs 1; List.nth trs 17; List.nth trs 95 ] in
  for code = 0 to 255 do
    List.iter
      (fun tr ->
        checki "canonical invariant under transform"
          (Npn.canonical ~arity:3 code)
          (Npn.canonical ~arity:3 (Npn.apply ~arity:3 tr code)))
      some
  done

let count p = List.length (List.filter p (Fn.all_codes ~arity:3))

let test_bio_classes () =
  (* Ray / Das / Choudhury class sizes over the 3-input space *)
  checki "unate" 104 (count (Npn.is_unate ~arity:3));
  checki "canalizing" 118 (count (Npn.is_canalizing ~arity:3));
  checki "nested-canalizing" 64 (count (Npn.is_nested_canalizing ~arity:3));
  (* AND3 is the textbook nested-canalizing function *)
  checkb "AND3 unate" true (Npn.is_unate ~arity:3 0x80);
  checkb "AND3 canalizing" true (Npn.is_canalizing ~arity:3 0x80);
  checkb "AND3 NCF" true (Npn.is_nested_canalizing ~arity:3 0x80);
  (* parity is none of the three *)
  checkb "parity not unate" false (Npn.is_unate ~arity:3 0x96);
  checkb "parity not canalizing" false (Npn.is_canalizing ~arity:3 0x96);
  (* constants: unate by convention, canalizing by neither *)
  checkb "const unate" true (Npn.is_unate ~arity:3 0x00);
  checkb "const not canalizing" false (Npn.is_canalizing ~arity:3 0xFF)

(* ---- synthesis: the whole space roundtrips ---- *)

let test_synthesis_roundtrip_256 () =
  List.iter
    (fun code ->
      let nl = Fn.netlist ~arity:3 code in
      checki
        (Printf.sprintf "netlist of 0x%02X evaluates to its table" code)
        code
        (Truth_table.to_code (Netlist.to_truth_table nl)))
    (Fn.all_codes ~arity:3)

let test_synthesis_gate_pin () =
  let worst =
    List.fold_left
      (fun acc code ->
        max acc (Netlist.gate_count (Fn.netlist ~arity:3 code)))
      0
      (Fn.all_codes ~arity:3)
  in
  checki "worst minimal 3-input netlist" 12 worst;
  checki "parity needs the full 12" 12
    (Netlist.gate_count (Fn.netlist ~arity:3 0x69))

let test_synthesis_roundtrip_4in =
  QCheck.Test.make ~name:"4-input netlists evaluate to their code"
    ~count:40
    (QCheck.make
       ~print:(Printf.sprintf "0x%04X")
       (QCheck.Gen.int_bound 65535))
    (fun code ->
      Truth_table.to_code
        (Netlist.to_truth_table (Fn.netlist ~arity:4 code))
      = code)

let test_describe () =
  let i = Fn.describe ~arity:3 0x80 in
  checks "name" "0x80" i.Fn.i_name;
  checki "class" (Npn.canonical ~arity:3 0x80) i.Fn.i_class;
  checkb "flags" true
    (i.Fn.i_unate && i.Fn.i_canalizing && i.Fn.i_nested_canalizing);
  checkb "gates and depth positive" true
    (i.Fn.i_gates > 0 && i.Fn.i_depth > 0)

let test_sample_codes () =
  let s1 = Fn.sample_codes ~arity:3 ~seed:7 20 in
  let s2 = Fn.sample_codes ~arity:3 ~seed:7 20 in
  checkb "deterministic" true (s1 = s2);
  checki "size" 20 (List.length s1);
  checki "distinct" 20 (List.length (List.sort_uniq compare s1));
  checkb "sorted" true (List.sort compare s1 = s1);
  checkb "different seed differs" true
    (Fn.sample_codes ~arity:3 ~seed:8 20 <> s1);
  checki "oversampling returns the space" 256
    (List.length (Fn.sample_codes ~arity:3 ~seed:7 999))

(* ---- naming: 0xNN is 3-input, 0xNNNN is 4-input ---- *)

let test_code_names () =
  checks "3-input name" "0x1C" (Cello.name_of_code ~arity:3 0x1C);
  checks "4-input name" "0xBEEF" (Cello.name_of_code ~arity:4 0xBEEF);
  checkb "3-input parse" true
    (Cello.code_of_name "0x1C" = Some (3, 0x1C));
  checkb "4-input parse" true
    (Cello.code_of_name "0x1CAB" = Some (4, 0x1CAB));
  checkb "three digits read as 4-input" true
    (Cello.code_of_name "0x1FF" = Some (4, 0x1FF));
  checkb "garbage rejected" true (Cello.code_of_name "0xZZ" = None);
  checkb "no prefix rejected" true (Cello.code_of_name "28" = None);
  let c = Cello.of_code ~arity:4 0xBEEF in
  checki "4-input circuit arity" 4 (Array.length c.Glc_gates.Circuit.inputs);
  checki "4-input circuit table" 0xBEEF
    (Truth_table.to_code c.Glc_gates.Circuit.expected)

(* ---- propagation delay ---- *)

let light_protocol =
  Protocol.make ~total_time:2000. ~hold_time:250. ~threshold:15. ~seed:1 ()

let test_measure_delay () =
  (* constants never switch: no transitions, no delay *)
  let d = Atlas.measure_delay ~protocol:light_protocol (Cello.of_code 0x00) in
  checki "constant has no transitions" 0 d.Atlas.d_transitions;
  checkb "constant has no worst delay" true (d.Atlas.d_worst = None);
  (* a real function switches, and every switch crosses the threshold
     on the ODE limit well inside the timeout *)
  let d = Atlas.measure_delay ~protocol:light_protocol (Cello.of_code 0x1C) in
  checkb "transitions found" true (d.Atlas.d_transitions > 0);
  checki "all transitions crossed" d.Atlas.d_transitions d.Atlas.d_measured;
  (match d.Atlas.d_worst with
  | None -> Alcotest.fail "expected a worst delay"
  | Some w -> checkb "positive delay" true (w > 0.));
  (* determinism: the measurement is ODE-only *)
  let d' =
    Atlas.measure_delay ~protocol:light_protocol (Cello.of_code 0x1C)
  in
  checkb "deterministic" true (d = d')

(* The delay measurement as it was first written: every transition
   integrates the full settle + timeout horizon through Ode.run and the
   recorded trace is scanned for the first crossing at or after the
   switch. Kept as the reference the early-exit measurement must equal
   field for field. *)
let reference_delay ~protocol circuit =
  let arity = Circuit.arity circuit in
  let nc = 1 lsl arity in
  let expected = circuit.Circuit.expected in
  let threshold = protocol.Protocol.threshold in
  let settle = protocol.Protocol.hold_time in
  let timeout = 2.5 *. protocol.Protocol.hold_time in
  let level b =
    if b then protocol.Protocol.input_high else protocol.Protocol.input_low
  in
  let events ~from_row ~to_row =
    Events.of_list
      (List.concat
         (List.init arity (fun j ->
              let species = circuit.Circuit.inputs.(j) in
              [
                Events.set 0. species
                  (level (Circuit.input_value circuit ~row:from_row j));
                Events.set settle species
                  (level (Circuit.input_value circuit ~row:to_row j));
              ])))
  in
  let model = Circuit.model circuit in
  let cfg = Ode.config ~dt:1.0 ~step:1.0 ~t_end:(settle +. timeout) () in
  let transitions =
    List.filter_map
      (fun r ->
        let r' = (r + 1) mod nc in
        let a = Truth_table.output expected r
        and b = Truth_table.output expected r' in
        if a = b then None else Some (r, r', b))
      (List.init nc Fun.id)
  in
  let worst = ref None and measured = ref 0 in
  List.iter
    (fun (from_row, to_row, rising) ->
      let trace = Ode.run ~events:(events ~from_row ~to_row) cfg model in
      let out = Trace.column trace circuit.Circuit.output in
      let crossing =
        List.find_opt
          (fun k ->
            Trace.time trace k >= settle
            && if rising then out.(k) >= threshold else out.(k) < threshold)
          (List.init (Trace.length trace) Fun.id)
      in
      match crossing with
      | None -> ()
      | Some k ->
          let d = Trace.time trace k -. settle in
          incr measured;
          let better =
            match !worst with None -> true | Some (w, _, _, _) -> d > w
          in
          if better then worst := Some (d, from_row, to_row, rising))
    transitions;
  let n = List.length transitions in
  match !worst with
  | Some (w, f, t, r) ->
      { Atlas.d_transitions = n; d_measured = !measured; d_worst = Some w;
        d_from = f; d_to = t; d_rising = r }
  | None ->
      { Atlas.d_transitions = n; d_measured = 0; d_worst = None; d_from = 0;
        d_to = 0; d_rising = false }

(* the paper protocol of the committed atlas *)
let paper_protocol =
  let spec = Atlas.plan Atlas.default_config in
  Runner.job_protocol spec (List.hd (Grid.expand spec.Grid.grid))

(* the 14 NPN class representatives; parity 0x69, the 12-gate worst
   case, is one of them *)
let delay_probe_codes =
  List.sort_uniq compare (0x69 :: List.map fst (Npn.classes ~arity:3))

let bits = function
  | None -> None
  | Some w -> Some (Int64.bits_of_float w)

let check_delay what (a : Atlas.delay) (b : Atlas.delay) =
  checki (what ^ ": transitions") a.Atlas.d_transitions b.Atlas.d_transitions;
  checki (what ^ ": measured") a.Atlas.d_measured b.Atlas.d_measured;
  checkb (what ^ ": worst, bit for bit") true
    (bits a.Atlas.d_worst = bits b.Atlas.d_worst);
  checki (what ^ ": from") a.Atlas.d_from b.Atlas.d_from;
  checki (what ^ ": to") a.Atlas.d_to b.Atlas.d_to;
  checkb (what ^ ": rising") a.Atlas.d_rising b.Atlas.d_rising

let test_delay_matches_reference () =
  List.iter
    (fun code ->
      let c = Cello.of_code code in
      check_delay
        (Printf.sprintf "0x%02X" code)
        (reference_delay ~protocol:paper_protocol c)
        (Atlas.measure_delay ~protocol:paper_protocol c))
    delay_probe_codes

(* the committed SPACE.json was measured by the full-horizon reference;
   the early-exit measurement must reproduce its delay records *)
let test_delay_matches_committed_atlas () =
  let path =
    if Sys.file_exists "SPACE.json" then "SPACE.json" else "../SPACE.json"
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let functions =
    match Json.parse text with
    | Error e -> Alcotest.fail e
    | Ok v -> Option.get (Option.bind (Json.member v "functions") Json.to_list)
  in
  List.iter
    (fun code ->
      let name = Fn.name_of_code ~arity:3 code in
      let f =
        List.find
          (fun f -> Option.bind (Json.member f "name") Json.to_str = Some name)
          functions
      in
      let d = Option.get (Json.member f "delay") in
      let int k = Option.get (Option.bind (Json.member d k) Json.to_int) in
      let committed =
        {
          Atlas.d_transitions = int "transitions";
          d_measured = int "measured";
          d_worst = Option.bind (Json.member d "worst") Json.to_number;
          d_from = int "from_row";
          d_to = int "to_row";
          d_rising =
            Option.get (Option.bind (Json.member d "rising") Json.to_bool);
        }
      in
      check_delay name committed
        (Atlas.measure_delay ~protocol:paper_protocol (Cello.of_code code)))
    delay_probe_codes

(* ---- the atlas: kill + resume = byte-identical SPACE.json ---- *)

let light_config =
  {
    Atlas.inputs = 3;
    sample = Some 6;
    seed = 42;
    replicates = 2;
    threshold = 15.;
    total_time = 2000.;
    hold_time = 250.;
  }

let test_plan_validation () =
  Alcotest.check_raises "arity out of range"
    (Invalid_argument "Atlas.plan: inputs must be in 2..4")
    (fun () -> ignore (Atlas.plan { light_config with Atlas.inputs = 5 }));
  Alcotest.check_raises "4-input space needs a sample"
    (Invalid_argument
       "Atlas.plan: the 4-input space has 65,536 functions — pass a \
        sample size")
    (fun () ->
      ignore
        (Atlas.plan { light_config with Atlas.inputs = 4; sample = None }));
  (* the horizon guard: 16 combinations at hold 250 need total >= 4000 *)
  checkb "short horizon rejected" true
    (match
       Atlas.plan
         { light_config with Atlas.inputs = 4; sample = Some 4 }
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_atlas_resume_identical () =
  with_dirs2 (fun dir_a dir_b ->
      let spec = Atlas.plan light_config in
      (* uninterrupted reference run *)
      let sa = Result.get_ok (Atlas.run ~dir:dir_a spec) in
      checki "all done" sa.Atlas.a_functions sa.Atlas.a_done;
      checki "nothing pending" 0 sa.Atlas.a_remaining;
      checki "all delays" sa.Atlas.a_delays_total sa.Atlas.a_delays;
      (* killed after 3 jobs, then resumed *)
      let sb = Result.get_ok (Atlas.run ~limit:3 ~dir:dir_b spec) in
      checkb "limit leaves work" true (sb.Atlas.a_remaining > 0);
      let sb' = Result.get_ok (Atlas.run ~dir:dir_b spec) in
      checki "resume finishes" 0 sb'.Atlas.a_remaining;
      let json dir =
        let store, spec' = Result.get_ok (Glc_campaign.Resume.load ~dir) in
        Atlas.space_json store spec'
      in
      checks "byte-identical SPACE.json" (json dir_a) (json dir_b);
      (* and the markdown renders from it *)
      (match Atlas.markdown (json dir_a) with
      | Error e -> Alcotest.fail e
      | Ok md ->
          checkb "atlas mentions the run size" true
            (let needle = "6 of 256" in
             let n = String.length needle in
             let rec find i =
               i + n <= String.length md
               && (String.sub md i n = needle || find (i + 1))
             in
             find 0)))

let test_atlas_certified_only () =
  with_dir (fun dir ->
      let spec = Atlas.plan light_config in
      let metrics = Glc_obs.Metrics.create () in
      let s =
        Result.get_ok (Atlas.run ~metrics ~certified_only:true ~dir spec)
      in
      (* the filter's certificate is the job's: one per function *)
      checki "one certificate per function" s.Atlas.a_functions
        (Glc_obs.Metrics.Counter.value
           (Glc_obs.Metrics.counter metrics "symbolic.certificates"));
      (* certified-only never simulates: whatever completed did so via
         the symbolic certificate *)
      let store, spec' = Result.get_ok (Glc_campaign.Resume.load ~dir) in
      let ls = Store.lines store spec' in
      List.iter
        (fun l ->
          if l.Store.l_done then
            checks "provenance" "certified" l.Store.l_provenance)
        ls;
      checki "done + pending = all" s.Atlas.a_functions
        (s.Atlas.a_done + s.Atlas.a_remaining))

(* every delay-* document of an atlas directory, by id *)
let delay_docs dir =
  let store, _ = Result.get_ok (Store.load ~dir) in
  List.filter_map
    (fun id ->
      if String.starts_with ~prefix:"delay-" id then
        Some (id, Option.get (Store.get store ~id))
      else None)
    (Store.completed store)

let test_delay_pass_deterministic () =
  (* enough functions for several pool rounds, so the interrupted run
     stops with rounds still to go *)
  let spec = Atlas.plan { light_config with Atlas.sample = Some 40 } in
  with_dirs2 (fun dir_1 dir_2 ->
      with_dir (fun dir_stop ->
          let run ?should_stop ~jobs dir =
            Result.get_ok
              (Atlas.run ~jobs ?should_stop ~certified_only:true ~dir spec)
          in
          let s1 = run ~jobs:1 dir_1 in
          ignore (run ~jobs:2 dir_2);
          checkb "several rounds of delays" true (s1.Atlas.a_delays > 16);
          (* trips once the first round of delay docs is stored: the
             campaign drain before it never sees a delay doc *)
          let store, _, _ = Result.get_ok (Atlas.prepare ~dir:dir_stop spec) in
          let results = Filename.dirname (Store.result_path store ~id:"x") in
          let should_stop () =
            Array.exists
              (String.starts_with ~prefix:"delay-")
              (Sys.readdir results)
          in
          let stopped = run ~should_stop ~jobs:2 dir_stop in
          checkb "stopped inside the delay pass" true
            (stopped.Atlas.a_delays > 0
            && stopped.Atlas.a_delays < stopped.Atlas.a_delays_total);
          let resumed = run ~jobs:2 dir_stop in
          checki "resume measures the rest" resumed.Atlas.a_delays_total
            resumed.Atlas.a_delays;
          let reference = delay_docs dir_1 in
          checki "one doc per done function" s1.Atlas.a_done
            (List.length reference);
          List.iter
            (fun (what, docs) ->
              checkb (what ^ ": byte-identical delay docs") true
                (docs = reference))
            [
              ("jobs 2", delay_docs dir_2);
              ("stop + resume", delay_docs dir_stop);
            ]))

(* A delay doc that parses but lacks its fields used to read as a
   constant function (0 transitions, delay 0): it rendered on the
   frontier, and resume, which only checked that the doc existed, never
   repaired it. *)
let test_malformed_delay_doc () =
  with_dirs2 (fun dir_ref dir ->
      let spec = Atlas.plan light_config in
      ignore (Result.get_ok (Atlas.run ~certified_only:true ~dir:dir_ref spec));
      ignore (Result.get_ok (Atlas.run ~certified_only:true ~dir spec));
      let store, spec = Result.get_ok (Resume.load ~dir) in
      (* a function that really switches, so a 0-transition reading is
         wrong *)
      let id, _ =
        List.find
          (fun (_, doc) ->
            match Json.parse doc with
            | Ok v ->
                Option.bind (Json.member v "transitions") Json.to_int
                <> Some 0
            | Error _ -> false)
          (delay_docs dir)
      in
      let name = String.sub id 6 (String.length id - 6) in
      let before, _ = Atlas.delay_coverage store spec in
      Store.put store ~id
        (Printf.sprintf "{\"id\":%s,\"kind\":\"delay\",\"circuit\":%s}"
           (Json.string id) (Json.string name));
      checki "the truncated doc does not count" (before - 1)
        (fst (Atlas.delay_coverage store spec));
      let rendered name =
        match Json.parse (Atlas.space_json store spec) with
        | Error e -> Alcotest.fail e
        | Ok v ->
            Option.get (Option.bind (Json.member v "functions") Json.to_list)
            |> List.find (fun f ->
                   Option.bind (Json.member f "name") Json.to_str = Some name)
            |> fun f -> (Json.member f "delay", Json.member f "global_frontier")
      in
      checkb "renders as unmeasured, off the frontier" true
        (rendered name = (Some Json.Null, Some (Json.Bool false)));
      ignore (Result.get_ok (Atlas.run ~certified_only:true ~dir spec));
      checkb "resume re-measures it" true (delay_docs dir = delay_docs dir_ref);
      let json dir =
        let store, spec = Result.get_ok (Resume.load ~dir) in
        Atlas.space_json store spec
      in
      checks "byte-identical SPACE.json" (json dir_ref) (json dir))

(* ---- the GA: determinism and resume ---- *)

let ga_config =
  {
    Evolve.v_target = 0x96;
    (* hard on purpose: the run exhausts its budget, exercising every
       generation *)
    v_arity = 3;
    v_seed = 7;
    v_pop = 16;
    v_genes = 16;
    v_elite = 2;
    v_max_gens = 4;
  }

let gen_docs dir =
  let store, _ = Result.get_ok (Store.load ~dir) in
  List.filter_map
    (fun id ->
      if String.length id >= 4 && String.sub id 0 4 = "gen-" then
        Some (id, Option.get (Store.get store ~id))
      else None)
    (List.sort compare (Store.completed store))

let test_ga_deterministic () =
  with_dirs2 (fun dir_a dir_b ->
      let run dir = Result.get_ok (Evolve.run ~dir ga_config) in
      (match (run dir_a, run dir_b) with
      | Evolve.Finished a, Evolve.Finished b ->
          checkb "budget exhausted, not reached" false a.Evolve.o_reached;
          checkb "same outcome" true (a = b)
      | _ -> Alcotest.fail "expected two finished runs");
      let da = gen_docs dir_a and db = gen_docs dir_b in
      (* generation 0 (the seeded initial population) plus each evolved
         generation *)
      checki "journalled generations"
        (ga_config.Evolve.v_max_gens + 1)
        (List.length da);
      checkb "byte-identical generation journal" true (da = db))

let test_ga_resume_identical () =
  with_dirs2 (fun dir_a dir_b ->
      ignore (Result.get_ok (Evolve.run ~dir:dir_a ga_config));
      (* stop after two generations, then resume *)
      let calls = ref 0 in
      let stop () =
        incr calls;
        !calls > 2
      in
      (match Result.get_ok (Evolve.run ~should_stop:stop ~dir:dir_b ga_config) with
      | Evolve.Interrupted _ -> ()
      | Evolve.Finished _ -> Alcotest.fail "expected an interrupt");
      (match Result.get_ok (Evolve.run ~dir:dir_b ga_config) with
      | Evolve.Finished _ -> ()
      | Evolve.Interrupted _ -> Alcotest.fail "expected completion");
      checkb "kill + resume journal is byte-identical" true
        (gen_docs dir_a = gen_docs dir_b))

let test_ga_reaches_easy_target () =
  with_dir (fun dir ->
      let cfg = Evolve.default_config ~arity:3 ~target:0x80 in
      match Result.get_ok (Evolve.run ~dir cfg) with
      | Evolve.Interrupted _ -> Alcotest.fail "unexpected interrupt"
      | Evolve.Finished o ->
          checkb "reached" true o.Evolve.o_reached;
          Alcotest.check (Alcotest.float 0.) "pfobe 100" 100.
            o.Evolve.o_pfobe;
          checkb "gates counted" true (o.Evolve.o_gates > 0);
          checks "winner certifies" "certified" o.Evolve.o_provenance;
          checkb "genome decodes" true
            (Evolve.decode_genome o.Evolve.o_genome <> None);
          (* a second call returns the stored outcome without evolving *)
          let store, _ = Result.get_ok (Store.load ~dir) in
          let n_docs = List.length (Store.completed store) in
          (match Result.get_ok (Evolve.run ~dir cfg) with
          | Evolve.Finished o' -> checkb "idempotent" true (o = o')
          | Evolve.Interrupted _ -> Alcotest.fail "unexpected interrupt");
          let store, _ = Result.get_ok (Store.load ~dir) in
          checki "no new documents" n_docs
            (List.length (Store.completed store)))

let test_ga_config_mismatch () =
  with_dir (fun dir ->
      ignore (Result.get_ok (Evolve.run ~dir ga_config));
      match
        Evolve.run ~dir { ga_config with Evolve.v_seed = 8 }
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected a config-mismatch error")

let qc = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "glc_space"
    [
      ( "npn",
        [
          Alcotest.test_case "class pin" `Quick test_npn_class_pin;
          Alcotest.test_case "partition" `Quick test_npn_partition;
          Alcotest.test_case "canonical invariant" `Quick
            test_npn_canonical_invariant;
          Alcotest.test_case "bio classes" `Quick test_bio_classes;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "roundtrip over the 256" `Quick
            test_synthesis_roundtrip_256;
          Alcotest.test_case "gate pin" `Quick test_synthesis_gate_pin;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "sample codes" `Quick test_sample_codes;
          Alcotest.test_case "code names" `Quick test_code_names;
        ]
        @ qc [ test_synthesis_roundtrip_4in ] );
      ( "atlas",
        [
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "measure delay" `Quick test_measure_delay;
          Alcotest.test_case "delay equals the full-horizon reference" `Quick
            test_delay_matches_reference;
          Alcotest.test_case "delay equals the committed atlas" `Quick
            test_delay_matches_committed_atlas;
          Alcotest.test_case "delay pass deterministic" `Quick
            test_delay_pass_deterministic;
          Alcotest.test_case "malformed delay doc re-measured" `Quick
            test_malformed_delay_doc;
          Alcotest.test_case "kill + resume identical" `Quick
            test_atlas_resume_identical;
          Alcotest.test_case "certified only" `Quick
            test_atlas_certified_only;
        ] );
      ( "evolve",
        [
          Alcotest.test_case "deterministic" `Quick test_ga_deterministic;
          Alcotest.test_case "kill + resume identical" `Quick
            test_ga_resume_identical;
          Alcotest.test_case "reaches an easy target" `Slow
            test_ga_reaches_easy_target;
          Alcotest.test_case "config mismatch" `Quick
            test_ga_config_mismatch;
        ] );
    ]
