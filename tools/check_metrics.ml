(* CI gate for metrics exports, in both formats the tooling emits.

   JSON mode (default): the file must parse with the project's own JSON
   reader and carry the documented shape —
   {"deterministic":{"counters":{...},"gauges":{...}},
    "timings":{"histograms":{...},"spans":{...}}} —
   plus, for an ensemble run, the SSA and engine counters the rest of
   the tooling keys on.

   Text mode (--text): the file is a Metrics.to_text scrape — the
   exposition `glcv scrape` serves from a daemon's /metrics endpoint.
   Every sample line must be `name value`; `# TYPE` comments and
   labelled histogram bucket lines are checked for form and skipped as
   samples.

   Repeatable --max COUNTER=CEILING arguments additionally assert a
   counter's value never exceeds the ceiling — the tripwire CI uses to
   catch regressions of the sparse propensity engine
   (ssa.propensity_evals is deterministic for a fixed seed) and runaway
   serve.* failure counters. The dual --min COUNTER=FLOOR asserts a
   counter reached at least the floor — the tripwire proving a code
   path actually ran (space.delays_measured >= 1 proves the atlas
   smoke run measured a propagation delay). In text mode dotted counter
   names are mangled the way the exposition mangles them
   (serve.jobs_failed matches serve_jobs_failed). Exits nonzero with a
   message on any mismatch. *)

module Json = Glc_core.Report.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_metrics: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let member v key =
  match Json.member v key with
  | Some x -> x
  | None -> fail "missing key %S" key

let usage () =
  prerr_endline
    "usage: check_metrics [--text] [--no-ensemble] FILE [--max \
     COUNTER=CEILING]... [--min COUNTER=FLOOR]...";
  exit 2

let parse_bound spec =
  match String.index_opt spec '=' with
  | None -> usage ()
  | Some i -> (
      let key = String.sub spec 0 i in
      let v = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt v with
      | Some bound when key <> "" -> (key, bound)
      | Some _ | None -> usage ())

(* A bound check shared by both modes: [lookup key] returns the
   counter's integer value if present. *)
let check_bounds ~what ~lookup maxes mins =
  List.iter
    (fun (key, ceiling) ->
      match lookup key with
      | None -> fail "%s %S is missing or not an integer" what key
      | Some n when n > ceiling ->
          fail "%s %S is %d, above the ceiling %d" what key n ceiling
      | Some n -> Printf.printf "check_metrics: %s = %d <= %d\n" key n ceiling)
    maxes;
  List.iter
    (fun (key, floor) ->
      match lookup key with
      | None -> fail "%s %S is missing or not an integer" what key
      | Some n when n < floor ->
          fail "%s %S is %d, below the floor %d" what key n floor
      | Some n -> Printf.printf "check_metrics: %s = %d >= %d\n" key n floor)
    mins

(* ---- JSON mode ---- *)

let check_json ?(ensemble = true) path text maxes mins =
  let doc =
    match Json.parse text with
    | Ok doc -> doc
    | Error m -> fail "does not parse with Report.Json: %s" m
  in
  let det = member doc "deterministic" in
  let counters = member det "counters" in
  ignore (member det "gauges");
  let timings = member doc "timings" in
  ignore (member timings "histograms");
  let spans = member timings "spans" in
  ignore (member spans "dropped");
  ignore (member spans "events");
  (* counters an ensemble run must have recorded; --no-ensemble skips
     them for exports from commands that need not simulate at all
     (e.g. a certified-first verify) *)
  if ensemble then
    List.iter
      (fun key ->
        match Json.to_int (member counters key) with
        | Some n when n >= 0 -> ()
        | Some _ -> fail "counter %S is negative" key
        | None -> fail "counter %S is not an integer" key)
      [
        "ssa.reactions_fired";
        "ssa.propensity_evals";
        "ssa.trace_samples";
        "engine.seeds_derived";
        "engine.replicates_ok";
        "pool.tasks";
      ];
  let lookup key =
    match Json.member counters key with
    | None -> None
    | Some v -> Json.to_int v
  in
  check_bounds ~what:"counter" ~lookup maxes mins;
  Printf.printf "check_metrics: %s OK\n" path

(* ---- text-exposition mode ---- *)

(* The exposition mangles instrument names the same way. *)
let mangle name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let is_sample_name name =
  name <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
         | _ -> false)
       name

let check_text path text maxes mins =
  let samples = Hashtbl.create 64 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      if line = "" || String.length line > 0 && line.[0] = '#' then ()
      else if String.contains line '{' then
        (* labelled sample (histogram bucket): form only, not a counter *)
        (match String.index_opt line '}' with
        | Some j
          when j + 2 < String.length line
               && line.[j + 1] = ' '
               && int_of_string_opt
                    (String.sub line (j + 2) (String.length line - j - 2))
                  <> None ->
            ()
        | _ -> fail "%s:%d: malformed labelled sample %S" path lineno line)
      else
        match String.split_on_char ' ' line with
        | [ name; value ] when is_sample_name name ->
            (* gauges and histogram sums may be floats; keep counters
               (integers) for the ceiling checks *)
            (match int_of_string_opt value with
            | Some n -> Hashtbl.replace samples name n
            | None ->
                if float_of_string_opt value = None then
                  fail "%s:%d: sample %S has non-numeric value %S" path
                    lineno name value)
        | _ -> fail "%s:%d: malformed sample line %S" path lineno line)
    lines;
  if Hashtbl.length samples = 0 then fail "%s: no samples found" path;
  let lookup key = Hashtbl.find_opt samples (mangle key) in
  check_bounds ~what:"sample" ~lookup maxes mins;
  Printf.printf "check_metrics: %s OK (%d samples)\n" path
    (Hashtbl.length samples)

let () =
  let path, maxes, mins, text_mode, ensemble =
    let rec parse path maxes mins text_mode ensemble = function
      | [] -> (path, List.rev maxes, List.rev mins, text_mode, ensemble)
      | "--text" :: rest -> parse path maxes mins true ensemble rest
      | "--no-ensemble" :: rest -> parse path maxes mins text_mode false rest
      | "--max" :: spec :: rest ->
          parse path (parse_bound spec :: maxes) mins text_mode ensemble rest
      | "--min" :: spec :: rest ->
          parse path maxes (parse_bound spec :: mins) text_mode ensemble rest
      | p :: rest when path = None ->
          parse (Some p) maxes mins text_mode ensemble rest
      | _ -> usage ()
    in
    match parse None [] [] false true (List.tl (Array.to_list Sys.argv)) with
    | Some path, maxes, mins, text_mode, ensemble ->
        (path, maxes, mins, text_mode, ensemble)
    | None, _, _, _, _ -> usage ()
  in
  let text = try read_file path with Sys_error m -> fail "%s" m in
  if text_mode then check_text path text maxes mins
  else check_json ~ensemble path text maxes mins
