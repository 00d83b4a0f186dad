module Json = Glc_obs.Json
module Cache = Glc_engine.Cache
module Protocol = Glc_dvasim.Protocol

type t = {
  circuits : string list;
  thresholds : float list;
  fov_uds : float list;
  input_highs : float option list;
  replicate_counts : int list;
}

type spec = {
  seed : int;
  total_time : float;
  hold_time : float;
  grid : t;
}

type job = {
  j_circuit : string;
  j_threshold : float;
  j_fov_ud : float;
  j_input_high : float option;
  j_replicates : int;
}

let rec distinct = function
  | [] -> true
  | x :: rest -> (not (List.mem x rest)) && distinct rest

let axis name check xs =
  if xs = [] then invalid_arg (Printf.sprintf "Grid.make: empty %s" name);
  if not (distinct xs) then
    invalid_arg (Printf.sprintf "Grid.make: duplicate %s" name);
  List.iter (check name) xs

let positive name x =
  if not (x > 0. && Float.is_finite x) then
    invalid_arg
      (Printf.sprintf "Grid.make: non-positive or non-finite %s" name)

let make ?(thresholds = [ Protocol.default.Protocol.threshold ])
    ?(fov_uds = [ 0.25 ]) ?(input_highs = [ None ])
    ?(replicate_counts = [ 16 ]) circuits =
  axis "circuits" (fun n c -> if c = "" then invalid_arg
      (Printf.sprintf "Grid.make: empty string in %s" n)) circuits;
  axis "thresholds" positive thresholds;
  axis "fov_uds"
    (fun n f ->
      if not (f > 0. && f <= 1.) then
        invalid_arg (Printf.sprintf "Grid.make: %s not in (0, 1]" n))
    fov_uds;
  axis "input_highs"
    (fun n -> function Some x -> positive n x | None -> ())
    input_highs;
  axis "replicate_counts"
    (fun n r ->
      if r < 1 then invalid_arg (Printf.sprintf "Grid.make: %s < 1" n))
    replicate_counts;
  { circuits; thresholds; fov_uds; input_highs; replicate_counts }

let spec ?(seed = 42) ?(total_time = Protocol.default.Protocol.total_time)
    ?(hold_time = Protocol.default.Protocol.hold_time) grid =
  if not (total_time > 0. && Float.is_finite total_time) then
    invalid_arg "Grid.spec: total_time must be finite and > 0";
  if not (hold_time > 0. && Float.is_finite hold_time) then
    invalid_arg "Grid.spec: hold_time must be finite and > 0";
  { seed; total_time; hold_time; grid }

(* Deterministic nested expansion: circuits outermost, replicate counts
   innermost. Everything downstream (ids, seeds, the report's job
   order) leans on this order being a pure function of the grid. *)
let expand g =
  List.concat_map
    (fun j_circuit ->
      List.concat_map
        (fun j_threshold ->
          List.concat_map
            (fun j_fov_ud ->
              List.concat_map
                (fun j_input_high ->
                  List.map
                    (fun j_replicates ->
                      {
                        j_circuit;
                        j_threshold;
                        j_fov_ud;
                        j_input_high;
                        j_replicates;
                      })
                    g.replicate_counts)
                g.input_highs)
            g.fov_uds)
        g.thresholds)
    g.circuits

let size g =
  List.length g.circuits * List.length g.thresholds
  * List.length g.fov_uds * List.length g.input_highs
  * List.length g.replicate_counts

(* The id hashes the canonical field rendering: it depends only on the
   job's content, never on its position in the grid. *)
let canonical job =
  Printf.sprintf "circuit=%s;threshold=%s;fov=%s;high=%s;replicates=%d"
    job.j_circuit
    (Json.float job.j_threshold)
    (Json.float job.j_fov_ud)
    (match job.j_input_high with
    | None -> "default"
    | Some h -> Json.float h)
    job.j_replicates

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> c
      | _ -> '_')
    name

let job_id job =
  Printf.sprintf "%s-%016Lx" (sanitize job.j_circuit)
    (Cache.fnv64 (canonical job))

let job_seed ~seed job =
  (* root seed folded with the content id: stable under re-ordering,
     re-expansion and resume; positive so it is a valid RNG seed *)
  Int64.to_int
    (Int64.shift_right_logical
       (Cache.fnv64 (Printf.sprintf "%d/%s" seed (job_id job)))
       2)

let job_fields job =
  [
    ("circuit", Json.string job.j_circuit);
    ("threshold", Json.float job.j_threshold);
    ("fov_ud", Json.float job.j_fov_ud);
    ("input_high", Json.option Json.float job.j_input_high);
    ("replicates", string_of_int job.j_replicates);
  ]

(* ---- manifest (de)serialisation ---- *)

let spec_to_json s =
  let g = s.grid and list render xs = Json.arr (List.map render xs) in
  Json.obj
    [
      ("version", "1");
      ("seed", string_of_int s.seed);
      ("total_time", Json.float s.total_time);
      ("hold_time", Json.float s.hold_time);
      ( "grid",
        Json.obj
          [
            ("circuits", list Json.string g.circuits);
            ("thresholds", list Json.float g.thresholds);
            ("fov_uds", list Json.float g.fov_uds);
            ("input_highs", list (Json.option Json.float) g.input_highs);
            ("replicate_counts", list string_of_int g.replicate_counts);
          ] );
    ]

let field_of v name read =
  match read v name with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "manifest: missing or bad %S" name)

let list_field v name conv =
  let ( let* ) = Result.bind in
  let* items = field_of v name Json.list_field in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
        match conv item with
        | Some x -> go (x :: acc) rest
        | None -> Error (Printf.sprintf "manifest: bad element in %S" name))
  in
  go [] items

let of_json v =
  let ( let* ) = Result.bind in
  let* circuits = list_field v "circuits" Json.to_str in
  let* thresholds = list_field v "thresholds" Json.to_number in
  let* fov_uds = list_field v "fov_uds" Json.to_number in
  let* input_highs =
    list_field v "input_highs" (function
      | Json.Null -> Some None
      | Json.Number h -> Some (Some h)
      | _ -> None)
  in
  let* replicate_counts = list_field v "replicate_counts" Json.to_int in
  match
    make ~thresholds ~fov_uds ~input_highs ~replicate_counts circuits
  with
  | g -> Ok g
  | exception Invalid_argument m -> Error m

let spec_of_json text =
  let ( let* ) = Result.bind in
  let* v = Json.parse text in
  let* version = field_of v "version" Json.int_field in
  if version <> 1 then
    Error (Printf.sprintf "manifest: unsupported version %d" version)
  else
    let* seed = field_of v "seed" Json.int_field in
    let* total_time = field_of v "total_time" Json.number_field in
    let* hold_time = field_of v "hold_time" Json.number_field in
    let* grid =
      match Json.member v "grid" with
      | Some g -> of_json g
      | None -> Error "manifest: missing \"grid\""
    in
    match spec ~seed ~total_time ~hold_time grid with
    | s -> Ok s
    | exception Invalid_argument m -> Error m
