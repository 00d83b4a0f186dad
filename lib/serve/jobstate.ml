module Grid = Glc_campaign.Grid
module Json = Glc_obs.Json

type phase =
  | Queued
  | Running
  | Done
  | Failed of string
  | Cancelled

let phase_label = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"

type entry = {
  id : string;
  job : Grid.job;
  priority : int;
  seq : int;
  submitted_at : float;
  mutable phase : phase;
  mutable from_cache : bool;
  mutable attempts : int;
}

let make ~job ~priority ~seq ~now =
  {
    id = Grid.job_id job;
    job;
    priority;
    seq;
    submitted_at = now;
    phase = Queued;
    from_cache = false;
    attempts = 0;
  }

(* Validation rides on Grid.make: a serve job is one cell of a campaign
   grid, so the axis constraints (and the job id) are the same by
   construction. *)
let job ~circuit ?threshold ?fov_ud ?input_high ?replicates () =
  let opt_axis v = Option.map (fun x -> [ x ]) v in
  match
    Grid.make
      ?thresholds:(opt_axis threshold)
      ?fov_uds:(opt_axis fov_ud)
      ?input_highs:(Option.map (fun h -> [ Some h ]) input_high)
      ?replicate_counts:(opt_axis replicates)
      [ circuit ]
  with
  | exception Invalid_argument m -> Error m
  | grid -> (
      match Grid.expand grid with
      | [ job ] -> Ok job
      | _ -> Error "internal error: single-cell grid expanded to several jobs")

let spec_for ~seed ~total_time ~hold_time (job : Grid.job) =
  let grid =
    Grid.make
      ~thresholds:[ job.Grid.j_threshold ]
      ~fov_uds:[ job.Grid.j_fov_ud ]
      ~input_highs:[ job.Grid.j_input_high ]
      ~replicate_counts:[ job.Grid.j_replicates ]
      [ job.Grid.j_circuit ]
  in
  Grid.spec ~seed ~total_time ~hold_time grid

(* ---- JSON ---- *)

let submission_fields e =
  (("id", Json.string e.id) :: Grid.job_fields e.job)
  @ [ ("priority", string_of_int e.priority); ("seq", string_of_int e.seq) ]

let status_json ~now e =
  let error =
    match e.phase with Failed m -> [ ("error", Json.string m) ] | _ -> []
  in
  Json.obj
    (submission_fields e
    @ (("status", Json.string (phase_label e.phase)) :: error)
    @ [
        ("from_cache", Json.bool e.from_cache);
        ("attempts", string_of_int e.attempts);
        ("age_s", Json.float (Float.max 0. (now -. e.submitted_at)));
      ])

let submission_json e = Json.obj (submission_fields e)

let submission_of_json text =
  match Json.parse text with
  | Error m -> Error (Printf.sprintf "unparseable submission record: %s" m)
  | Ok doc -> (
      let num = Json.number_field doc and int = Json.int_field doc in
      match
        ( Json.str_field doc "circuit",
          num "threshold",
          num "fov_ud",
          int "replicates" )
      with
      | Some circuit, Some threshold, Some fov_ud, Some replicates -> (
          let input_high =
            match Json.member doc "input_high" with
            | Some (Json.Number h) -> Some h
            | _ -> None
          in
          match
            job ~circuit ~threshold ~fov_ud ?input_high ~replicates ()
          with
          | Error m -> Error m
          | Ok j -> (
              match (int "priority", int "seq") with
              | Some priority, Some seq -> Ok (j, priority, seq)
              | _ -> Error "submission record lacks priority/seq"))
      | _ -> Error "submission record lacks job coordinates")

(* ---- registry ---- *)

type registry = (string, entry) Hashtbl.t

let registry () : registry = Hashtbl.create 64

let find (r : registry) id = Hashtbl.find_opt r id

let add (r : registry) e = Hashtbl.replace r e.id e

let entries (r : registry) =
  Hashtbl.fold (fun _ e acc -> e :: acc) r []
  |> List.sort (fun a b -> compare a.seq b.seq)

let count (r : registry) phase =
  let same a b =
    match (a, b) with
    | Queued, Queued | Running, Running | Done, Done | Cancelled, Cancelled
    | Failed _, Failed _ ->
        true
    | _ -> false
  in
  Hashtbl.fold (fun _ e acc -> if same e.phase phase then acc + 1 else acc) r 0
