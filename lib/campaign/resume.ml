let load ~dir =
  let ( let* ) = Result.bind in
  let* store, manifest = Store.load ~dir in
  let* spec = Grid.spec_of_json manifest in
  Ok (store, spec)

let pending ~store jobs =
  List.filter (fun job -> not (Store.mem store ~id:(Grid.job_id job))) jobs

type status = {
  s_total : int;
  s_done : int;
  s_pending : string list;  (** ids, grid order *)
  s_attempts : (string * int) list;  (** started-events per id, grid order *)
  s_failures : (string * string) list;  (** last failure per id, grid order *)
  s_jobs_per_second : float option;
  s_eta_seconds : float option;
}

(* Observed completion rate, derived from the modification times of the
   stored results (the journal records no timestamps, and its format is
   frozen). Meaningful only with two or more results spread over
   measurable time. *)
let throughput ~store done_ids =
  let mtimes =
    List.filter_map
      (fun id ->
        match Unix.stat (Store.result_path store ~id) with
        | st -> Some st.Unix.st_mtime
        | exception Unix.Unix_error _ -> None)
      done_ids
  in
  match mtimes with
  | [] | [ _ ] -> None
  | _ :: _ ->
      let lo = List.fold_left Float.min infinity mtimes in
      let hi = List.fold_left Float.max neg_infinity mtimes in
      if hi <= lo then None
      else Some (float_of_int (List.length mtimes - 1) /. (hi -. lo))

let status ~dir =
  let ( let* ) = Result.bind in
  let* store, spec = load ~dir in
  let jobs = Grid.expand spec.Grid.grid in
  let events = Journal.read ~dir in
  let count_started id =
    List.length
      (List.filter
         (function Journal.Started id' -> id' = id | _ -> false)
         events)
  in
  let last_failure id =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Journal.Failed (id', e) when id' = id -> Some e
        | _ -> acc)
      None events
  in
  let ids = List.map Grid.job_id jobs in
  let done_ids = List.filter (fun id -> Store.mem store ~id) ids in
  let pending_ids = List.filter (fun id -> not (Store.mem store ~id)) ids in
  let rate = throughput ~store done_ids in
  Ok
    {
      s_total = List.length ids;
      s_done = List.length done_ids;
      s_pending = pending_ids;
      s_attempts =
        List.filter_map
          (fun id ->
            match count_started id with 0 -> None | n -> Some (id, n))
          ids;
      s_failures =
        List.filter_map
          (fun id -> Option.map (fun e -> (id, e)) (last_failure id))
          ids;
      s_jobs_per_second = rate;
      s_eta_seconds =
        (match rate with
        | Some r when pending_ids <> [] ->
            Some (float_of_int (List.length pending_ids) /. r)
        | Some _ | None -> None);
    }

(* Certify every pending job once, keep those whose certificate settles
   every row, each with its certificate. An unresolvable circuit stays,
   without one, so the runner journals the failure. *)
let keep_certified ?metrics spec todo =
  List.filter_map
    (fun job ->
      match Runner.certify ?metrics spec job with
      | Error _ -> Some (job, None)
      | Ok ((_, cert) as c) ->
          if Glc_symbolic.Certificate.fully_decided cert then
            Some (job, Some c)
          else None)
    todo

let run ?jobs ?limit ?on_progress ?metrics ?should_stop
    ?(certified_only = false) ~dir () =
  let ( let* ) = Result.bind in
  let* store, spec = load ~dir in
  (* single-writer discipline: a concurrent drain of the same directory
     would run pending jobs twice and interleave the journal *)
  let* summary =
    Store.Lock.with_lock ~dir (fun () ->
        let todo = pending ~store (Grid.expand spec.Grid.grid) in
        let todo =
          if certified_only then keep_certified ?metrics spec todo
          else List.map (fun job -> (job, None)) todo
        in
        let journal = Journal.open_ ~dir in
        Fun.protect
          ~finally:(fun () -> Journal.close journal)
          (fun () ->
            Runner.run ?jobs ?limit ?on_progress ?metrics ?should_stop
              ~store ~journal spec todo))
  in
  Ok (store, spec, summary)
