let mean_of traces =
  match traces with
  | [] -> invalid_arg "Population.mean_of: no traces"
  | first :: rest ->
      let names = Trace.names first in
      let samples = Trace.length first in
      List.iter
        (fun tr ->
          if Trace.names tr <> names || Trace.length tr <> samples then
            invalid_arg "Population.mean_of: mismatched traces")
        rest;
      let count = float_of_int (List.length traces) in
      let acc =
        Array.map (fun id -> Trace.column first id) names
      in
      List.iter
        (fun tr ->
          Array.iteri
            (fun s id ->
              let col = Trace.column tr id in
              Array.iteri
                (fun k v -> acc.(s).(k) <- acc.(s).(k) +. v)
                col)
            names)
        rest;
      let r =
        Trace.Recorder.create ~names
          ~initial:(Array.map (fun col -> col.(0) /. count) acc)
          ~t0:(Trace.t0 first)
          ~t_end:(Trace.time first (samples - 1))
          ~dt:(Trace.dt first) ()
      in
      for k = 0 to samples - 1 do
        Trace.Recorder.observe r
          (Trace.time first k)
          (Array.map (fun col -> col.(k) /. count) acc)
      done;
      Trace.Recorder.finish r

let run ?events ~cells (cfg : Sim.config) model =
  if cells <= 0 then invalid_arg "Population.run: cells <= 0";
  let compiled = Compiled.compile model in
  let per_cell =
    List.init cells (fun i ->
        let cfg = { cfg with Sim.seed = (cfg.Sim.seed * 65_599) + i } in
        fst (Sim.run_compiled ?events cfg compiled))
  in
  (mean_of per_cell, per_cell)
