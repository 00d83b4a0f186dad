type order = Counting | Gray

type t = {
  total_time : float;
  hold_time : float;
  threshold : float;
  input_high : float;
  input_low : float;
  dt : float;
  seed : int;
  order : order;
}

let default =
  {
    total_time = 10_000.;
    hold_time = 1_000.;
    threshold = 15.;
    input_high = 15.;
    input_low = 0.;
    dt = 1.;
    seed = 42;
    order = Counting;
  }

let make ?(total_time = default.total_time) ?(hold_time = default.hold_time)
    ?(threshold = default.threshold) ?input_high
    ?(input_low = default.input_low) ?(dt = default.dt)
    ?(seed = default.seed) ?(order = default.order) () =
  let input_high =
    match input_high with Some h -> h | None -> threshold
  in
  (* [not (x > 0.)] also rejects NaN; +infinity needs its own check *)
  let positive name x =
    if not (x > 0. && Float.is_finite x) then
      invalid_arg
        (Printf.sprintf "Protocol.make: %s must be finite and > 0" name)
  in
  positive "total_time" total_time;
  positive "hold_time" hold_time;
  positive "threshold" threshold;
  positive "dt" dt;
  if not (Float.is_finite input_low && Float.is_finite input_high) then
    invalid_arg "Protocol.make: non-finite input level";
  if input_low >= input_high then
    invalid_arg "Protocol.make: input_low >= input_high";
  { total_time; hold_time; threshold; input_high; input_low; dt; seed; order }

let with_threshold p threshold =
  if not (threshold > 0. && Float.is_finite threshold) then
    invalid_arg "Protocol.with_threshold: threshold must be finite and > 0";
  { p with threshold; input_high = threshold }

let slots p = int_of_float (Float.ceil (p.total_time /. p.hold_time))

let covers_all_rows p ~arity = slots p >= 1 lsl arity

let row_of_slot p ~arity slot =
  if slot < 0 then invalid_arg "Protocol.row_of_slot: negative slot";
  let s = slot mod (1 lsl arity) in
  match p.order with Counting -> s | Gray -> s lxor (s lsr 1)

let row_at p ~arity t =
  if t < 0. then invalid_arg "Protocol.row_at: negative time";
  row_of_slot p ~arity (int_of_float (Float.floor (t /. p.hold_time)))
