let check_threshold threshold =
  if threshold <= 0. then invalid_arg "Digital.of_samples: threshold <= 0"

let of_samples ~threshold samples =
  check_threshold threshold;
  Array.map (fun v -> v >= threshold) samples

let of_trace ~threshold trace id =
  check_threshold threshold;
  Glc_ssa.Trace.map_column trace id (fun v -> v >= threshold)

let count_high bits =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits

let count_variations bits =
  let n = Array.length bits in
  let count = ref 0 in
  for k = 1 to n - 1 do
    if bits.(k) <> bits.(k - 1) then incr count
  done;
  !count

let majority_smooth ~window bits =
  if window <= 0 || window mod 2 = 0 then
    invalid_arg "Digital.majority_smooth: window must be odd and positive";
  if window = 1 then Array.copy bits
  else begin
    let n = Array.length bits in
    let half = window / 2 in
    Array.init n (fun k ->
        let lo = Stdlib.max 0 (k - half) and hi = Stdlib.min (n - 1) (k + half) in
        let ones = ref 0 in
        for i = lo to hi do
          if bits.(i) then incr ones
        done;
        2 * !ones > hi - lo + 1)
  end
