(* The four xoshiro256++ words live unboxed in one 32-byte buffer, read
   and written with [Bytes.get_int64_ne]/[set_int64_ne]: a record of
   [int64] fields would box every word on every update. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_ne t (8 * i)
let[@inline] set t i v = Bytes.set_int64_ne t (8 * i) v

(* splitmix64: expands a single seed into the four xoshiro words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed =
  let state = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let create seed = of_seed64 (Int64.of_int seed)
let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  set t 0 s0;
  set t 1 s1;
  set t 2 s2;
  set t 3 (rotl s3 45);
  result

let bits64 t = next t
let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let split t = of_seed64 (next t)
let float t = float_of_int (bits53 t) *. 0x1.0p-53

let float_pos t = 1.0 -. float t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling to avoid modulo bias. [r] is uniform on
     [0, 2^62 - 1] = [0, max_int]; [r - v] is the start of r's
     [bound]-sized bucket, and the draw is accepted iff the whole bucket
     [r - v, r - v + bound) fits below 2^62 — i.e. unless
     r - v > max_int - bound + 1 — so every accepted bucket is complete
     and each residue is equally likely. The rejected tail is at most
     [bound - 1] values out of 2^62, so for any bound the acceptance
     probability exceeds 1/2 and the loop terminates quickly. *)
  let rec draw () =
    let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then draw () else v
  in
  draw ()

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate <= 0";
  -.Float.log (float_pos t) /. rate

let gaussian t =
  let u1 = float_pos t and u2 = float t in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)
