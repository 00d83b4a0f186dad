type t = {
  arity : int;
  outputs : Bytes.t; (* outputs.(row) is '\000' or '\001' *)
}

let arity t = t.arity
let rows t = 1 lsl t.arity

let check_arity arity =
  if arity < 0 || arity > 16 then
    invalid_arg (Printf.sprintf "Truth_table: arity %d not in 0..16" arity)

let create ~arity f =
  check_arity arity;
  let n = 1 lsl arity in
  let outputs = Bytes.create n in
  for row = 0 to n - 1 do
    Bytes.set outputs row (if f row then '\001' else '\000')
  done;
  { arity; outputs }

let of_minterms ~arity ms =
  check_arity arity;
  let n = 1 lsl arity in
  List.iter
    (fun m ->
      if m < 0 || m >= n then
        invalid_arg (Printf.sprintf "Truth_table.of_minterms: minterm %d" m))
    ms;
  create ~arity (fun row -> List.mem row ms)

let of_code ~arity code =
  check_arity arity;
  let n = 1 lsl arity in
  if code < 0 || (n < Sys.int_size && code lsr n <> 0) then
    invalid_arg
      (Printf.sprintf "Truth_table.of_code: code 0x%X exceeds %d rows" code n);
  create ~arity (fun row -> (code lsr row) land 1 = 1)

let to_code t =
  let code = ref 0 in
  for row = rows t - 1 downto 0 do
    code := (!code lsl 1) lor Char.code (Bytes.get t.outputs row)
  done;
  !code

let of_outputs os =
  let n = List.length os in
  let arity =
    let rec log2 acc m =
      if m = 1 then acc
      else if m land 1 = 1 || m = 0 then
        invalid_arg "Truth_table.of_outputs: length is not a power of two"
      else log2 (acc + 1) (m lsr 1)
    in
    if n = 0 then invalid_arg "Truth_table.of_outputs: empty" else log2 0 n
  in
  let a = Array.of_list os in
  create ~arity (fun row -> a.(row))

let output t row =
  if row < 0 || row >= rows t then
    invalid_arg (Printf.sprintf "Truth_table.output: row %d" row);
  Bytes.get t.outputs row = '\001'

let row_of_bits bits =
  let r = ref 0 in
  for i = Array.length bits - 1 downto 0 do
    r := (!r lsl 1) lor (if bits.(i) then 1 else 0)
  done;
  !r

let bits_of_row ~arity row =
  Array.init arity (fun i -> (row lsr i) land 1 = 1)

let eval t inputs =
  if Array.length inputs <> t.arity then
    invalid_arg "Truth_table.eval: wrong number of inputs";
  output t (row_of_bits inputs)

let minterms t =
  let acc = ref [] in
  for row = rows t - 1 downto 0 do
    if output t row then acc := row :: !acc
  done;
  !acc

let maxterms t =
  let acc = ref [] in
  for row = rows t - 1 downto 0 do
    if not (output t row) then acc := row :: !acc
  done;
  !acc

let is_constant t =
  match (minterms t, maxterms t) with
  | [], _ -> Some false
  | _, [] -> Some true
  | _ :: _, _ :: _ -> None

let complement t = create ~arity:t.arity (fun row -> not (output t row))

let equal a b = a.arity = b.arity && Bytes.equal a.outputs b.outputs

let compare a b =
  match Int.compare a.arity b.arity with
  | 0 -> Bytes.compare a.outputs b.outputs
  | c -> c

let hamming_distance a b =
  if a.arity <> b.arity then
    invalid_arg "Truth_table.hamming_distance: arity mismatch";
  let d = ref 0 in
  for row = 0 to rows a - 1 do
    if output a row <> output b row then incr d
  done;
  !d

let combination ~arity row =
  String.init arity (fun j ->
      if (row lsr (arity - 1 - j)) land 1 = 1 then '1' else '0')

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for row = 0 to rows t - 1 do
    if row > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "%s | %d"
      (combination ~arity:t.arity row)
      (if output t row then 1 else 0)
  done;
  Format.fprintf ppf "@]"

let pp_code ppf t = Format.fprintf ppf "0x%02X" (to_code t)
