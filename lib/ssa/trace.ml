type t = {
  names : string array;
  t0 : float;
  dt : float;
  data : float array array; (* species-major: data.(s).(k) *)
  mutable memo : (string, int) Hashtbl.t option;
      (* lazy name->index table; [names] is immutable so the table is
         built at most once (an idempotent race under domains) *)
}

let names tr = tr.names
let length tr = if Array.length tr.data = 0 then 0 else Array.length tr.data.(0)
let t0 tr = tr.t0
let dt tr = tr.dt
let time tr k = tr.t0 +. (float_of_int k *. tr.dt)

let index_table tr =
  match tr.memo with
  | Some h -> h
  | None ->
      let h = Hashtbl.create (2 * Array.length tr.names) in
      (* keep the first occurrence, as the linear scan did *)
      Array.iteri
        (fun i id -> if not (Hashtbl.mem h id) then Hashtbl.add h id i)
        tr.names;
      tr.memo <- Some h;
      h

let index tr id = Hashtbl.find_opt (index_table tr) id

let index_exn tr id =
  match index tr id with Some i -> i | None -> raise Not_found

let value tr id k = tr.data.(index_exn tr id).(k)
let column tr id = Array.copy tr.data.(index_exn tr id)
let map_column tr id f = Array.map f tr.data.(index_exn tr id)

let sub tr ~from ~until =
  let n = length tr in
  if from < 0 || until > n || from > until then
    invalid_arg "Trace.sub: bounds out of range";
  {
    tr with
    t0 = time tr from;
    data = Array.map (fun col -> Array.sub col from (until - from)) tr.data;
  }

let concat a b =
  if a.names <> b.names then
    invalid_arg "Trace.concat: different species";
  if Float.abs (a.dt -. b.dt) > 1e-9 *. a.dt then
    invalid_arg "Trace.concat: different sampling steps";
  (* An empty operand is the identity: it has no last sample, so the
     contiguity test below would otherwise compare against the
     meaningless time [t0 - dt] and spuriously reject (or, worse,
     accept only when b.t0 happens to equal a.t0). *)
  if length a = 0 then b
  else if length b = 0 then a
  else begin
    let expected_start = time a (length a - 1) +. a.dt in
    if Float.abs (b.t0 -. expected_start) > 1e-6 *. a.dt then
      invalid_arg "Trace.concat: traces are not contiguous";
    {
      a with
      data = Array.map2 (fun ca cb -> Array.append ca cb) a.data b.data;
    }
  end

(* The option-returning statistics are the primitives: an empty trace
   has no mean, and a zero-mean series has no Fano factor — [None]
   makes the caller decide, instead of a [0.]/[nan] sentinel silently
   flowing into downstream arithmetic. The float versions below keep
   the old convenient signatures with documented sentinels. *)

let mean_opt tr id =
  let col = tr.data.(index_exn tr id) in
  let n = Array.length col in
  if n = 0 then None
  else Some (Array.fold_left ( +. ) 0. col /. float_of_int n)

let variance_opt tr id =
  let col = tr.data.(index_exn tr id) in
  let n = Array.length col in
  if n = 0 then None
  else begin
    let mean = Array.fold_left ( +. ) 0. col /. float_of_int n in
    let sq = Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. col in
    Some (sq /. float_of_int n)
  end

let fano_factor_opt tr id =
  match (mean_opt tr id, variance_opt tr id) with
  | Some m, Some v when m <> 0. -> Some (v /. m)
  | _ -> None

let mean tr id = Option.value ~default:0. (mean_opt tr id)
let variance tr id = Option.value ~default:0. (variance_opt tr id)

let fano_factor tr id =
  Option.value ~default:nan (fano_factor_opt tr id)

let crossings tr id level =
  let col = tr.data.(index_exn tr id) in
  let n = Array.length col in
  let count = ref 0 in
  for k = 1 to n - 1 do
    if col.(k) >= level <> (col.(k - 1) >= level) then incr count
  done;
  !count

let max_value tr id =
  Array.fold_left Float.max neg_infinity tr.data.(index_exn tr id)

let to_csv tr =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time";
  Array.iter
    (fun n ->
      Buffer.add_char buf ',';
      Buffer.add_string buf n)
    tr.names;
  Buffer.add_char buf '\n';
  for k = 0 to length tr - 1 do
    Buffer.add_string buf (Printf.sprintf "%.17g" (time tr k));
    Array.iter
      (fun col ->
        Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "%.17g" col.(k)))
      tr.data;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let of_csv s =
  let lines =
    String.split_on_char '\n' s
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty CSV"
  | header :: rows -> (
      match String.split_on_char ',' header with
      | "time" :: names when names <> [] -> (
          let names = Array.of_list names in
          let nspecies = Array.length names in
          let parse_row row =
            let cells = String.split_on_char ',' row in
            match List.map float_of_string_opt cells with
            | cells when List.exists Option.is_none cells ->
                Error (Printf.sprintf "non-numeric cell in row %S" row)
            | cells -> (
                match List.map Option.get cells with
                | t :: vs when List.length vs = nspecies -> Ok (t, vs)
                | _ -> Error (Printf.sprintf "wrong arity in row %S" row))
          in
          let rec parse acc = function
            | [] -> Ok (List.rev acc)
            | r :: rest -> (
                match parse_row r with
                | Ok x -> parse (x :: acc) rest
                | Error e -> Error e)
          in
          match parse [] rows with
          | Error e -> Error e
          | Ok [] -> Error "CSV has no data rows"
          | Ok ((t_first, _) :: _ as parsed) ->
              let n = List.length parsed in
              let dt =
                match parsed with
                | (ta, _) :: (tb, _) :: _ -> tb -. ta
                | _ -> 1.
              in
              if dt <= 0. then Error "CSV time column is not increasing"
              else begin
                let data =
                  Array.init nspecies (fun _ -> Array.make n 0.)
                in
                List.iteri
                  (fun k (_, vs) ->
                    List.iteri (fun s v -> data.(s).(k) <- v) vs)
                  parsed;
                (* Verify the grid is uniform. *)
                let uniform =
                  List.for_all
                    (fun (k, (tk, _)) ->
                      Float.abs (tk -. (t_first +. (float_of_int k *. dt)))
                      <= 1e-9 *. Float.max 1. (Float.abs tk))
                    (List.mapi (fun k x -> (k, x)) parsed)
                in
                if not uniform then Error "CSV time grid is not uniform"
                else Ok { names; t0 = t_first; dt; data; memo = None }
              end)
      | _ -> Error "CSV header must start with 'time' and list species")

let write_csv path tr =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv tr))

let read_csv path = of_csv (In_channel.with_open_bin path In_channel.input_all)

module Recorder = struct
  type t = {
    r_names : string array; (* recorded species, column order *)
    r_columns : int array; (* column -> position in the state vector *)
    r_t0 : float;
    r_dt : float;
    r_data : float array array;
    r_samples : int;
    mutable r_next : int; (* next grid index to fill *)
    r_held : float array; (* [observe]'s copy of the state from [r_last_time] on *)
    mutable r_last_time : float;
  }

  let create ?columns ~names ~initial ~t0 ~t_end ~dt () =
    if dt <= 0. then invalid_arg "Trace.Recorder.create: dt <= 0";
    if t_end < t0 then invalid_arg "Trace.Recorder.create: t_end < t0";
    if Array.length names <> Array.length initial then
      invalid_arg "Trace.Recorder.create: names/initial length mismatch";
    let columns =
      match columns with
      | None -> Array.init (Array.length names) Fun.id
      | Some cols ->
          Array.iter
            (fun i ->
              if i < 0 || i >= Array.length names then
                invalid_arg "Trace.Recorder.create: column out of range")
            cols;
          Array.copy cols
    in
    let samples = int_of_float (Float.floor ((t_end -. t0) /. dt)) + 1 in
    {
      r_names = Array.map (fun i -> names.(i)) columns;
      r_columns = columns;
      r_t0 = t0;
      r_dt = dt;
      r_data =
        Array.init (Array.length columns) (fun _ -> Array.make samples 0.);
      r_samples = samples;
      r_next = 0;
      r_held = Array.copy initial;
      r_last_time = t0;
    }

  let grid r k = r.r_t0 +. (float_of_int k *. r.r_dt)

  (* The one fill rule: grid points strictly before [t] take [live], the
     state that held up to [t]. *)
  let advance r t live =
    if t < r.r_last_time then
      invalid_arg "Trace.Recorder.observe: time went backwards";
    r.r_last_time <- t;
    while r.r_next < r.r_samples && grid r r.r_next < t do
      let k = r.r_next in
      for c = 0 to Array.length r.r_columns - 1 do
        r.r_data.(c).(k) <- live.(r.r_columns.(c))
      done;
      r.r_next <- k + 1
    done;
    if r.r_next < r.r_samples then grid r r.r_next else infinity

  let observe r t state =
    ignore (advance r t r.r_held);
    Array.blit state 0 r.r_held 0 (Array.length state)

  let finish r =
    ignore (advance r infinity r.r_held);
    { names = r.r_names; t0 = r.r_t0; dt = r.r_dt; data = r.r_data;
      memo = None }
end
