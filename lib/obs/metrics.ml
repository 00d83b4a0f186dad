(* Metrics registry with a no-op default sink and deterministic JSON
   export through the one JSON writer, Json. *)

let span_capacity = 4096

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; 100. |]

module Counter = struct
  (* The liveness flag lets the no-op registry hand out one shared
     dummy instrument whose writes cost a single predictable branch. *)
  type t = { c_live : bool; c_value : int Atomic.t }

  let make live = { c_live = live; c_value = Atomic.make 0 }
  let dummy = make false
  let incr t = if t.c_live then ignore (Atomic.fetch_and_add t.c_value 1)
  let add t n = if t.c_live then ignore (Atomic.fetch_and_add t.c_value n)
  let value t = Atomic.get t.c_value
end

module Gauge = struct
  type t = { g_live : bool; mutable g_value : float; g_mutex : Mutex.t }

  let make live = { g_live = live; g_value = 0.; g_mutex = Mutex.create () }
  let dummy = make false

  let set t x =
    if t.g_live then begin
      Mutex.lock t.g_mutex;
      t.g_value <- x;
      Mutex.unlock t.g_mutex
    end

  let add t x =
    if t.g_live then begin
      Mutex.lock t.g_mutex;
      t.g_value <- t.g_value +. x;
      Mutex.unlock t.g_mutex
    end

  let value t = t.g_value
end

module Histogram = struct
  type t = {
    h_live : bool;
    h_bounds : float array; (* strictly increasing upper bounds *)
    h_counts : int array; (* length h_bounds + 1; last is overflow *)
    mutable h_count : int;
    mutable h_sum : float;
    mutable h_min : float;
    mutable h_max : float;
    h_mutex : Mutex.t;
  }

  let make live bounds =
    {
      h_live = live;
      h_bounds = bounds;
      h_counts = Array.make (Array.length bounds + 1) 0;
      h_count = 0;
      h_sum = 0.;
      h_min = Float.infinity;
      h_max = Float.neg_infinity;
      h_mutex = Mutex.create ();
    }

  let dummy = make false [| 0. |]

  let bucket_of t x =
    let n = Array.length t.h_bounds in
    let rec go i = if i >= n || x <= t.h_bounds.(i) then i else go (i + 1) in
    go 0

  let observe t x =
    if t.h_live then begin
      Mutex.lock t.h_mutex;
      let b = bucket_of t x in
      t.h_counts.(b) <- t.h_counts.(b) + 1;
      t.h_count <- t.h_count + 1;
      t.h_sum <- t.h_sum +. x;
      if x < t.h_min then t.h_min <- x;
      if x > t.h_max then t.h_max <- x;
      Mutex.unlock t.h_mutex
    end

  let count t = t.h_count
  let sum t = t.h_sum
end

type span = { sp_name : string; sp_start : float; sp_dur : float }

type instrument =
  | I_counter of Counter.t
  | I_gauge of Gauge.t
  | I_histogram of Histogram.t

type t = {
  live : bool;
  mutex : Mutex.t; (* guards registration, spans *)
  instruments : (string, instrument) Hashtbl.t;
  spans : span Queue.t;
  mutable span_drops : int;
  epoch : float;
}

let create () =
  {
    live = true;
    mutex = Mutex.create ();
    instruments = Hashtbl.create 64;
    spans = Queue.create ();
    span_drops = 0;
    epoch = Clock.now ();
  }

let noop =
  {
    live = false;
    mutex = Mutex.create ();
    instruments = Hashtbl.create 1;
    spans = Queue.create ();
    span_drops = 0;
    epoch = 0.;
  }

let enabled t = t.live

let kind = function
  | I_counter _ -> "counter"
  | I_gauge _ -> "gauge"
  | I_histogram _ -> "histogram"

(* Register-or-retrieve under the registry mutex. [make] must be pure
   allocation; it runs inside the critical section. *)
let intern t name make project =
  if not t.live then None
  else begin
    Mutex.lock t.mutex;
    let r =
      match Hashtbl.find_opt t.instruments name with
      | Some i -> (
          match project i with
          | Some x -> Ok x
          | None ->
              Error
                (Printf.sprintf "Metrics: %S is already registered as a %s"
                   name (kind i)))
      | None ->
          let i = make () in
          Hashtbl.add t.instruments name i;
          Ok (Option.get (project i))
    in
    Mutex.unlock t.mutex;
    match r with Ok x -> Some x | Error msg -> invalid_arg msg
  end

let counter t name =
  match
    intern t name
      (fun () -> I_counter (Counter.make true))
      (function I_counter c -> Some c | _ -> None)
  with
  | Some c -> c
  | None -> Counter.dummy

let gauge t name =
  match
    intern t name
      (fun () -> I_gauge (Gauge.make true))
      (function I_gauge g -> Some g | _ -> None)
  with
  | Some g -> g
  | None -> Gauge.dummy

let check_buckets bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics.histogram: empty buckets";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bucket bounds must strictly increase"
  done

let histogram ?(buckets = default_buckets) t name =
  check_buckets buckets;
  match
    intern t name
      (fun () -> I_histogram (Histogram.make true (Array.copy buckets)))
      (function I_histogram h -> Some h | _ -> None)
  with
  | Some h -> h
  | None -> Histogram.dummy

let observe_since t name t0 =
  if t.live then Histogram.observe (histogram t name) (Clock.now () -. t0)

let time t name f =
  if not t.live then f ()
  else begin
    let h = histogram t name in
    let t0 = Clock.now () in
    Fun.protect ~finally:(fun () -> Histogram.observe h (Clock.now () -. t0)) f
  end

let record_span t name t0 =
  let dur = Clock.now () -. t0 in
  Mutex.lock t.mutex;
  if Queue.length t.spans >= span_capacity then
    t.span_drops <- t.span_drops + 1
  else
    Queue.add { sp_name = name; sp_start = t0 -. t.epoch; sp_dur = dur } t.spans;
  Mutex.unlock t.mutex

let span t name f =
  if not t.live then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect ~finally:(fun () -> record_span t name t0) f
  end

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)

(* Sorted snapshot of instruments of one kind, taken under the mutex so
   export is consistent even with concurrent writers. *)
let sorted_fields t project render =
  Hashtbl.fold
    (fun name i acc ->
      match project i with Some x -> (name, x) :: acc | None -> acc)
    t.instruments []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (name, x) -> (name, render x))

let deterministic_fields t =
  Mutex.lock t.mutex;
  let counters =
    sorted_fields t
      (function I_counter c -> Some c | _ -> None)
      (fun c -> string_of_int (Counter.value c))
  in
  let gauges =
    sorted_fields t
      (function I_gauge g -> Some g | _ -> None)
      (fun g -> Json.float (Gauge.value g))
  in
  Mutex.unlock t.mutex;
  [ ("counters", Json.obj counters); ("gauges", Json.obj gauges) ]

let deterministic_json t = Json.obj (deterministic_fields t)

let histogram_json (h : Histogram.t) =
  Mutex.lock h.Histogram.h_mutex;
  let fields =
    [
      ( "buckets",
        Json.arr (Array.to_list (Array.map Json.float h.Histogram.h_bounds)) );
      ( "counts",
        Json.arr (Array.to_list (Array.map string_of_int h.Histogram.h_counts))
      );
      ("count", string_of_int h.Histogram.h_count);
      ("max", Json.float h.Histogram.h_max);
      ("min", Json.float h.Histogram.h_min);
      ("sum", Json.float h.Histogram.h_sum);
    ]
  in
  Mutex.unlock h.Histogram.h_mutex;
  Json.obj fields

let span_json sp =
  Json.obj
    [
      ("dur_s", Json.float sp.sp_dur);
      ("name", Json.string sp.sp_name);
      ("start_s", Json.float sp.sp_start);
    ]

(* ------------------------------------------------------------------ *)
(* Text exposition (Prometheus/OpenMetrics style), for live scraping   *)

let mangle name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* Exposition floats: plain decimal (shortest round trip), with the
   conventional +Inf/-Inf/NaN spellings instead of JSON's null. *)
let text_float x =
  if Float.is_nan x then "NaN"
  else if x = Float.infinity then "+Inf"
  else if x = Float.neg_infinity then "-Inf"
  else Json.float x

let to_text t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sorted project =
    Mutex.lock t.mutex;
    let xs =
      Hashtbl.fold
        (fun name i acc ->
          match project i with
          | Some x -> (mangle name, x) :: acc
          | None -> acc)
        t.instruments []
    in
    Mutex.unlock t.mutex;
    List.sort (fun (a, _) (b, _) -> compare a b) xs
  in
  List.iter
    (fun (name, c) ->
      add "# TYPE %s counter\n%s %d\n" name name (Counter.value c))
    (sorted (function I_counter c -> Some c | _ -> None));
  List.iter
    (fun (name, g) ->
      add "# TYPE %s gauge\n%s %s\n" name name (text_float (Gauge.value g)))
    (sorted (function I_gauge g -> Some g | _ -> None));
  List.iter
    (fun (name, h) ->
      add "# TYPE %s histogram\n" name;
      Mutex.lock h.Histogram.h_mutex;
      let cumulative = ref 0 in
      Array.iteri
        (fun i bound ->
          cumulative := !cumulative + h.Histogram.h_counts.(i);
          add "%s_bucket{le=\"%s\"} %d\n" name (text_float bound) !cumulative)
        h.Histogram.h_bounds;
      add "%s_bucket{le=\"+Inf\"} %d\n" name h.Histogram.h_count;
      add "%s_sum %s\n" name (text_float h.Histogram.h_sum);
      add "%s_count %d\n" name h.Histogram.h_count;
      Mutex.unlock h.Histogram.h_mutex)
    (sorted (function I_histogram h -> Some h | _ -> None));
  Buffer.contents buf

let to_json t =
  let det = deterministic_fields t in
  Mutex.lock t.mutex;
  let histograms =
    sorted_fields t
      (function I_histogram h -> Some h | _ -> None)
      histogram_json
  in
  let spans = Queue.fold (fun acc sp -> span_json sp :: acc) [] t.spans in
  let drops = t.span_drops in
  Mutex.unlock t.mutex;
  Json.obj
    [
      ("deterministic", Json.obj det);
      ( "timings",
        Json.obj
          [
            ("histograms", Json.obj histograms);
            ( "spans",
              Json.obj
                [
                  ("dropped", string_of_int drops);
                  ("events", Json.arr (List.rev spans));
                ] );
          ] );
    ]
