module Metrics = Glc_obs.Metrics
module Clock = Glc_obs.Clock

type error = { task : int; message : string; backtrace : string }

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;  (** signalled when work arrives or on stop *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  (* Instrumentation, resolved once at create so workers never touch the
     registry. obs_live mirrors [Metrics.enabled]; when false no clock
     is ever read. *)
  obs_live : bool;
  obs_tasks : Metrics.Counter.t;
  obs_busy : Metrics.Histogram.t;
  obs_idle : Metrics.Histogram.t;
  obs_wait : Metrics.Histogram.t;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.n_jobs

(* Worker loop: block on the queue, run jobs until stopped. Jobs never
   raise — map wraps every task in a capturing closure. When metrics are
   live, each dequeue records how long the worker sat idle and each job
   how long it ran. *)
let worker t () =
  let rec loop () =
    let t_idle = if t.obs_live then Clock.now () else 0. in
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.queue then (* stop, and nothing left to run *)
      Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      if t.obs_live then begin
        let now = Clock.now () in
        Metrics.Histogram.observe t.obs_idle (now -. t_idle);
        job ();
        Metrics.Histogram.observe t.obs_busy (Clock.now () -. now)
      end
      else job ();
      loop ()
    end
  in
  loop ()

let create ?jobs ?(metrics = Metrics.noop) () =
  let n_jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Pool.create: jobs < 1"
  in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [||];
      obs_live = Metrics.enabled metrics;
      obs_tasks = Metrics.counter metrics "pool.tasks";
      obs_busy = Metrics.histogram metrics "pool.worker_busy_seconds";
      obs_idle = Metrics.histogram metrics "pool.worker_idle_seconds";
      obs_wait = Metrics.histogram metrics "pool.queue_wait_seconds";
    }
  in
  t.workers <- Array.init n_jobs (fun _ -> Domain.spawn (worker t));
  t

let map t f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  if n > 0 then begin
    let remaining = ref n in
    let all_done = Condition.create () in
    let job i () =
      let r =
        try Ok (f i arr.(i))
        with e ->
          let backtrace = Printexc.get_backtrace () in
          Error { task = i; message = Printexc.to_string e; backtrace }
      in
      Mutex.lock t.mutex;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.signal all_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map: pool is shut down"
    end;
    Metrics.Counter.add t.obs_tasks n;
    if t.obs_live then begin
      (* Stamp each task at enqueue so the dequeueing worker can record
         how long it waited in the queue. *)
      let enqueued = Clock.now () in
      for i = 0 to n - 1 do
        let task = job i in
        Queue.add
          (fun () ->
            Metrics.Histogram.observe t.obs_wait (Clock.now () -. enqueued);
            task ())
          t.queue
      done
    end
    else
      for i = 0 to n - 1 do
        Queue.add (job i) t.queue
      done;
    Condition.broadcast t.nonempty;
    while !remaining > 0 do
      Condition.wait all_done t.mutex
    done;
    Mutex.unlock t.mutex
  end;
  Array.map (function Some r -> r | None -> assert false) results

let shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers
  end

let with_pool ?jobs ?metrics f =
  let t = create ?jobs ?metrics () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
