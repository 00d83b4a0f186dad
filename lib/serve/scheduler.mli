(** Bounded priority queue of admitted jobs.

    Pure data structure — no threads, no clock, no counter — so its
    ordering and backpressure behaviour are deterministic and
    unit-testable; the {!Server} wraps it in the daemon's
    mutex/condition pair. Jobs pop in priority order (higher first),
    first-in-first-out within a priority level: ties are broken by the
    sequence number each {!push} is handed, which is the admission
    order {!Admission} assigns — the scheduler never numbers jobs
    itself.

    The queue is {e bounded}: {!push} on a full queue returns [`Full]
    instead of growing, which the {!Admission} layer turns into an
    HTTP 429 with a retry-after hint. An unbounded queue under a bursty
    campaign workload is an unbounded memory commitment — rejecting at
    the door with a hint is the production behaviour. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val is_full : 'a t -> bool

val push : 'a t -> priority:int -> seq:int -> 'a -> [ `Queued | `Full ]
(** Enqueues at [priority] (higher pops earlier), after every queued
    item of the same priority with a smaller [seq]. [`Full] when at
    capacity — nothing is evicted; admission backpressure is the
    caller's job. *)

val pop : 'a t -> 'a option
(** Highest-priority, lowest-[seq] item, or [None] when empty. *)

val remove : 'a t -> ('a -> bool) -> 'a option
(** Removes and returns the first queued item (in pop order) matching
    the predicate — the cancel path. [None] when nothing matches. *)
