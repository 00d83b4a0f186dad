(** Deterministic pseudo-random numbers for reproducible simulations.

    xoshiro256++ seeded through splitmix64, implemented here so every
    platform and OCaml version produces bit-identical stochastic traces —
    a requirement for the regression tests that pin analysis results. *)

type t

val create : int -> t
(** [create seed] builds a generator; equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy continuing from the same state. *)

val split : t -> t
(** A new generator derived from (and advancing) [t]; streams are
    decorrelated, used to give each experiment repetition its own RNG.

    {b Stream-independence contract} (relied on by the ensemble engine's
    counter-based seed derivation, and pinned by QCheck tests):
    {ul
    {- {e Deterministic}: [split] is a pure function of the parent's
       current state — two parents in equal states yield byte-identical
       child streams (and leave the parents in equal states).}
    {- {e Counter-based}: the [i]-th successive [split] of a parent
       depends only on the parent's initial state and [i], never on how
       many children are eventually derived or which child is consumed
       first — so replicate [i] of an ensemble sees the same stream
       whatever the worker count.}
    {- {e Decorrelated}: the child seeds a fresh splitmix64 expansion
       from one 64-bit parent draw, so parent and children (and siblings)
       do not collide on any practical draw horizon.}} *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The top 53 bits of the next output, in [\[0, 2^53)]. Returns an
    unboxed [int], so a simulator's hot loop can draw a uniform as
    [float_of_int (bits53 t) *. 0x1.0p-53] — bit for bit the value
    {!float} returns — without a float crossing the module boundary
    (a boxed float per draw under [-opaque], which disables
    cross-module inlining). *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53-bit resolution:
    [float_of_int (bits53 t) *. 0x1.0p-53]. *)

val float_pos : t -> float
(** Uniform in [(0, 1]] — safe as an argument to [log]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] — exactly uniform, via
    rejection sampling, for every bound up to [max_int].
    @raise Invalid_argument if [bound <= 0]. *)

val exponential : t -> rate:float -> float
(** Exponentially distributed waiting time with the given rate.
    @raise Invalid_argument if [rate <= 0]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)
