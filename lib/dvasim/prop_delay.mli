(** Propagation-delay analysis (Baig & Madsen, IWBDA 2016).

    Measures how long the output takes to reflect an input change, as
    the {!Transition} experiment on the SSA: the circuit is settled on
    one input combination, switched to a combination with the opposite
    expected output, and the time until the output first crosses the
    threshold in the right direction is recorded. The paper derives its
    1,000 t.u. hold time from this analysis. *)

module Circuit := Glc_gates.Circuit

type measurement = {
  transition : Transition.t;
  delays : float list;  (** one measured delay per repetition *)
  mean_delay : float;
  max_delay : float;
}

val measure :
  ?protocol:Protocol.t -> ?repeats:int -> from_row:int -> to_row:int ->
  Circuit.t -> measurement option
(** [measure ~from_row ~to_row c] times the {!Transition} on the SSA,
    [repeats] times (default 5), each with its own seed derived from
    the protocol seed, after a settle phase of [2 * hold_time]; [None]
    when the expected output does not change between the rows, or the
    output crosses the threshold within [5 * hold_time] of the switch
    in no repetition. *)

val worst_case :
  ?protocol:Protocol.t -> ?repeats:int -> Circuit.t -> measurement option
(** The slowest of the {!Transition.adjacent} transitions by mean delay
    (the first on a tie) — an estimate of the hold time the protocol
    needs. *)

val matrix :
  ?protocol:Protocol.t -> ?repeats:int -> Circuit.t -> measurement list
(** Every ordered pair of combinations with differing expected outputs,
    measured; the full timing characterisation of the circuit. *)

val recommended_hold :
  ?protocol:Protocol.t -> ?repeats:int -> ?safety:float -> Circuit.t ->
  float option
(** [safety] (default 5) times the largest delay in {!matrix}, rounded
    up to the next 50 time units — a hold time with margin, in the
    spirit of the paper's 1,000 t.u. choice. [None] when the circuit has
    no output transition at all. *)

val pp : Format.formatter -> measurement -> unit
