(** One input transition, timed: the experiment behind every
    propagation delay. The inputs are held on a from-row, switched to a
    to-row, and the output is followed to its first threshold crossing
    in the expected direction: at or above the threshold when rising,
    below it when falling. The atlas runs it on the ODE limit and
    {!Prop_delay} on the SSA. *)

type t = {
  from_row : int;
  to_row : int;
  rising : bool;  (** the to-row's expected output *)
}

val make : Glc_logic.Truth_table.t -> from_row:int -> to_row:int -> t option
(** [None] when the expected output is the same on both rows. *)

val adjacent : Glc_logic.Truth_table.t -> t list
(** The transitions [r -> r+1 mod 2^n] whose expected output changes,
    in [r] order. *)

type simulator =
  | Ode of Glc_ssa.Compiled.t * float array option
      (** RK4 at a unit step. With a start state (indexed like
          [c_names]) integration begins at the switch from it, with
          only the to-row clamped; without one it begins at time 0
          with the from-row clamped. *)
  | Ssa of Glc_model.Model.t * int
      (** the direct method with this seed, from time 0 with the
          from-row clamped, sampled every protocol [dt] *)

val first_crossing :
  protocol:Protocol.t -> settle:float -> timeout:float ->
  Glc_gates.Circuit.t -> simulator -> t -> float option * int
(** [first_crossing ~protocol ~settle ~timeout c sim tr] switches the
    inputs to [tr.to_row] at time [settle] ({!Experiment.clamp}) and
    returns the time from the switch to the first trace sample at or
    after it whose output has crossed ([None] if none has by
    [settle + timeout]), and the RK4 steps taken (0 on the SSA). *)

val worst : ('a -> float) -> 'a list -> 'a option
(** The first element with the largest key. *)
