(** Hand-built genetic circuits from Myers, "Engineering Genetic
    Circuits" (2009) — the five book models of the paper's evaluation.

    {!genetic_and} is the circuit of the paper's Fig. 1: promoters P1 and
    P2 constitutively produce the repressor CI and are repressed by LacI
    and TetR respectively; promoter P3, repressed by CI, produces GFP.
    GFP therefore appears only when both LacI and TetR are present —
    a 2-input AND. *)

val genetic_not : unit -> Circuit.t
(** 1 input. GFP = I1'. *)

val genetic_and : unit -> Circuit.t
(** 2 inputs, the Fig. 1 circuit. GFP = I1.I2. *)

val genetic_or : unit -> Circuit.t
(** 2 inputs, activator-based. GFP = I1 + I2. *)

val genetic_nand : unit -> Circuit.t
(** 2 inputs. GFP = I1' + I2'. *)

val genetic_nor : unit -> Circuit.t
(** 2 inputs, tandem repression. GFP = I1'.I2'. *)
