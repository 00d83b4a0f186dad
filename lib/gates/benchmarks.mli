(** The 15-circuit evaluation set of the paper: five book circuits
    (Myers 2009) and ten Cello circuits (Nielsen et al. 2016), spanning
    1–3 inputs, 1–7 gates and 3–26 genetic components. *)

val all : unit -> Circuit.t list
(** Book circuits first, then the Cello set. *)

val find : string -> Circuit.t option
(** Lookup by circuit name (e.g. ["genetic_AND"], ["0x0B"]). Builds
    only the named circuit; [None] builds nothing. *)

val names : unit -> string list
(** The names of {!all}, in order, without building any circuit. *)

val summary :
  unit -> (string * int * int * int) list
(** [(name, inputs, gates, components)] per circuit — the population
    statistics quoted in the paper's §III. *)
