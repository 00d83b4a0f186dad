(** Lint diagnostics: stable check codes, severities and source
    locations.

    Every problem the static analyses of {!Lint} find is reported as one
    diagnostic: a stable code such as [GLC005] (scripts and CI key on
    it), a severity, a subject naming the offending entity (a species, a
    reaction, a gate net, a protocol field, …) and a human-readable
    message that repeats the subject's id, so the text stands alone.

    Diagnostics are plain data — rendering (text via {!pp}, JSON via
    {!to_json}) is separate from detection, and the aggregate
    {!exit_code} implements the CLI contract: 0 clean (infos allowed),
    1 warnings, 2 errors. *)

type severity =
  | Error  (** the model/circuit/protocol cannot verify as given *)
  | Warning  (** suspicious; verification may still succeed *)
  | Info  (** cosmetic or informational *)

type subject =
  | Model of string  (** a kinetic model, by id *)
  | Species of string
  | Reaction of string
  | Parameter of string
  | Protein of string  (** an SBOL protein, by id *)
  | Promoter of string  (** an SBOL promoter part, by id *)
  | Net of string  (** a gate-netlist net *)
  | Circuit of string  (** a whole circuit, by name *)
  | Protocol of string  (** a protocol field, by name *)
  | Document of string  (** an SBOL document, by id *)
  | File of string  (** an input file, by path *)

type t = {
  code : string;  (** stable check code, e.g. ["GLC002"] *)
  severity : severity;
  subject : subject;
  message : string;
}

val make : code:string -> severity:severity -> subject:subject -> string -> t

val severity_label : severity -> string
(** ["error"], ["warning"] or ["info"]. *)

val subject_kind : subject -> string
(** The subject constructor in lowercase, e.g. ["species"]. *)

val subject_id : subject -> string

val compare : t -> t -> int
(** Orders by severity (errors first), then code, then subject, then
    message — the deterministic presentation order. *)

val errors : t list -> int
val warnings : t list -> int

val exit_code : t list -> int
(** [2] if any error, [1] if any warning (and no error), [0]
    otherwise — the documented [glcv lint] exit contract. *)

val pp : Format.formatter -> t -> unit
(** One line: [error GLC002 \[species GFP\]: message]. *)

val to_json : t -> string
(** One diagnostic as a JSON object with fields [code], [severity],
    [subject] ([{"kind": ..., "id": ...}]) and [message]. Deterministic:
    fields in that order, strings escaped. *)

