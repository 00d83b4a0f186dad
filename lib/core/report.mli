(** Human-readable analysis reports in the style of the paper's figures.

    {!pp_cases} renders the per-combination analytics table of Fig. 2(b)
    and Fig. 4 (Case_I, High_O, Var_O, FOV, filters); {!pp_result} adds
    the extracted Boolean expression and percentage fitness;
    {!pp_verification} appends the expected-vs-extracted comparison. *)

val pp_cases : output_name:string -> Format.formatter -> Analyzer.result -> unit

val pp_result :
  output_name:string -> Format.formatter -> Analyzer.result -> unit

val pp_verification : Format.formatter -> Verify.report -> unit

val result_to_string : output_name:string -> Analyzer.result -> string

(** Deterministic JSON fragments, used by machine-readable reports (the
    ensemble engine's [--json] output), plus a minimal dependency-free
    reader for the stores that persist them (the campaign subsystem's
    result store and manifest). *)
module Json : sig
  val string : string -> string
  (** Quoted, escaped string literal ({!Glc_obs.Metrics.json_string}). *)

  val float : float -> string
  (** Shortest decimal that round-trips — equal floats always render to
      identical bytes. Non-finite values render as [null]. *)

  val bool : bool -> string

  (** {2 Reader}

      A complete little JSON parser — objects, arrays, strings (with
      escapes, including [\uXXXX] and surrogate pairs), numbers, the
      three literals. Numbers are [float]s, which round-trips every
      value {!float} prints. Because {!float} prints the shortest
      round-tripping decimal, [parse] of a printed report re-renders to
      the identical bytes — the campaign store's resume-determinism
      contract rests on this. *)

  type value =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | Array of value list
    | Object of (string * value) list

  val parse : string -> (value, string) result
  (** Whole-input parse: trailing non-whitespace is an error, so a
      truncated (crash-interrupted) document never parses. *)

  val member : value -> string -> value option
  (** Field of an [Object]; [None] on missing field or non-object. *)

  val to_bool : value -> bool option
  val to_number : value -> float option

  val to_int : value -> int option
  (** [Some] only for integral numbers within the exact float range. *)

  val to_str : value -> string option
  val to_list : value -> value list option
end
