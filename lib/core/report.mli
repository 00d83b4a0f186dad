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

module Json = Glc_obs.Json
(** {!Glc_obs.Json}, also reachable here because the end-to-end
    benchmark (bench_e2e) reads its documents under this name. *)
