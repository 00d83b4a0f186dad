module Expr = Glc_logic.Expr
module Truth_table = Glc_logic.Truth_table

let pp_cases ~output_name ppf (r : Analyzer.result) =
  let arity = r.Analyzer.arity in
  Format.fprintf ppf "@[<v>%-*s %8s %8s %8s %9s %6s %6s %4s@," (max arity 5)
    "case" "Case_I" "High_O" "Var_O" "FOV_EST" "eq(1)" "eq(2)" "min";
  Array.iter
    (fun (c : Analyzer.case_stats) ->
      Format.fprintf ppf "%-*s %8d %8d %8d %9.4f %6s %6s %4s@," (max arity 5)
        (Truth_table.combination ~arity c.Analyzer.row)
        c.case_count c.high_count c.variations c.fov_est
        (if c.passes_fov then "pass" else "fail")
        (if c.passes_majority then "pass" else "fail")
        (if c.included then "*" else ""))
    r.Analyzer.cases;
  Format.fprintf ppf "(* = minterm of %s)@]" output_name

let pp_result ~output_name ppf (r : Analyzer.result) =
  Format.fprintf ppf "@[<v>%a@,@,%s = %a@,minimised: %s = %a@,PFoBE = %.2f%%@]"
    (pp_cases ~output_name) r output_name Expr.pp r.Analyzer.expr
    output_name Expr.pp
    (Analyzer.minimised_expr r)
    r.Analyzer.fitness

let pp_verification ppf (v : Verify.report) =
  let arity = Truth_table.arity v.Verify.expected in
  if v.Verify.verified then
    Format.fprintf ppf
      "@[<v>verified: extracted logic matches the expected truth table \
       (PFoBE %.2f%%)@]"
      v.Verify.fitness
  else
    Format.fprintf ppf
      "@[<v>NOT verified: %d wrong state(s): %s (PFoBE %.2f%%)@]"
      (List.length v.Verify.wrong_states)
      (String.concat ", "
         (List.map (Truth_table.combination ~arity) v.Verify.wrong_states))
      v.Verify.fitness

let result_to_string ~output_name r =
  Format.asprintf "%a" (pp_result ~output_name) r

module Json = Glc_obs.Json
