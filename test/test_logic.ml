(* Tests for glc_logic: truth tables, Boolean expressions,
   Quine-McCluskey minimisation and NOR netlist synthesis. *)

module Truth_table = Glc_logic.Truth_table
module Expr = Glc_logic.Expr
module Qm = Glc_logic.Qm
module Netlist = Glc_logic.Netlist

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---- truth tables ---- *)

let test_create_output () =
  let tt = Truth_table.create ~arity:2 (fun r -> r = 3) in
  checki "arity" 2 (Truth_table.arity tt);
  checki "rows" 4 (Truth_table.rows tt);
  checkb "row 0" false (Truth_table.output tt 0);
  checkb "row 3" true (Truth_table.output tt 3)

let test_of_minterms () =
  let tt = Truth_table.of_minterms ~arity:3 [ 1; 6 ] in
  check (Alcotest.list Alcotest.int) "minterms" [ 1; 6 ]
    (Truth_table.minterms tt);
  check (Alcotest.list Alcotest.int) "maxterms" [ 0; 2; 3; 4; 5; 7 ]
    (Truth_table.maxterms tt)

let test_minterms_maxterms_partition () =
  let tt = Truth_table.of_code ~arity:3 0x5A in
  let all =
    List.sort Int.compare (Truth_table.minterms tt @ Truth_table.maxterms tt)
  in
  check (Alcotest.list Alcotest.int) "partition" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    all

let test_code_roundtrip () =
  for code = 0 to 255 do
    let tt = Truth_table.of_code ~arity:3 code in
    checki "code round trip" code (Truth_table.to_code tt)
  done

let test_of_outputs () =
  let tt = Truth_table.of_outputs [ false; true; true; false ] in
  checki "arity" 2 (Truth_table.arity tt);
  check (Alcotest.list Alcotest.int) "xor minterms" [ 1; 2 ]
    (Truth_table.minterms tt)

let test_of_outputs_invalid () =
  Alcotest.check_raises "length 3" (Invalid_argument
    "Truth_table.of_outputs: length is not a power of two")
    (fun () -> ignore (Truth_table.of_outputs [ true; false; true ]))

let test_eval () =
  let tt = Truth_table.of_minterms ~arity:2 [ 2 ] in
  (* row 2 = 0b10: input 1 high, input 0 low *)
  checkb "10" true (Truth_table.eval tt [| false; true |]);
  checkb "01" false (Truth_table.eval tt [| true; false |])

let test_complement_involution () =
  let tt = Truth_table.of_code ~arity:3 0xB1 in
  checkb "involution" true
    (Truth_table.equal tt (Truth_table.complement (Truth_table.complement tt)))

let test_is_constant () =
  checkb "false" true
    (Truth_table.is_constant (Truth_table.of_minterms ~arity:2 [])
    = Some false);
  checkb "true" true
    (Truth_table.is_constant (Truth_table.of_minterms ~arity:2 [ 0; 1; 2; 3 ])
    = Some true);
  checkb "mixed" true
    (Truth_table.is_constant (Truth_table.of_minterms ~arity:2 [ 1 ]) = None)

let test_hamming () =
  let a = Truth_table.of_code ~arity:3 0x0F in
  let b = Truth_table.of_code ~arity:3 0xF0 in
  checki "distance" 8 (Truth_table.hamming_distance a b);
  checki "self" 0 (Truth_table.hamming_distance a a)

let test_row_bits_inverse () =
  for row = 0 to 15 do
    checki "inverse" row
      (Truth_table.row_of_bits (Truth_table.bits_of_row ~arity:4 row))
  done

let test_arity_guard () =
  Alcotest.check_raises "arity 17"
    (Invalid_argument "Truth_table: arity 17 not in 0..16") (fun () ->
      ignore (Truth_table.create ~arity:17 (fun _ -> false)))

let test_bad_code () =
  Alcotest.check_raises "code too wide"
    (Invalid_argument "Truth_table.of_code: code 0x10 exceeds 4 rows")
    (fun () -> ignore (Truth_table.of_code ~arity:2 0x10))

let test_pp_code () =
  check Alcotest.string "0x0B" "0x0B"
    (Format.asprintf "%a" Truth_table.pp_code
       (Truth_table.of_code ~arity:3 0x0B))

(* ---- expressions ---- *)

let env_of_list l v = List.assoc v l

let test_expr_eval () =
  let open Expr in
  let e = Or [ And [ Var "a"; Not (Var "b") ]; Var "c" ] in
  checkb "a & !b" true
    (eval (env_of_list [ ("a", true); ("b", false); ("c", false) ]) e);
  checkb "only b" false
    (eval (env_of_list [ ("a", false); ("b", true); ("c", false) ]) e);
  checkb "empty and" true (eval (fun _ -> false) (And []));
  checkb "empty or" false (eval (fun _ -> false) (Or []))

let test_expr_vars () =
  let open Expr in
  let e = Or [ And [ Var "b"; Var "a" ]; Not (Var "b") ] in
  check (Alcotest.list Alcotest.string) "sorted unique" [ "a"; "b" ]
    (vars e)

let test_expr_to_table () =
  let open Expr in
  let tt =
    to_truth_table ~inputs:[| "a"; "b" |] (And [ Var "a"; Var "b" ])
  in
  check (Alcotest.list Alcotest.int) "and" [ 3 ] (Truth_table.minterms tt)

let test_expr_unknown_var () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Expr.to_truth_table: unknown variable \"z\"")
    (fun () ->
      ignore (Expr.to_truth_table ~inputs:[| "a" |] (Expr.Var "z")))

let test_expr_of_minterms_degenerate () =
  checkb "empty" true (Expr.of_minterms ~inputs:[| "a"; "b" |] [] = Expr.False);
  checkb "full" true
    (Expr.of_minterms ~inputs:[| "a"; "b" |] [ 0; 1; 2; 3 ] = Expr.True)

let test_expr_pp () =
  let open Expr in
  check Alcotest.string "sop"
    "a'.b + a.b'"
    (to_string
       (Or [ And [ Not (Var "a"); Var "b" ]; And [ Var "a"; Not (Var "b") ] ]));
  check Alcotest.string "true" "1" (to_string True);
  check Alcotest.string "single product" "a.b"
    (to_string (And [ Var "a"; Var "b" ]));
  check Alcotest.string "infix fallback" "!((a & (b | c)))"
    (to_string (Not (And [ Var "a"; Or [ Var "b"; Var "c" ] ])))

let test_expr_equivalent () =
  let open Expr in
  let demorgan_l = Not (And [ Var "a"; Var "b" ]) in
  let demorgan_r = Or [ Not (Var "a"); Not (Var "b") ] in
  checkb "de morgan" true
    (equivalent ~inputs:[| "a"; "b" |] demorgan_l demorgan_r)

let test_expr_parser () =
  let parse s =
    match Expr.of_string s with
    | Ok e -> e
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
  in
  let open Expr in
  checkb "paper notation" true
    (parse "A'.B + C" = Or [ And [ Not (Var "A"); Var "B" ]; Var "C" ]);
  checkb "infix notation" true
    (parse "(!a & b) | c" = Or [ And [ Not (Var "a"); Var "b" ]; Var "c" ]);
  checkb "doubled operators" true
    (parse "a && b || c" = Or [ And [ Var "a"; Var "b" ]; Var "c" ]);
  checkb "constants" true (parse "0 + 1" = Or [ False; True ]);
  checkb "double prime" true (parse "x''" = Not (Not (Var "x")));
  checkb "precedence" true
    (parse "a + b.c" = Or [ Var "a"; And [ Var "b"; Var "c" ] ]);
  checkb "parens override" true
    (parse "(a + b).c" = And [ Or [ Var "a"; Var "b" ]; Var "c" ]);
  List.iter
    (fun bad ->
      match Expr.of_string bad with
      | Ok _ -> Alcotest.failf "expected failure on %S" bad
      | Error _ -> ())
    [ ""; "a +"; "(a"; "a)"; "a ? b"; "2x"; "a b" ]

let expr_gen =
  let open QCheck.Gen in
  let var = map (fun v -> Expr.Var v) (oneofl [ "a"; "b"; "c" ]) in
  fix
    (fun self depth ->
      if depth = 0 then oneof [ var; return Expr.True; return Expr.False ]
      else begin
        let sub = self (depth - 1) in
        frequency
          [
            (2, var);
            (1, map (fun e -> Expr.Not e) sub);
            (1, map2 (fun a b -> Expr.And [ a; b ]) sub sub);
            (1, map2 (fun a b -> Expr.Or [ a; b ]) sub sub);
          ]
      end)
    4

let prop_expr_parse_roundtrip =
  QCheck.Test.make ~name:"of_string . to_string preserves semantics"
    ~count:300
    (QCheck.make ~print:Expr.to_string expr_gen)
    (fun e ->
      match Expr.of_string (Expr.to_string e) with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok e' ->
          Expr.equivalent ~inputs:[| "a"; "b"; "c" |] e e')

(* ---- Quine-McCluskey ---- *)

let test_qm_covers () =
  let imp = { Qm.value = 0b100; mask = 0b010 } in
  checkb "covers 100" true (Qm.covers imp 0b100);
  checkb "covers 110" true (Qm.covers imp 0b110);
  checkb "not 000" false (Qm.covers imp 0b000)

let test_qm_literals () =
  let imp = { Qm.value = 0b100; mask = 0b010 } in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "literals"
    [ (0, false); (2, true) ]
    (Qm.implicant_literals ~arity:3 imp)

let test_qm_xor_primes () =
  (* XOR has no combinable minterms: primes are the minterms themselves. *)
  let tt = Truth_table.of_minterms ~arity:2 [ 1; 2 ] in
  checki "xor primes" 2 (List.length (Qm.prime_implicants tt))

let test_qm_consensus () =
  (* f = ab + a'c has prime implicant bc (consensus term). *)
  let tt =
    Truth_table.create ~arity:3 (fun r ->
        let a = r land 1 = 1 and b = r land 2 = 2 and c = r land 4 = 4 in
        (a && b) || ((not a) && c))
  in
  checki "three primes" 3 (List.length (Qm.prime_implicants tt));
  (* the minimal cover does not need the consensus term *)
  checki "two in cover" 2 (List.length (Qm.minimise tt))

let test_qm_constants () =
  checki "false" 0
    (List.length (Qm.minimise (Truth_table.of_minterms ~arity:2 [])));
  match Qm.minimise (Truth_table.of_minterms ~arity:2 [ 0; 1; 2; 3 ]) with
  | [ imp ] ->
      checki "all dont-care" 3 imp.Qm.mask;
      checki "value" 0 imp.Qm.value
  | other -> Alcotest.failf "expected 1 implicant, got %d" (List.length other)

let test_qm_pp () =
  check Alcotest.string "cube" "1-0"
    (Format.asprintf "%a"
       (Qm.pp_implicant ~arity:3)
       { Qm.value = 0b100; mask = 0b010 })

(* ---- netlists ---- *)

let test_netlist_make_checks () =
  let mk gates output =
    ignore (Netlist.make ~inputs:[| "a"; "b" |] ~output ~gates)
  in
  Alcotest.check_raises "undefined ref"
    (Invalid_argument
       "Netlist.make: net \"x\" used before definition in \"n1\"")
    (fun () -> mk [ ("n1", Netlist.Not "x") ] "n1");
  Alcotest.check_raises "double definition"
    (Invalid_argument "Netlist.make: net \"n1\" defined twice") (fun () ->
      mk [ ("n1", Netlist.Not "a"); ("n1", Netlist.Not "b") ] "n1");
  Alcotest.check_raises "undefined output"
    (Invalid_argument "Netlist.make: undefined output net \"zz\"")
    (fun () -> mk [ ("n1", Netlist.Not "a") ] "zz")

let test_netlist_eval () =
  let nl =
    Netlist.make ~inputs:[| "a"; "b" |] ~output:"n2"
      ~gates:[ ("n1", Netlist.Nor ("a", "b")); ("n2", Netlist.Not "n1") ]
  in
  (* n2 = a | b *)
  checkb "00" false (Netlist.eval nl [| false; false |]);
  checkb "10" true (Netlist.eval nl [| true; false |]);
  checki "gate count" 2 (Netlist.gate_count nl);
  checki "depth" 2 (Netlist.depth nl)

let test_netlist_const () =
  let nl =
    Netlist.of_truth_table ~inputs:[| "a" |]
      (Truth_table.of_minterms ~arity:1 [])
  in
  checkb "constant false" false (Netlist.eval nl [| true |]);
  checkb "constant false 2" false (Netlist.eval nl [| false |])

let test_netlist_buffer_is_wire () =
  (* The identity function needs no gates at all. *)
  let nl =
    Netlist.of_truth_table ~inputs:[| "a" |]
      (Truth_table.of_minterms ~arity:1 [ 1 ])
  in
  checki "no gates" 0 (Netlist.gate_count nl);
  checki "depth 0" 0 (Netlist.depth nl)

let test_netlist_gate_types () =
  (* Non-constant synthesis only emits NOT and NOR (the genetic gate
     repertoire). *)
  List.iter
    (fun code ->
      let tt = Truth_table.of_code ~arity:3 code in
      let nl = Netlist.of_truth_table ~inputs:[| "a"; "b"; "c" |] tt in
      List.iter
        (fun (_, g) ->
          match g with
          | Netlist.Not _ | Netlist.Nor _ -> ()
          | Netlist.Const _ -> Alcotest.fail "Const in non-constant netlist")
        (Netlist.logic_gates nl))
    [ 0x0B; 0x04; 0x1C; 0x96; 0x69 ]

(* The NOT/NOR cost table is built once per arity and shared: domains
   racing to build it cold must synthesise what a lone caller does. *)
let test_netlist_shared_table () =
  let synth_all () =
    List.concat_map
      (fun arity ->
        let inputs = Array.sub [| "a"; "b"; "c" |] 0 arity in
        List.init
          (1 lsl (1 lsl arity))
          (fun code ->
            Netlist.of_truth_table ~inputs (Truth_table.of_code ~arity code)))
      [ 1; 2; 3 ]
  in
  let racing = List.map Domain.join [ Domain.spawn synth_all; Domain.spawn synth_all ] in
  let alone = synth_all () in
  List.iter (fun r -> checkb "same netlists" true (r = alone)) racing

let test_netlist_paper_sizes () =
  (* The exact-search synthesiser keeps the paper's three Fig. 4 circuits
     within Cello-like gate counts. *)
  let gates code =
    Netlist.gate_count
      (Netlist.of_truth_table ~inputs:[| "a"; "b"; "c" |]
         (Truth_table.of_code ~arity:3 code))
  in
  checki "0x0B" 3 (gates 0x0B);
  checki "0x04" 4 (gates 0x04);
  checki "0x1C" 5 (gates 0x1C)

let contains ~needle haystack =
  let n = String.length haystack and m = String.length needle in
  let rec go i =
    i + m <= n && (String.sub haystack i m = needle || go (i + 1))
  in
  go 0

let test_netlist_verilog () =
  let nl =
    Netlist.make ~inputs:[| "a"; "b" |] ~output:"n2"
      ~gates:[ ("n1", Netlist.Nor ("a", "b")); ("n2", Netlist.Not "n1") ]
  in
  let v = Netlist.to_verilog ~name:"or2" nl in
  checkb "module header" true
    (contains ~needle:"module or2(input a, input b, output y);" v);
  checkb "wire decl" true (contains ~needle:"wire n1, n2;" v);
  checkb "nor gate" true (contains ~needle:"nor g0(n1, a, b);" v);
  checkb "not gate" true (contains ~needle:"not g1(n2, n1);" v);
  checkb "output" true (contains ~needle:"assign y = n2;" v);
  checkb "endmodule" true (contains ~needle:"endmodule" v);
  (* constant circuit *)
  let c =
    Netlist.of_truth_table ~inputs:[| "a" |]
      (Truth_table.of_minterms ~arity:1 [])
  in
  checkb "constant" true
    (contains ~needle:"assign const = 1'b0;" (Netlist.to_verilog c))

(* ---- property-based tests ---- *)

let table_gen arity =
  QCheck.map
    (fun code -> Truth_table.of_code ~arity code)
    (QCheck.int_bound ((1 lsl (1 lsl arity)) - 1))

let table_arb arity =
  QCheck.make
    ~print:(fun tt -> Format.asprintf "%a" Truth_table.pp_code tt)
    (QCheck.gen (table_gen arity))

let inputs_for arity = Array.init arity (fun i -> Printf.sprintf "x%d" i)

let prop_code_roundtrip =
  QCheck.Test.make ~name:"of_code . to_code = id" ~count:200 (table_arb 4)
    (fun tt ->
      Truth_table.equal tt
        (Truth_table.of_code ~arity:4 (Truth_table.to_code tt)))

let prop_complement =
  QCheck.Test.make ~name:"complement flips every row" ~count:100
    (table_arb 3) (fun tt ->
      let c = Truth_table.complement tt in
      List.for_all
        (fun r -> Truth_table.output tt r <> Truth_table.output c r)
        (List.init 8 Fun.id))

let prop_expr_roundtrip =
  QCheck.Test.make ~name:"expr of table tabulates back" ~count:200
    (table_arb 3) (fun tt ->
      let inputs = inputs_for 3 in
      Truth_table.equal tt
        (Expr.to_truth_table ~inputs (Expr.of_truth_table ~inputs tt)))

let prop_qm_equivalent =
  QCheck.Test.make ~name:"QM minimisation preserves the function"
    ~count:300 (table_arb 4) (fun tt ->
      let inputs = inputs_for 4 in
      Truth_table.equal tt
        (Expr.to_truth_table ~inputs (Qm.to_expr ~inputs tt)))

let prop_qm_primes_cover =
  QCheck.Test.make ~name:"QM cover covers exactly the minterms" ~count:200
    (table_arb 4) (fun tt ->
      let cover = Qm.minimise tt in
      let covered m = List.exists (fun p -> Qm.covers p m) cover in
      List.for_all covered (Truth_table.minterms tt)
      && List.for_all (fun m -> not (covered m)) (Truth_table.maxterms tt))

let prop_netlist_equivalent_3 =
  QCheck.Test.make ~name:"netlist synthesis is exact (arity 3)" ~count:256
    (table_arb 3) (fun tt ->
      let nl = Netlist.of_truth_table ~inputs:(inputs_for 3) tt in
      Truth_table.equal tt (Netlist.to_truth_table nl))

let prop_netlist_equivalent_4 =
  QCheck.Test.make ~name:"netlist synthesis is exact (arity 4, SOP path)"
    ~count:100 (table_arb 4) (fun tt ->
      let nl = Netlist.of_truth_table ~inputs:(inputs_for 4) tt in
      Truth_table.equal tt (Netlist.to_truth_table nl))

let prop_hamming_triangle =
  QCheck.Test.make ~name:"hamming distance triangle inequality" ~count:100
    (QCheck.triple (table_arb 3) (table_arb 3) (table_arb 3))
    (fun (a, b, c) ->
      Truth_table.hamming_distance a c
      <= Truth_table.hamming_distance a b + Truth_table.hamming_distance b c)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "glc_logic"
    [
      ( "truth_table",
        [
          Alcotest.test_case "create/output" `Quick test_create_output;
          Alcotest.test_case "of_minterms" `Quick test_of_minterms;
          Alcotest.test_case "partition" `Quick
            test_minterms_maxterms_partition;
          Alcotest.test_case "code round trip (all)" `Quick
            test_code_roundtrip;
          Alcotest.test_case "of_outputs" `Quick test_of_outputs;
          Alcotest.test_case "of_outputs invalid" `Quick
            test_of_outputs_invalid;
          Alcotest.test_case "eval" `Quick test_eval;
          Alcotest.test_case "complement involution" `Quick
            test_complement_involution;
          Alcotest.test_case "is_constant" `Quick test_is_constant;
          Alcotest.test_case "hamming" `Quick test_hamming;
          Alcotest.test_case "row/bits inverse" `Quick test_row_bits_inverse;
          Alcotest.test_case "arity guard" `Quick test_arity_guard;
          Alcotest.test_case "bad code" `Quick test_bad_code;
          Alcotest.test_case "pp_code" `Quick test_pp_code;
        ] );
      ( "expr",
        [
          Alcotest.test_case "eval" `Quick test_expr_eval;
          Alcotest.test_case "vars" `Quick test_expr_vars;
          Alcotest.test_case "to_truth_table" `Quick test_expr_to_table;
          Alcotest.test_case "unknown variable" `Quick test_expr_unknown_var;
          Alcotest.test_case "of_minterms degenerate" `Quick
            test_expr_of_minterms_degenerate;
          Alcotest.test_case "pretty printing" `Quick test_expr_pp;
          Alcotest.test_case "equivalence" `Quick test_expr_equivalent;
          Alcotest.test_case "parser" `Quick test_expr_parser;
        ] );
      ( "qm",
        [
          Alcotest.test_case "covers" `Quick test_qm_covers;
          Alcotest.test_case "literals" `Quick test_qm_literals;
          Alcotest.test_case "xor primes" `Quick test_qm_xor_primes;
          Alcotest.test_case "consensus" `Quick test_qm_consensus;
          Alcotest.test_case "constants" `Quick test_qm_constants;
          Alcotest.test_case "pp" `Quick test_qm_pp;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "make checks" `Quick test_netlist_make_checks;
          Alcotest.test_case "eval" `Quick test_netlist_eval;
          Alcotest.test_case "const" `Quick test_netlist_const;
          Alcotest.test_case "buffer is a wire" `Quick
            test_netlist_buffer_is_wire;
          Alcotest.test_case "gate repertoire" `Quick test_netlist_gate_types;
          Alcotest.test_case "paper circuit sizes" `Quick
            test_netlist_paper_sizes;
          Alcotest.test_case "cost table shared across domains" `Quick
            test_netlist_shared_table;
          Alcotest.test_case "verilog export" `Quick test_netlist_verilog;
        ] );
      ( "properties",
        qc
          [
            prop_code_roundtrip;
            prop_complement;
            prop_expr_roundtrip;
            prop_qm_equivalent;
            prop_qm_primes_cover;
            prop_netlist_equivalent_3;
            prop_netlist_equivalent_4;
            prop_hamming_triangle;
            prop_expr_parse_roundtrip;
          ] );
    ]
