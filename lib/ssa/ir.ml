module Math = Glc_model.Math

type operand = Reg of int | Pool of int | State of int

(* One instruction per 63-bit OCaml int:

     bits 0..6    opcode
     bits 7..20   destination register
     bits 21..34  operand a
     bits 35..48  operand b

   Binary opcodes carry the source kind of each operand — register,
   constant pool, or state vector — so the evaluator decodes a word
   with three shifts and jumps straight to code that reads the right
   arrays; there are no separate const/load instructions to execute on
   every evaluation:

     opcode = base * 9 + akind * 3 + bkind
     base:  0 add, 1 sub, 2 mul, 3 div, 4 pow, 5 min, 6 max
     kind:  0 register, 1 pool, 2 state

   (pool op pool never occurs — the folder already evaluated it.)
   Unary opcodes follow at 63:

     opcode = 63 + base * 3 + kind     base: 0 neg, 1 exp, 2 ln

   Opcodes from 72 are superinstructions for the Hill response shapes
   the SBOL importer emits, selected by peephole over the folded tree.
   Each performs the exact IEEE operation sequence of the subtree it
   replaces — same operations, same order — so fusion cannot perturb a
   single bit; it only removes dispatch. Operand [a] is the regulator's
   state slot, operand [b] the base of a block of consecutive pool
   slots holding the folded parameters:

     72 hillrf  pool[b] / (pool[b+1] + state[a]^pool[b+2])
     73 hillaf  xn / (pool[b] + xn)            where xn = state[a]^pool[b+1]
     74 hillr1  pool[b] + pool[b+1] * (pool[b+2] / (pool[b+3] + state[a]^pool[b+4]))
     75 hilla1  pool[b] + pool[b+1] * (xn / (pool[b+2] + xn))
                                               where xn = state[a]^pool[b+3]
     76 hillrr2 pool[b] + pool[b+1] * (f1 * f2) — a two-repressor-input
                production law (the workhorse of NOR-based circuits);
                f1 reads state[a] with params pool[b+2..b+4], f2 reads
                state[int_of_float pool[b+5]] with params pool[b+6..b+8]
                (a state index stored as a float is exact far beyond the
                14-bit operand range) *)

type prog = { p_code : int array; p_pool : float array; p_regs : int }
type expr = { e_prog : prog; e_result : operand }
type stats = { s_instrs : int; s_cse_hits : int; s_const_folds : int }

(* Constant folding, bottom up. Every fold computes exactly the IEEE
   operation [exec] would perform at run time on the same operands —
   never an algebraic identity — so a folded program stays bit-identical
   to the AST evaluator, NaNs and signed zeros included. *)
let rec fold count (e : Math.t) : Math.t =
  match e with
  | Const _ | Ident _ -> e
  | Neg a -> (
      match fold count a with
      | Const x ->
          incr count;
          Const (-.x)
      | a -> Neg a)
  | Exp a -> (
      match fold count a with
      | Const x ->
          incr count;
          Const (Float.exp x)
      | a -> Exp a)
  | Ln a -> (
      match fold count a with
      | Const x ->
          incr count;
          Const (Float.log x)
      | a -> Ln a)
  | Add (a, b) -> (
      match (fold count a, fold count b) with
      | Const x, Const y ->
          incr count;
          Const (x +. y)
      | a, b -> Add (a, b))
  | Sub (a, b) -> (
      match (fold count a, fold count b) with
      | Const x, Const y ->
          incr count;
          Const (x -. y)
      | a, b -> Sub (a, b))
  | Mul (a, b) -> (
      match (fold count a, fold count b) with
      | Const x, Const y ->
          incr count;
          Const (x *. y)
      | a, b -> Mul (a, b))
  | Div (a, b) -> (
      match (fold count a, fold count b) with
      | Const x, Const y ->
          incr count;
          Const (x /. y)
      | a, b -> Div (a, b))
  | Pow (a, b) -> (
      match (fold count a, fold count b) with
      | Const x, Const y ->
          incr count;
          Const (Float.pow x y)
      | a, b -> Pow (a, b))
  | Min (a, b) -> (
      match (fold count a, fold count b) with
      | Const x, Const y ->
          incr count;
          Const (Float.min x y)
      | a, b -> Min (a, b))
  | Max (a, b) -> (
      match (fold count a, fold count b) with
      | Const x, Const y ->
          incr count;
          Const (Float.max x y)
      | a, b -> Max (a, b))

(* Value-numbering key of one instruction: operands carry their source
   kind, so two structurally identical subterms reach the same key
   bottom-up. Constants intern by bit pattern — [nan] subterms share,
   [0.] and [-0.] do not. *)
type key =
  | K_un of int * operand
  | K_bin of int * operand * operand
  | K_fused of int * int * int64 list

type builder = {
  b_resolve : string -> int option;
  b_tbl : (key, operand) Hashtbl.t;
  b_consts : (int64, int) Hashtbl.t;
  mutable b_code : int list; (* reversed *)
  mutable b_n : int;
  mutable b_pool : float list; (* reversed *)
  mutable b_pool_n : int;
  mutable b_cse : int;
  mutable b_folds : int;
}

let builder ~resolve () =
  {
    b_resolve = resolve;
    b_tbl = Hashtbl.create 64;
    b_consts = Hashtbl.create 16;
    b_code = [];
    b_n = 0;
    b_pool = [];
    b_pool_n = 0;
    b_cse = 0;
    b_folds = 0;
  }

let field v =
  if v land 0x3fff <> v then
    invalid_arg "Ir: program exceeds the 14-bit operand encoding";
  v

let word op d a b =
  op lor (field d lsl 7) lor (field a lsl 21) lor (field b lsl 35)

let kind = function Reg _ -> 0 | Pool _ -> 1 | State _ -> 2
let index = function Reg i | Pool i | State i -> i

let intern b key op a bo =
  match Hashtbl.find_opt b.b_tbl key with
  | Some r ->
      b.b_cse <- b.b_cse + 1;
      r
  | None ->
      let d = b.b_n in
      b.b_n <- d + 1;
      b.b_code <- word op d (index a) (index bo) :: b.b_code;
      let r = Reg d in
      Hashtbl.add b.b_tbl key r;
      r

let const b c =
  let bits = Int64.bits_of_float c in
  match Hashtbl.find_opt b.b_consts bits with
  | Some i ->
      b.b_cse <- b.b_cse + 1;
      Pool i
  | None ->
      let i = b.b_pool_n in
      ignore (field i);
      b.b_pool_n <- i + 1;
      b.b_pool <- c :: b.b_pool;
      Hashtbl.add b.b_consts bits i;
      Pool i

let resolve_exn b x =
  match b.b_resolve x with
  | Some i ->
      ignore (field i);
      i
  | None -> invalid_arg (Printf.sprintf "Ir: unresolved identifier %S" x)

(* A block of consecutive pool slots for a superinstruction's folded
   parameters — appended without interning, so the block stays
   contiguous; identical fused subtrees still share through the value
   numbering below. *)
let pool_block b params =
  let base = b.b_pool_n in
  List.iter
    (fun v ->
      ignore (field b.b_pool_n);
      b.b_pool <- v :: b.b_pool;
      b.b_pool_n <- b.b_pool_n + 1)
    params;
  base

let intern_fused b op xi params =
  let key = K_fused (op, xi, List.map Int64.bits_of_float params) in
  match Hashtbl.find_opt b.b_tbl key with
  | Some r ->
      b.b_cse <- b.b_cse + 1;
      r
  | None ->
      let base = pool_block b params in
      let d = b.b_n in
      b.b_n <- d + 1;
      b.b_code <- word op d xi base :: b.b_code;
      let r = Reg d in
      Hashtbl.add b.b_tbl key r;
      r

let same_const x y = Int64.bits_of_float x = Int64.bits_of_float y

(* Superinstruction selection over the folded tree. Parameters always
   fold to constants first (the compiler substitutes them before
   pushing), so the Hill shapes below are what every imported gate's
   production law reduces to. *)
let fuse b (e : Math.t) : operand option =
  match e with
  | Add
      ( Const y0,
        Mul
          ( Const bb,
            Mul
              ( Div (Const ka1, Add (Const kb1, Pow (Ident x1, Const n1))),
                Div (Const ka2, Add (Const kb2, Pow (Ident x2, Const n2)))
              ) ) ) ->
      let x1i = resolve_exn b x1 and x2i = resolve_exn b x2 in
      Some
        (intern_fused b 76 x1i
           [ y0; bb; ka1; kb1; n1; float_of_int x2i; ka2; kb2; n2 ])
  | Add
      ( Const y0,
        Mul
          (Const bb, Div (Const ka, Add (Const kb, Pow (Ident x, Const n))))
      ) ->
      Some (intern_fused b 74 (resolve_exn b x) [ y0; bb; ka; kb; n ])
  | Add
      ( Const y0,
        Mul
          ( Const bb,
            Div
              ( Pow (Ident x, Const n),
                Add (Const ka, Pow (Ident x', Const n')) ) ) )
    when String.equal x x' && same_const n n' ->
      Some (intern_fused b 75 (resolve_exn b x) [ y0; bb; ka; n ])
  | Div (Const ka, Add (Const kb, Pow (Ident x, Const n))) ->
      Some (intern_fused b 72 (resolve_exn b x) [ ka; kb; n ])
  | Div (Pow (Ident x, Const n), Add (Const ka, Pow (Ident x', Const n')))
    when String.equal x x' && same_const n n' ->
      Some (intern_fused b 73 (resolve_exn b x) [ ka; n ])
  | _ -> None

let rec emit b (e : Math.t) : operand =
  match fuse b e with
  | Some r -> r
  | None -> emit_generic b e

and emit_generic b (e : Math.t) : operand =
  match e with
  | Const c -> const b c
  | Ident x -> State (resolve_exn b x)
  | Neg a -> emit_un b 0 a
  | Exp a -> emit_un b 1 a
  | Ln a -> emit_un b 2 a
  | Add (x, y) -> emit_bin b 0 x y
  | Sub (x, y) -> emit_bin b 1 x y
  | Mul (x, y) -> emit_bin b 2 x y
  | Div (x, y) -> emit_bin b 3 x y
  | Pow (x, y) -> emit_bin b 4 x y
  | Min (x, y) -> emit_bin b 5 x y
  | Max (x, y) -> emit_bin b 6 x y

and emit_un b base a =
  let oa = emit b a in
  intern b (K_un (base, oa)) (63 + (base * 3) + kind oa) oa (Reg 0)

and emit_bin b base x y =
  let oa = emit b x in
  let ob = emit b y in
  intern b
    (K_bin (base, oa, ob))
    ((base * 9) + (kind oa * 3) + kind ob)
    oa ob

let push b e =
  let folds = ref 0 in
  let e = fold folds e in
  b.b_folds <- b.b_folds + !folds;
  emit b e

let finish b =
  let code = Array.of_list (List.rev b.b_code) in
  let pool = Array.of_list (List.rev b.b_pool) in
  ( { p_code = code; p_pool = pool; p_regs = b.b_n },
    {
      s_instrs = Array.length code;
      s_cse_hits = b.b_cse;
      s_const_folds = b.b_folds;
    } )

let compile ~resolve e =
  let b = builder ~resolve () in
  let r = push b e in
  let prog, stats = finish b in
  ({ e_prog = prog; e_result = r }, stats)

(* The hot loop. Registers are single-assignment with instruction [k]
   writing register [k], and the builder put every pool index in
   bounds, so after the one length check register and pool accesses use
   the unchecked primitives; the state vector is the caller's and stays
   bounds-checked. The store happens inside every arm — a float bound
   at the match join would be boxed. *)
let exec p ~regs state =
  if Array.length regs < p.p_regs then
    invalid_arg "Ir.exec: register file smaller than p_regs";
  let code = p.p_code in
  let pool = p.p_pool in
  for pc = 0 to Array.length code - 1 do
    let w = Array.unsafe_get code pc in
    let d = (w lsr 7) land 0x3fff in
    let a = (w lsr 21) land 0x3fff in
    let b = (w lsr 35) land 0x3fff in
    match w land 0x7f with
    (* add *)
    | 0 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a +. Array.unsafe_get regs b)
    | 1 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a +. Array.unsafe_get pool b)
    | 2 -> Array.unsafe_set regs d (Array.unsafe_get regs a +. state.(b))
    | 3 ->
        Array.unsafe_set regs d
          (Array.unsafe_get pool a +. Array.unsafe_get regs b)
    | 5 -> Array.unsafe_set regs d (Array.unsafe_get pool a +. state.(b))
    | 6 -> Array.unsafe_set regs d (state.(a) +. Array.unsafe_get regs b)
    | 7 -> Array.unsafe_set regs d (state.(a) +. Array.unsafe_get pool b)
    | 8 -> Array.unsafe_set regs d (state.(a) +. state.(b))
    (* sub *)
    | 9 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a -. Array.unsafe_get regs b)
    | 10 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a -. Array.unsafe_get pool b)
    | 11 -> Array.unsafe_set regs d (Array.unsafe_get regs a -. state.(b))
    | 12 ->
        Array.unsafe_set regs d
          (Array.unsafe_get pool a -. Array.unsafe_get regs b)
    | 14 -> Array.unsafe_set regs d (Array.unsafe_get pool a -. state.(b))
    | 15 -> Array.unsafe_set regs d (state.(a) -. Array.unsafe_get regs b)
    | 16 -> Array.unsafe_set regs d (state.(a) -. Array.unsafe_get pool b)
    | 17 -> Array.unsafe_set regs d (state.(a) -. state.(b))
    (* mul *)
    | 18 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a *. Array.unsafe_get regs b)
    | 19 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a *. Array.unsafe_get pool b)
    | 20 -> Array.unsafe_set regs d (Array.unsafe_get regs a *. state.(b))
    | 21 ->
        Array.unsafe_set regs d
          (Array.unsafe_get pool a *. Array.unsafe_get regs b)
    | 23 -> Array.unsafe_set regs d (Array.unsafe_get pool a *. state.(b))
    | 24 -> Array.unsafe_set regs d (state.(a) *. Array.unsafe_get regs b)
    | 25 -> Array.unsafe_set regs d (state.(a) *. Array.unsafe_get pool b)
    | 26 -> Array.unsafe_set regs d (state.(a) *. state.(b))
    (* div *)
    | 27 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a /. Array.unsafe_get regs b)
    | 28 ->
        Array.unsafe_set regs d
          (Array.unsafe_get regs a /. Array.unsafe_get pool b)
    | 29 -> Array.unsafe_set regs d (Array.unsafe_get regs a /. state.(b))
    | 30 ->
        Array.unsafe_set regs d
          (Array.unsafe_get pool a /. Array.unsafe_get regs b)
    | 32 -> Array.unsafe_set regs d (Array.unsafe_get pool a /. state.(b))
    | 33 -> Array.unsafe_set regs d (state.(a) /. Array.unsafe_get regs b)
    | 34 -> Array.unsafe_set regs d (state.(a) /. Array.unsafe_get pool b)
    | 35 -> Array.unsafe_set regs d (state.(a) /. state.(b))
    (* pow *)
    | 36 ->
        Array.unsafe_set regs d
          (Float.pow (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | 37 ->
        Array.unsafe_set regs d
          (Float.pow (Array.unsafe_get regs a) (Array.unsafe_get pool b))
    | 38 ->
        Array.unsafe_set regs d (Float.pow (Array.unsafe_get regs a) state.(b))
    | 39 ->
        Array.unsafe_set regs d
          (Float.pow (Array.unsafe_get pool a) (Array.unsafe_get regs b))
    | 41 ->
        Array.unsafe_set regs d (Float.pow (Array.unsafe_get pool a) state.(b))
    | 42 ->
        Array.unsafe_set regs d (Float.pow state.(a) (Array.unsafe_get regs b))
    | 43 ->
        Array.unsafe_set regs d (Float.pow state.(a) (Array.unsafe_get pool b))
    | 44 -> Array.unsafe_set regs d (Float.pow state.(a) state.(b))
    (* min *)
    | 45 ->
        Array.unsafe_set regs d
          (Float.min (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | 46 ->
        Array.unsafe_set regs d
          (Float.min (Array.unsafe_get regs a) (Array.unsafe_get pool b))
    | 47 ->
        Array.unsafe_set regs d (Float.min (Array.unsafe_get regs a) state.(b))
    | 48 ->
        Array.unsafe_set regs d
          (Float.min (Array.unsafe_get pool a) (Array.unsafe_get regs b))
    | 50 ->
        Array.unsafe_set regs d (Float.min (Array.unsafe_get pool a) state.(b))
    | 51 ->
        Array.unsafe_set regs d (Float.min state.(a) (Array.unsafe_get regs b))
    | 52 ->
        Array.unsafe_set regs d (Float.min state.(a) (Array.unsafe_get pool b))
    | 53 -> Array.unsafe_set regs d (Float.min state.(a) state.(b))
    (* max *)
    | 54 ->
        Array.unsafe_set regs d
          (Float.max (Array.unsafe_get regs a) (Array.unsafe_get regs b))
    | 55 ->
        Array.unsafe_set regs d
          (Float.max (Array.unsafe_get regs a) (Array.unsafe_get pool b))
    | 56 ->
        Array.unsafe_set regs d (Float.max (Array.unsafe_get regs a) state.(b))
    | 57 ->
        Array.unsafe_set regs d
          (Float.max (Array.unsafe_get pool a) (Array.unsafe_get regs b))
    | 59 ->
        Array.unsafe_set regs d (Float.max (Array.unsafe_get pool a) state.(b))
    | 60 ->
        Array.unsafe_set regs d (Float.max state.(a) (Array.unsafe_get regs b))
    | 61 ->
        Array.unsafe_set regs d (Float.max state.(a) (Array.unsafe_get pool b))
    | 62 -> Array.unsafe_set regs d (Float.max state.(a) state.(b))
    (* neg / exp / ln *)
    | 63 -> Array.unsafe_set regs d (-.Array.unsafe_get regs a)
    | 65 -> Array.unsafe_set regs d (-.state.(a))
    | 66 -> Array.unsafe_set regs d (Float.exp (Array.unsafe_get regs a))
    | 68 -> Array.unsafe_set regs d (Float.exp state.(a))
    | 69 -> Array.unsafe_set regs d (Float.log (Array.unsafe_get regs a))
    | 71 -> Array.unsafe_set regs d (Float.log state.(a))
    (* Hill superinstructions *)
    | 72 ->
        Array.unsafe_set regs d
          (Array.unsafe_get pool b
          /. (Array.unsafe_get pool (b + 1)
             +. Float.pow state.(a) (Array.unsafe_get pool (b + 2))))
    | 73 ->
        let xn = Float.pow state.(a) (Array.unsafe_get pool (b + 1)) in
        Array.unsafe_set regs d (xn /. (Array.unsafe_get pool b +. xn))
    | 74 ->
        Array.unsafe_set regs d
          (Array.unsafe_get pool b
          +. Array.unsafe_get pool (b + 1)
             *. (Array.unsafe_get pool (b + 2)
                /. (Array.unsafe_get pool (b + 3)
                   +. Float.pow state.(a) (Array.unsafe_get pool (b + 4)))))
    | 75 ->
        let xn = Float.pow state.(a) (Array.unsafe_get pool (b + 3)) in
        Array.unsafe_set regs d
          (Array.unsafe_get pool b
          +. Array.unsafe_get pool (b + 1)
             *. (xn /. (Array.unsafe_get pool (b + 2) +. xn)))
    | 76 ->
        let f1 =
          Array.unsafe_get pool (b + 2)
          /. (Array.unsafe_get pool (b + 3)
             +. Float.pow state.(a) (Array.unsafe_get pool (b + 4)))
        in
        let x2 = state.(int_of_float (Array.unsafe_get pool (b + 5))) in
        let f2 =
          Array.unsafe_get pool (b + 6)
          /. (Array.unsafe_get pool (b + 7)
             +. Float.pow x2 (Array.unsafe_get pool (b + 8)))
        in
        Array.unsafe_set regs d
          (Array.unsafe_get pool b
          +. (Array.unsafe_get pool (b + 1) *. (f1 *. f2)))
    | _ ->
        (* pool-only combinations are always folded away *)
        assert false
  done

let eval e ~regs state =
  exec e.e_prog ~regs state;
  match e.e_result with
  | Reg r -> regs.(r)
  | Pool i -> e.e_prog.p_pool.(i)
  | State i -> state.(i)

let bin_name = [| "add"; "sub"; "mul"; "div"; "pow"; "min"; "max" |]
let un_name = [| "neg"; "exp"; "ln" |]

let pp_operand pool ppf (k, i) =
  match k with
  | 0 -> Format.fprintf ppf "r%d" i
  | 1 -> Format.fprintf ppf "%h" pool.(i)
  | _ -> Format.fprintf ppf "state[%d]" i

let pp_prog ppf p =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun pc w ->
      if pc > 0 then Format.fprintf ppf "@,";
      let op = w land 0x7f in
      let d = (w lsr 7) land 0x3fff in
      let a = (w lsr 21) land 0x3fff in
      let b = (w lsr 35) land 0x3fff in
      if op < 63 then
        Format.fprintf ppf "r%d <- %s %a %a" d bin_name.(op / 9)
          (pp_operand p.p_pool)
          (op mod 9 / 3, a)
          (pp_operand p.p_pool)
          (op mod 3, b)
      else if op < 72 then
        Format.fprintf ppf "r%d <- %s %a" d
          un_name.((op - 63) / 3)
          (pp_operand p.p_pool)
          ((op - 63) mod 3, a)
      else
        let name =
          match op with
          | 72 -> "hillrf"
          | 73 -> "hillaf"
          | 74 -> "hillr1"
          | 75 -> "hilla1"
          | _ -> "hillrr2"
        in
        Format.fprintf ppf "r%d <- %s state[%d] pool[%d..]" d name a b)
    p.p_code;
  Format.fprintf ppf "@]"
