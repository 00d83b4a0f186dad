type net = string

type gate = Not of net | Nor of net * net | Const of bool

type t = {
  inputs : string array;
  output : net;
  gates : (net * gate) list;
}

let gate_nets = function
  | Not a -> [ a ]
  | Nor (a, b) -> [ a; b ]
  | Const _ -> []

let make ~inputs ~output ~gates =
  let module S = Set.Make (String) in
  let defined =
    Array.fold_left (fun s i -> S.add i s) S.empty inputs
  in
  let defined =
    List.fold_left
      (fun defined (net, gate) ->
        if S.mem net defined then
          invalid_arg (Printf.sprintf "Netlist.make: net %S defined twice" net);
        List.iter
          (fun used ->
            if not (S.mem used defined) then
              invalid_arg
                (Printf.sprintf
                   "Netlist.make: net %S used before definition in %S" used net))
          (gate_nets gate);
        S.add net defined)
      defined gates
  in
  if not (S.mem output defined) then
    invalid_arg (Printf.sprintf "Netlist.make: undefined output net %S" output);
  { inputs; output; gates }

let eval t ins =
  if Array.length ins <> Array.length t.inputs then
    invalid_arg "Netlist.eval: wrong number of inputs";
  let values = Hashtbl.create 32 in
  Array.iteri (fun i name -> Hashtbl.replace values name ins.(i)) t.inputs;
  let get net =
    match Hashtbl.find_opt values net with
    | Some v -> v
    | None -> assert false (* make guarantees definition order *)
  in
  List.iter
    (fun (net, gate) ->
      let v =
        match gate with
        | Not a -> not (get a)
        | Nor (a, b) -> not (get a || get b)
        | Const b -> b
      in
      Hashtbl.replace values net v)
    t.gates;
  get t.output

let to_truth_table t =
  let arity = Array.length t.inputs in
  Truth_table.create ~arity (fun row ->
      eval t (Truth_table.bits_of_row ~arity row))

let gate_count t = List.length t.gates

let depth t =
  let depths = Hashtbl.create 32 in
  Array.iter (fun i -> Hashtbl.replace depths i 0) t.inputs;
  let get net =
    match Hashtbl.find_opt depths net with
    | Some d -> d
    | None -> assert false
  in
  List.iter
    (fun (net, gate) ->
      let d =
        match gate with
        | Not a -> 1 + get a
        | Nor (a, b) -> 1 + max (get a) (get b)
        | Const _ -> 1
      in
      Hashtbl.replace depths net d)
    t.gates;
  get t.output

let logic_gates t = t.gates

(* Synthesis: minimised SOP -> NOT/NOR gates with structural sharing.

   The builder hash-conses on gate structure so a literal inverted twice or
   a product shared between two sum terms costs one gate. *)

module Builder = struct
  type state = {
    mutable defs : (net * gate) list; (* reverse topological order *)
    memo : (gate, net) Hashtbl.t;
    mutable fresh : int;
  }

  let create () = { defs = []; memo = Hashtbl.create 32; fresh = 0 }

  let emit st gate =
    match Hashtbl.find_opt st.memo gate with
    | Some net -> net
    | None ->
        st.fresh <- st.fresh + 1;
        let net = Printf.sprintf "n%d" st.fresh in
        st.defs <- (net, gate) :: st.defs;
        Hashtbl.replace st.memo gate net;
        net

  let mk_not st a = emit st (Not a)

  let mk_nor st a b =
    (* Canonical operand order maximises sharing. *)
    let a, b = if String.compare a b <= 0 then (a, b) else (b, a) in
    emit st (Nor (a, b))

  let mk_or st a b = mk_not st (mk_nor st a b)
  let mk_and st a b = mk_nor st (mk_not st a) (mk_not st b)

  let rec reduce st f = function
    | [] -> invalid_arg "Netlist.Builder.reduce: empty"
    | [ x ] -> x
    | x :: y :: rest -> reduce st f (f st x y :: rest)

  let finish st = List.rev st.defs
end

let of_sop ~inputs tt =
  let arity = Array.length inputs in
  let st = Builder.create () in
  let product imp =
    let literal (i, positive) =
      if positive then inputs.(i) else Builder.mk_not st inputs.(i)
    in
    match Qm.implicant_literals ~arity imp with
    | [] -> assert false (* non-constant function: no empty implicant *)
    | lits -> Builder.reduce st Builder.mk_and (List.map literal lits)
  in
  let products = List.map product (Qm.minimise tt) in
  let output = Builder.reduce st Builder.mk_or products in
  make ~inputs ~output ~gates:(Builder.finish st)

(* Exact-flavoured synthesis for arity <= 3: dynamic programming over all
   2^2^arity Boolean functions, relaxing tree costs under {NOT, NOR2}
   until fixpoint, then extracting with structural sharing. This is the
   kind of optimisation Cello's logic synthesis performs and keeps the
   benchmark circuits within the paper's 1-7 gate range.

   The cost table depends on the arity alone, never on the target or the
   input names, so it is computed once per arity and shared. *)
type pred = [ `None | `Input of int | `Not of int | `Nor of int * int ]

let small_table arity =
  let rows = 1 lsl arity in
  let nf = 1 lsl rows in
  let mask = nf - 1 in
  let input_code i =
    (* bit r of the code is the value of input i on row r *)
    let c = ref 0 in
    for r = rows - 1 downto 0 do
      c := (!c lsl 1) lor ((r lsr i) land 1)
    done;
    !c
  in
  let cost = Array.make nf max_int in
  let pred : pred array = Array.make nf `None in
  for i = 0 to arity - 1 do
    let c = input_code i in
    if cost.(c) > 0 then begin
      cost.(c) <- 0;
      pred.(c) <- `Input i
    end
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    for f = 0 to nf - 1 do
      if cost.(f) < max_int then begin
        let cf = cost.(f) in
        let nf_code = lnot f land mask in
        if cf + 1 < cost.(nf_code) then begin
          cost.(nf_code) <- cf + 1;
          pred.(nf_code) <- `Not f;
          changed := true
        end;
        for g = f to nf - 1 do
          if cost.(g) < max_int then begin
            let nor = lnot (f lor g) land mask in
            let c = cf + cost.(g) + 1 in
            if c < cost.(nor) then begin
              cost.(nor) <- c;
              pred.(nor) <- `Nor (f, g);
              changed := true
            end
          end
        done
      end
    done
  done;
  (cost, pred)

(* One slot per arity 0..3. The tables are never mutated once built, so
   publishing them through an [Atomic] makes the cache domain-safe: two
   domains racing on a cold arity build equal tables and either may
   win. *)
let small_tables : (int array * pred array) option Atomic.t array =
  Array.init 4 (fun _ -> Atomic.make None)

let small_table_of arity =
  match Atomic.get small_tables.(arity) with
  | Some t -> t
  | None ->
      let t = small_table arity in
      Atomic.set small_tables.(arity) (Some t);
      t

let of_small ~inputs tt =
  let cost, pred = small_table_of (Array.length inputs) in
  let target = Truth_table.to_code tt in
  assert (cost.(target) < max_int);
  let st = Builder.create () in
  let memo = Hashtbl.create 16 in
  let rec emit f =
    match Hashtbl.find_opt memo f with
    | Some net -> net
    | None ->
        let net =
          match pred.(f) with
          | `Input i -> inputs.(i)
          | `Not g -> Builder.mk_not st (emit g)
          | `Nor (g, h) -> Builder.mk_nor st (emit g) (emit h)
          | `None -> assert false
        in
        Hashtbl.replace memo f net;
        net
  in
  let output = emit target in
  make ~inputs ~output ~gates:(Builder.finish st)

let of_truth_table ~inputs tt =
  if Truth_table.arity tt <> Array.length inputs then
    invalid_arg "Netlist.of_truth_table: arity mismatch";
  match Truth_table.is_constant tt with
  | Some b -> make ~inputs ~output:"const" ~gates:[ ("const", Const b) ]
  | None ->
      if Truth_table.arity tt <= 3 then of_small ~inputs tt
      else of_sop ~inputs tt

let to_verilog ?(name = "circuit") t =
  let buf = Buffer.create 512 in
  let inputs = Array.to_list t.inputs in
  Buffer.add_string buf
    (Printf.sprintf "module %s(%s, output y);\n" name
       (String.concat ", " (List.map (fun i -> "input " ^ i) inputs)));
  (match List.map fst t.gates with
  | [] -> ()
  | nets ->
      Buffer.add_string buf
        (Printf.sprintf "  wire %s;\n" (String.concat ", " nets)));
  List.iteri
    (fun k (net, gate) ->
      match gate with
      | Not a ->
          Buffer.add_string buf
            (Printf.sprintf "  not g%d(%s, %s);\n" k net a)
      | Nor (a, b) ->
          Buffer.add_string buf
            (Printf.sprintf "  nor g%d(%s, %s, %s);\n" k net a b)
      | Const b ->
          Buffer.add_string buf
            (Printf.sprintf "  assign %s = 1'b%d;\n" net
               (if b then 1 else 0)))
    t.gates;
  Buffer.add_string buf (Printf.sprintf "  assign y = %s;\n" t.output);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf
