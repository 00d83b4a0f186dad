(* Name -> constructor, in [all] order, so a lookup by name builds
   exactly the circuit asked for (resolving a name sits on every
   campaign job, serve submission and atlas delay). The book names are
   the [Circuit.name]s their constructors set; a test pins the
   agreement. *)
let catalogue =
  [
    ("genetic_NOT", Circuits.genetic_not);
    ("genetic_AND", Circuits.genetic_and);
    ("genetic_OR", Circuits.genetic_or);
    ("genetic_NAND", Circuits.genetic_nand);
    ("genetic_NOR", Circuits.genetic_nor);
  ]
  @ List.map
      (fun code ->
        (Cello.name_of_code ~arity:3 code, fun () -> Cello.of_code code))
      Cello.codes

let all () = List.map (fun (_, build) -> build ()) catalogue

let find name =
  Option.map (fun build -> build ()) (List.assoc_opt name catalogue)

let names () = List.map fst catalogue

let summary () =
  List.map
    (fun c ->
      (c.Circuit.name, Circuit.arity c, Circuit.n_gates c,
       Circuit.n_components c))
    (all ())
