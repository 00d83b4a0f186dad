module Document = Glc_sbol.Document
module Truth_table = Glc_logic.Truth_table

(* One transcription unit: the CDS and terminator part ids are derived
   from the promoter so a protein encoded behind two promoters (as CI in
   Fig. 1) yields distinct DNA parts. *)
let tu ~prom ~prot =
  ignore prot;
  [
    Document.part Document.Promoter prom;
    Document.part Document.Cds ("cds_" ^ prom);
    Document.part Document.Terminator ("ter_" ^ prom);
  ]

let genetic_not () =
  let document =
    Document.make ~id:"genetic_NOT"
      ~parts:(tu ~prom:"P1" ~prot:"GFP")
      ~proteins:
        [ Document.protein "LacI"; Document.protein ~reporter:true "GFP" ]
      ~interactions:
        [
          Document.Production { prom = "P1"; prot = "GFP" };
          Document.Repression { repressor = "LacI"; prom = "P1" };
        ]
  in
  Circuit.make ~name:"genetic_NOT" ~document ~inputs:[| "LacI" |]
    ~output:"GFP"
    ~expected:(Truth_table.of_minterms ~arity:1 [ 0 ])
    ~regulator_affinity:[ ("LacI", Assembly.sensor_affinity "LacI") ]
    ()

(* The paper's Fig. 1: P1 and P2 produce CI unless repressed by LacI and
   TetR; P3 produces GFP unless repressed by CI. *)
let genetic_and () =
  let document =
    Document.make ~id:"genetic_AND"
      ~parts:
        (tu ~prom:"P1" ~prot:"CI" @ tu ~prom:"P2" ~prot:"CI"
        @ tu ~prom:"P3" ~prot:"GFP")
      ~proteins:
        [
          Document.protein "LacI";
          Document.protein "TetR";
          Document.protein "CI";
          Document.protein ~reporter:true "GFP";
        ]
      ~interactions:
        [
          Document.Production { prom = "P1"; prot = "CI" };
          Document.Repression { repressor = "LacI"; prom = "P1" };
          Document.Production { prom = "P2"; prot = "CI" };
          Document.Repression { repressor = "TetR"; prom = "P2" };
          Document.Production { prom = "P3"; prot = "GFP" };
          Document.Repression { repressor = "CI"; prom = "P3" };
        ]
  in
  Circuit.make ~name:"genetic_AND" ~document ~inputs:[| "LacI"; "TetR" |]
    ~output:"GFP"
    ~expected:(Truth_table.of_minterms ~arity:2 [ 3 ])
    ~regulator_affinity:
      [
        ("LacI", Assembly.sensor_affinity "LacI");
        ("TetR", Assembly.sensor_affinity "TetR");
        ("CI", (12.0, 2.5));
      ]
    ()

let genetic_or () =
  let document =
    Document.make ~id:"genetic_OR"
      ~parts:(tu ~prom:"P1" ~prot:"GFP" @ tu ~prom:"P2" ~prot:"GFP")
      ~proteins:
        [
          Document.protein "LacI";
          Document.protein "TetR";
          Document.protein ~reporter:true "GFP";
        ]
      ~interactions:
        [
          Document.Production { prom = "P1"; prot = "GFP" };
          Document.Activation { activator = "LacI"; prom = "P1" };
          Document.Production { prom = "P2"; prot = "GFP" };
          Document.Activation { activator = "TetR"; prom = "P2" };
        ]
  in
  Circuit.make ~name:"genetic_OR" ~document ~inputs:[| "LacI"; "TetR" |]
    ~output:"GFP"
    ~expected:(Truth_table.of_minterms ~arity:2 [ 1; 2; 3 ])
    ~regulator_affinity:
      [
        ("LacI", Assembly.sensor_affinity "LacI");
        ("TetR", Assembly.sensor_affinity "TetR");
      ]
    ()

let genetic_nand () =
  let document =
    Document.make ~id:"genetic_NAND"
      ~parts:(tu ~prom:"P1" ~prot:"GFP" @ tu ~prom:"P2" ~prot:"GFP")
      ~proteins:
        [
          Document.protein "LacI";
          Document.protein "TetR";
          Document.protein ~reporter:true "GFP";
        ]
      ~interactions:
        [
          Document.Production { prom = "P1"; prot = "GFP" };
          Document.Repression { repressor = "LacI"; prom = "P1" };
          Document.Production { prom = "P2"; prot = "GFP" };
          Document.Repression { repressor = "TetR"; prom = "P2" };
        ]
  in
  Circuit.make ~name:"genetic_NAND" ~document ~inputs:[| "LacI"; "TetR" |]
    ~output:"GFP"
    ~expected:(Truth_table.of_minterms ~arity:2 [ 0; 1; 2 ])
    ~regulator_affinity:
      [
        ("LacI", Assembly.sensor_affinity "LacI");
        ("TetR", Assembly.sensor_affinity "TetR");
      ]
    ()

let genetic_nor () =
  let document =
    Document.make ~id:"genetic_NOR"
      ~parts:(tu ~prom:"P1" ~prot:"GFP")
      ~proteins:
        [
          Document.protein "LacI";
          Document.protein "TetR";
          Document.protein ~reporter:true "GFP";
        ]
      ~interactions:
        [
          Document.Production { prom = "P1"; prot = "GFP" };
          Document.Repression { repressor = "LacI"; prom = "P1" };
          Document.Repression { repressor = "TetR"; prom = "P1" };
        ]
  in
  Circuit.make ~name:"genetic_NOR" ~document ~inputs:[| "LacI"; "TetR" |]
    ~output:"GFP"
    ~expected:(Truth_table.of_minterms ~arity:2 [ 0 ])
    ~regulator_affinity:
      [
        ("LacI", Assembly.sensor_affinity "LacI");
        ("TetR", Assembly.sensor_affinity "TetR");
      ]
    ()
