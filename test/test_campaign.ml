(* Tests for glc_campaign: the declarative grid, the JSON reader it
   relies on, crash-safety of the store and journal, failure capture in
   the runner, and the headline contract — a killed-and-resumed
   campaign produces a byte-identical report. *)

module Json = Glc_obs.Json
module Grid = Glc_campaign.Grid
module Store = Glc_campaign.Store
module Journal = Glc_campaign.Journal
module Runner = Glc_campaign.Runner
module Resume = Glc_campaign.Resume

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---- scratch directories ---- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "glc-campaign-test-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* ---- the one JSON module (Glc_obs.Json) ---- *)

let test_json_parse_values () =
  let ok s = Result.get_ok (Json.parse s) in
  checkb "true" true (Option.get (Json.to_bool (ok "true")));
  checkb "null" true (ok " null " = Json.Null);
  checki "int" 42 (Option.get (Json.to_int (ok "42")));
  Alcotest.check (Alcotest.float 0.) "negative exponent" (-1.5e3)
    (Option.get (Json.to_number (ok "-1.5e3")));
  checks "string escapes" "a\"b\\c\n\t/"
    (Option.get (Json.to_str (ok {|"a\"b\\c\n\t\/"|})));
  checks "unicode escape" "\xe2\x82\xac"
    (Option.get (Json.to_str (ok {|"€"|})));
  checks "surrogate pair" "\xf0\x9d\x84\x9e"
    (Option.get (Json.to_str (ok {|"𝄞"|})));
  checki "array" 3
    (List.length (Option.get (Json.to_list (ok "[1, 2, 3]"))));
  let obj = ok {|{"a": 1, "b": {"c": [true]}}|} in
  checki "nested member" 1
    (Option.get (Option.bind (Json.member obj "a") Json.to_int));
  checkb "deep member" true
    (Option.get
       (Option.bind
          (Option.bind
             (Option.bind (Json.member obj "b") (fun b ->
                  Json.member b "c"))
             (fun l -> Option.map List.hd (Json.to_list l)))
          Json.to_bool))

let test_json_parse_rejects () =
  let bad s = Result.is_error (Json.parse s) in
  checkb "empty" true (bad "");
  checkb "truncated object" true (bad {|{"a": 1|});
  checkb "truncated string" true (bad {|"abc|});
  checkb "trailing garbage" true (bad "{} x");
  checkb "bare word" true (bad "nope");
  checkb "lone minus" true (bad "-")

let test_json_float_roundtrip () =
  (* the determinism contract: parsing a rendering of the one JSON
     number printer and re-rendering it reproduces the bytes *)
  let render = Json.float in
  List.iter
    (fun f ->
      let printed = render f in
      let reparsed =
        Option.get (Json.to_number (Result.get_ok (Json.parse printed)))
      in
      checks
        (Printf.sprintf "roundtrip %s" printed)
        printed (render reparsed))
    [ 0.; 1.; -1.; 0.1; 15.; 97.34; 1e-7; 1.7976931348623157e308; 3.14 ]

let prop_json_string_roundtrip =
  (* every byte string survives the one escaper and the reader *)
  QCheck.Test.make ~name:"string roundtrip" ~count:1000 QCheck.string
    (fun s -> Json.parse (Json.string s) = Ok (Json.String s))

(* A JSON text written with obj/arr, paired with the value the reader
   must give back: keys and strings are arbitrary bytes (quotes,
   backslashes, control bytes, non-ASCII), non-finite floats print
   null, and arrays and objects nest. *)
let written_and_expected =
  let open QCheck.Gen in
  let float =
    oneof [ QCheck.Gen.float; oneofl [ nan; infinity; neg_infinity; -0. ] ]
  in
  let scalar =
    oneof
      [
        map (fun s -> (Json.string s, Json.String s)) QCheck.string.gen;
        map
          (fun f ->
            ( Json.float f,
              if Float.is_finite f then Json.Number f else Json.Null ))
          float;
        map (fun b -> (Json.bool b, Json.Bool b)) bool;
        map
          (fun i -> (string_of_int i, Json.Number (float_of_int i)))
          small_signed_int;
        return (Json.option Json.float None, Json.Null);
      ]
  in
  let members value =
    list_size (int_bound 5) (pair QCheck.string.gen value)
  in
  let obj ms =
    ( Json.obj (List.map (fun (k, (text, _)) -> (k, text)) ms),
      Json.Object (List.map (fun (k, (_, v)) -> (k, v)) ms) )
  in
  let arr items =
    (Json.arr (List.map fst items), Json.Array (List.map snd items))
  in
  let value =
    sized
      (fix (fun self n ->
           let nested = self (n / 4) in
           if n <= 1 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map arr (list_size (int_bound 5) nested));
                 (1, map obj (members nested));
               ]))
  in
  map obj (members value)

let prop_json_obj_arr_roundtrip =
  QCheck.Test.make ~name:"obj and arr roundtrip" ~count:500
    (QCheck.make ~print:fst written_and_expected)
    (fun (text, expected) -> Json.parse text = Ok expected)

(* ---- grid ---- *)

let two_job_grid () =
  Grid.make ~replicate_counts:[ 2; 3 ] [ "genetic_NOT" ]

let quick_spec ?(seed = 11) () =
  Grid.spec ~seed ~total_time:2_000. ~hold_time:1_000. (two_job_grid ())

let test_json_big_ints () =
  (* job seeds are 62-bit, beyond a float's 2^53: ints are written as
     string_of_int text, so a stored document keeps every digit *)
  let spec = quick_spec () in
  let job = List.hd (Grid.expand spec.Grid.grid) in
  let seed = Grid.job_seed ~seed:spec.Grid.seed job in
  checkb "the seed needs more than 53 bits" true (seed > 1 lsl 53);
  List.iter
    (fun i ->
      checks (string_of_int i)
        ({|{"seed":|} ^ string_of_int i ^ "}")
        (Json.obj [ ("seed", string_of_int i) ]))
    [ seed; (1 lsl 53) + 1; max_int; min_int ];
  let doc =
    Glc_engine.Pool.with_pool ~jobs:1 (fun pool ->
        Runner.run_job ~pool ~cache:(Glc_engine.Cache.create ()) spec job)
  in
  checkb "the stored document carries every digit" true
    (contains doc ({|"seed":|} ^ string_of_int seed ^ ","))

let test_grid_expand () =
  let grid =
    Grid.make ~thresholds:[ 10.; 15. ] ~replicate_counts:[ 2 ]
      [ "genetic_NOT"; "genetic_AND" ]
  in
  let jobs = Grid.expand grid in
  checki "size" 4 (Grid.size grid);
  checki "expand matches size" 4 (List.length jobs);
  (* circuits outermost, thresholds inner *)
  checks "first job circuit" "genetic_NOT"
    (List.hd jobs).Grid.j_circuit;
  checkb "circuit order" true
    (List.map (fun j -> j.Grid.j_circuit) jobs
    = [ "genetic_NOT"; "genetic_NOT"; "genetic_AND"; "genetic_AND" ]);
  let ids = List.map Grid.job_id jobs in
  checki "ids distinct" 4 (List.length (List.sort_uniq compare ids));
  (* position-independence: the same parameters give the same id in a
     differently shaped grid *)
  let solo =
    Grid.expand
      (Grid.make ~thresholds:[ 15. ] ~replicate_counts:[ 2 ]
         [ "genetic_AND" ])
  in
  checks "content-derived id" (Grid.job_id (List.hd solo))
    (List.nth ids 3)

let test_grid_seeds () =
  let jobs = Grid.expand (two_job_grid ()) in
  let seeds = List.map (Grid.job_seed ~seed:11) jobs in
  checki "distinct per job" 2 (List.length (List.sort_uniq compare seeds));
  checkb "root seed matters" true
    (Grid.job_seed ~seed:11 (List.hd jobs)
    <> Grid.job_seed ~seed:12 (List.hd jobs));
  checkb "non-negative" true (List.for_all (fun s -> s >= 0) seeds)

let test_grid_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "empty circuits" true (raises (fun () -> Grid.make []));
  checkb "duplicate axis" true
    (raises (fun () -> Grid.make ~thresholds:[ 15.; 15. ] [ "c" ]));
  checkb "non-positive threshold" true
    (raises (fun () -> Grid.make ~thresholds:[ 0. ] [ "c" ]));
  checkb "replicates < 1" true
    (raises (fun () -> Grid.make ~replicate_counts:[ 0 ] [ "c" ]));
  checkb "non-positive time" true
    (raises (fun () -> Grid.spec ~total_time:0. (Grid.make [ "c" ])));
  checkb "infinite threshold" true
    (raises (fun () -> Grid.make ~thresholds:[ infinity ] [ "c" ]));
  checkb "NaN FOV" true (raises (fun () -> Grid.make ~fov_uds:[ nan ] [ "c" ]));
  checkb "FOV above 1" true
    (raises (fun () -> Grid.make ~fov_uds:[ 5. ] [ "c" ]));
  checkb "FOV 1 accepted" false
    (raises (fun () -> Grid.make ~fov_uds:[ 1. ] [ "c" ]));
  (* a stored manifest holding such a value does not load *)
  let manifest fov =
    Printf.sprintf
      {|{"version":1,"seed":1,"total_time":10,"hold_time":1,"grid":{"circuits":["c"],"thresholds":[15],"fov_uds":[%s],"input_highs":[null],"replicate_counts":[2]}}|}
      fov
  in
  checkb "manifest with FOV 0.5 loads" true
    (Result.is_ok (Grid.spec_of_json (manifest "0.5")));
  checkb "manifest with FOV 5 rejected" true
    (Result.is_error (Grid.spec_of_json (manifest "5")));
  checkb "infinite input level" true
    (raises (fun () -> Grid.make ~input_highs:[ Some infinity ] [ "c" ]));
  checkb "infinite time" true
    (raises (fun () -> Grid.spec ~total_time:infinity (Grid.make [ "c" ])));
  checkb "NaN hold time" true
    (raises (fun () -> Grid.spec ~hold_time:nan (Grid.make [ "c" ])))

let test_manifest_roundtrip () =
  let spec = quick_spec () in
  let json = Grid.spec_to_json spec in
  let spec' = Result.get_ok (Grid.spec_of_json json) in
  checks "roundtrip bytes" json (Grid.spec_to_json spec');
  checki "seed survives" spec.Grid.seed spec'.Grid.seed;
  checkb "unknown version rejected" true
    (Result.is_error
       (Grid.spec_of_json
          {|{"version":99,"seed":1,"total_time":10,"hold_time":1,"grid":{}}|}));
  checkb "garbage rejected" true
    (Result.is_error (Grid.spec_of_json "not json"))

(* ---- store ---- *)

let test_store_roundtrip () =
  with_dir (fun dir ->
      let store = Result.get_ok (Store.create ~dir "{\"version\":1}") in
      checkb "create twice refused" true
        (Result.is_error (Store.create ~dir "{}"));
      checkb "absent" true (Store.get store ~id:"a" = None);
      Store.put store ~id:"a" {|{"x": 1}|};
      checks "roundtrip" {|{"x": 1}|}
        (Option.get (Store.get store ~id:"a"));
      Store.put store ~id:"a" {|{"x": 2}|};
      checks "overwrite" {|{"x": 2}|}
        (Option.get (Store.get store ~id:"a"));
      let store', manifest = Result.get_ok (Store.load ~dir) in
      checks "manifest preserved" "{\"version\":1}" manifest;
      checkb "reload sees results" true (Store.mem store' ~id:"a"))

let test_store_crash_safety () =
  with_dir (fun dir ->
      let store = Result.get_ok (Store.create ~dir "{}") in
      Store.put store ~id:"good" {|{"ok": true}|};
      let results = Filename.concat dir "results" in
      (* a torn write: truncated JSON must read as absent, not corrupt *)
      write_file (Filename.concat results "torn.json") {|{"ok": tr|};
      (* a leftover temp file from a killed writer must be invisible *)
      write_file
        (Filename.concat results "tmpjob.json.12345.tmp")
        {|{"ok": true}|};
      checkb "torn result reads as absent" true
        (Store.get store ~id:"torn" = None);
      checkb "temp leftovers invisible" true
        (Store.get store ~id:"tmpjob" = None);
      checkb "completed lists only parseable results" true
        (Store.completed store = [ "good" ]))

let test_store_failed_put_cleans_up () =
  (* rename onto a directory fails: the put must raise and must not
     leave its temp file behind in results/ *)
  with_dir (fun dir ->
      let store = Result.get_ok (Store.create ~dir "{}") in
      Unix.mkdir (Store.result_path store ~id:"squatted") 0o755;
      (match Store.put store ~id:"squatted" {|{"ok": true}|} with
      | () -> Alcotest.fail "put onto a directory must raise"
      | exception Unix.Unix_error _ -> ());
      let leftovers =
        Sys.readdir (Filename.concat dir "results")
        |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".tmp")
      in
      Alcotest.(check (list string)) "no temp file left" [] leftovers)

let test_store_file_paths () =
  (* a directory path that is a regular file is a typed Error from
     every entry point that creates the directory, not a Unix_error *)
  with_dir (fun dir ->
      Store.mkdir_p dir;
      let file = Filename.concat dir "F" in
      write_file file "";
      checkb "create" true (Result.is_error (Store.create ~dir:file "{}"));
      checkb "open_or_create" true
        (Result.is_error (Store.open_or_create ~dir:file "{}"));
      checkb "lock" true (Result.is_error (Store.Lock.acquire ~dir:file));
      checkb "below the file" true
        (Result.is_error (Store.create ~dir:(Filename.concat file "d") "{}"));
      (* a drain whose journal path is a directory fails the same way,
         after the lock is taken, and releases the lock *)
      let campaign = Filename.concat dir "c" in
      ignore
        (Result.get_ok
           (Store.create ~dir:campaign (Grid.spec_to_json (quick_spec ()))));
      Store.mkdir_p (Filename.concat campaign "journal.jsonl");
      checkb "journal" true (Result.is_error (Resume.run ~dir:campaign ()));
      checkb "lock released" false
        (Sys.file_exists (Store.Lock.path ~dir:campaign)))

(* A finished two-job campaign whose first result path is then taken
   by a directory. *)
let with_squatted_result f =
  with_dir (fun dir ->
      let spec = quick_spec () in
      ignore (Result.get_ok (Store.create ~dir (Grid.spec_to_json spec)));
      ignore (Result.get_ok (Resume.run ~dir ()));
      let store, spec = Result.get_ok (Resume.load ~dir) in
      let id = Grid.job_id (List.hd (Grid.expand spec.Grid.grid)) in
      let path = Store.result_path store ~id in
      Sys.remove path;
      Unix.mkdir path 0o755;
      f dir store spec id)

let test_store_squatted_result () =
  (* a result path that cannot be read counts as absent, like one that
     does not parse *)
  with_squatted_result (fun _ store spec id ->
      checkb "get" true (Store.get store ~id = None);
      checkb "mem" false (Store.mem store ~id);
      let line =
        List.find (fun l -> l.Store.l_id = id) (Store.lines store spec)
      in
      checkb "line missing" false line.Store.l_done)

(* ---- journal ---- *)

let test_journal_roundtrip () =
  with_dir (fun dir ->
      let j = Journal.open_ ~dir in
      Journal.append j (Journal.Scheduled "a");
      Journal.append j (Journal.Started "a");
      Journal.append j (Journal.Failed ("a", "boom: \"quoted\"\nline"));
      Journal.append j (Journal.Done "a");
      Journal.close j;
      Journal.close j;
      (* idempotent *)
      let events = Journal.read ~dir in
      checki "all records back" 4 (List.length events);
      checkb "order and payload preserved" true
        (events
        = [
            Journal.Scheduled "a"; Journal.Started "a";
            Journal.Failed ("a", "boom: \"quoted\"\nline");
            Journal.Done "a";
          ]);
      (* append after close must raise, not write through a dead fd *)
      checkb "append after close raises" true
        (match Journal.append j (Journal.Done "b") with
        | exception Invalid_argument _ -> true
        | () -> false))

let test_journal_partial_tail () =
  with_dir (fun dir ->
      let j = Journal.open_ ~dir in
      Journal.append j (Journal.Done "a");
      Journal.close j;
      (* simulate a crash mid-append: raw partial record, no newline *)
      let path = Filename.concat dir "journal.jsonl" in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 path
      in
      output_string oc {|{"event":"done","job":"b|};
      close_out oc;
      let events = Journal.read ~dir in
      checki "partial trailing line dropped" 1 (List.length events);
      checkb "acknowledged record intact" true
        (events = [ Journal.Done "a" ]);
      (* a later append lands on its own line *)
      let j = Journal.open_ ~dir in
      Journal.append j (Journal.Done "c");
      Journal.close j;
      checkb "journal usable after crash tail" true
        (List.mem (Journal.Done "c") (Journal.read ~dir)))

(* ---- runner: failure capture ---- *)

let test_runner_captures_failures () =
  with_dir (fun dir ->
      let grid =
        Grid.make ~replicate_counts:[ 2 ]
          [ "no_such_circuit"; "genetic_NOT" ]
      in
      let spec =
        Grid.spec ~seed:11 ~total_time:2_000. ~hold_time:1_000. grid
      in
      let store =
        Result.get_ok (Store.create ~dir (Grid.spec_to_json spec))
      in
      let journal = Journal.open_ ~dir in
      let summary =
        Runner.run ~store ~journal spec
          (List.map (fun j -> (j, None)) (Grid.expand spec.Grid.grid))
      in
      Journal.close journal;
      checki "both attempted" 2 summary.Runner.ran;
      checki "one failed" 1 summary.Runner.failed;
      checki "one succeeded" 1 summary.Runner.succeeded;
      (* the failed job leaves no store entry, so resume re-queues it *)
      checki "only the good job stored" 1
        (List.length (Store.completed store));
      let bad_id =
        Grid.job_id (List.hd (Grid.expand spec.Grid.grid))
      in
      checkb "failure journaled with its error" true
        (List.exists
           (function
             | Journal.Failed (id, _) -> id = bad_id
             | _ -> false)
           (Journal.read ~dir));
      let st = Result.get_ok (Resume.status ~dir) in
      checki "status: failed job pending again" 1
        (List.length st.Resume.s_pending))

(* An ensemble in which no replicate completes is no result. The job is
   built directly, past Grid.make's FOV check: genetic_NAND keeps one
   row undecided, so it simulates, and the analyser rejects FOV_UD 5 in
   every replicate. *)
let test_runner_no_replicate_completes () =
  with_dir (fun dir ->
      let spec =
        Grid.spec ~seed:11 ~total_time:4_000. ~hold_time:1_000.
          (Grid.make ~replicate_counts:[ 2 ] [ "genetic_NAND" ])
      in
      let job =
        {
          Grid.j_circuit = "genetic_NAND";
          j_threshold = 15.;
          j_fov_ud = 5.;
          j_input_high = None;
          j_replicates = 2;
        }
      in
      let store =
        Result.get_ok (Store.create ~dir (Grid.spec_to_json spec))
      in
      let journal = Journal.open_ ~dir in
      let summary = Runner.run ~store ~journal spec [ (job, None) ] in
      Journal.close journal;
      checki "the job failed" 1 summary.Runner.failed;
      checki "nothing stored" 0 (List.length (Store.completed store));
      checkb "failure journaled with its error" true
        (List.exists
           (function
             | Journal.Failed (id, e) ->
                 id = Grid.job_id job && contains e "all replicates failed"
             | _ -> false)
           (Journal.read ~dir)))

(* ---- the headline contract: kill + resume == uninterrupted ---- *)

let started_ids ~dir =
  List.filter_map
    (function Journal.Started id -> Some id | _ -> None)
    (Journal.read ~dir)

let test_resume_determinism () =
  with_dir (fun uninterrupted ->
      with_dir (fun killed ->
          let spec = quick_spec () in
          let manifest = Grid.spec_to_json spec in
          let jobs = Grid.expand spec.Grid.grid in
          checki "two jobs" 2 (List.length jobs);
          (* reference: an uninterrupted run of the whole campaign *)
          ignore
            (Result.get_ok (Store.create ~dir:uninterrupted manifest));
          let _, _, s0 =
            Result.get_ok (Resume.run ~dir:uninterrupted ())
          in
          checki "uninterrupted runs everything" 2 s0.Runner.succeeded;
          let ref_store, ref_spec =
            Result.get_ok (Resume.load ~dir:uninterrupted)
          in
          let reference = Store.report_json ref_store ref_spec in
          (* the same campaign, killed after one job: limit=1 plays the
             role of the kill *)
          ignore (Result.get_ok (Store.create ~dir:killed manifest));
          let _, _, s1 =
            Result.get_ok (Resume.run ~limit:1 ~dir:killed ())
          in
          checki "first run attempts one job" 1 s1.Runner.ran;
          checki "one job remains" 1 s1.Runner.remaining;
          let first_batch = started_ids ~dir:killed in
          checki "journal: one start so far" 1 (List.length first_batch);
          (* resume: must run exactly the n-k remaining jobs *)
          let _, _, s2 = Result.get_ok (Resume.run ~dir:killed ()) in
          checki "resume attempts only the missing job" 1 s2.Runner.ran;
          checki "resume completes the campaign" 0 s2.Runner.remaining;
          let all_started = started_ids ~dir:killed in
          checki "journal: two starts total" 2 (List.length all_started);
          checki "no job started twice" 2
            (List.length (List.sort_uniq compare all_started));
          (* and nothing pends on a third pass *)
          let _, _, s3 = Result.get_ok (Resume.run ~dir:killed ()) in
          checki "idempotent once complete" 0 s3.Runner.ran;
          (* the contract: byte-identical reports *)
          let store, spec' = Result.get_ok (Resume.load ~dir:killed) in
          checks "resumed report byte-identical" reference
            (Store.report_json store spec');
          (* and byte-identical per-job documents *)
          List.iter
            (fun job ->
              let id = Grid.job_id job in
              checks
                (Printf.sprintf "job %s document identical" id)
                (Option.get (Store.get ref_store ~id))
                (Option.get (Store.get store ~id)))
            jobs))

(* ---- the store lock (single-writer discipline) ---- *)

let test_lock_exclusion () =
  with_dir (fun dir ->
      Store.mkdir_p dir;
      let lock = Result.get_ok (Store.Lock.acquire ~dir) in
      (match Store.Lock.acquire ~dir with
      | Ok _ -> Alcotest.fail "second acquire must fail"
      | Error m ->
          checkb "error names the holder pid" true
            (contains m (string_of_int (Unix.getpid ()))));
      Store.Lock.release lock;
      Store.Lock.release lock (* idempotent *);
      let lock2 = Result.get_ok (Store.Lock.acquire ~dir) in
      Store.Lock.release lock2)

let test_lock_breaks_stale () =
  with_dir (fun dir ->
      Store.mkdir_p dir;
      (* a pid that cannot be live: max_pid defaults to 2^22 on linux,
         and 0x3FFFFFFF is far above any configurable ceiling *)
      write_file (Store.Lock.path ~dir) "1073741823\n";
      let lock = Result.get_ok (Store.Lock.acquire ~dir) in
      Store.Lock.release lock;
      (* unparseable content is also treated as stale *)
      write_file (Store.Lock.path ~dir) "not a pid";
      let lock2 = Result.get_ok (Store.Lock.acquire ~dir) in
      Store.Lock.release lock2)

let test_resume_holds_lock () =
  with_dir (fun dir ->
      let spec = quick_spec () in
      ignore (Result.get_ok (Store.create ~dir (Grid.spec_to_json spec)));
      (* a held lock must make the drain fail cleanly, not corrupt *)
      let lock = Result.get_ok (Store.Lock.acquire ~dir) in
      checkb "drain refuses a locked dir" true
        (Result.is_error (Resume.run ~dir ()));
      Store.Lock.release lock;
      let _, _, s = Result.get_ok (Resume.run ~dir ()) in
      checki "drain runs after release" 2 s.Runner.succeeded;
      checkb "lock released after drain" true
        (not (Sys.file_exists (Store.Lock.path ~dir))))

(* ---- graceful interruption (should_stop) ---- *)

let test_runner_should_stop () =
  with_dir (fun dir ->
      let spec = quick_spec () in
      ignore (Result.get_ok (Store.create ~dir (Grid.spec_to_json spec)));
      (* stop after the first job: the flag flips once a job has run *)
      let ran_one = ref false in
      let _, _, s =
        Result.get_ok
          (Resume.run
             ~should_stop:(fun () ->
               let stop = !ran_one in
               ran_one := true;
               stop)
             ~dir ())
      in
      checki "one job ran" 1 s.Runner.ran;
      checki "one job remains" 1 s.Runner.remaining;
      (* the journal is intact and a plain resume finishes the rest *)
      checkb "journal parseable" true (Journal.read ~dir <> []);
      let _, _, s2 = Result.get_ok (Resume.run ~dir ()) in
      checki "resume finishes the remainder" 1 s2.Runner.ran;
      checki "nothing remains" 0 s2.Runner.remaining)

(* ---- kill-and-inspect: SIGINT against the real CLI ---- *)

let glcv_exe = Filename.concat (Sys.getcwd ()) "../bin/glcv.exe"

(* stdout and stderr go to [out], /dev/null by default *)
let spawn_glcv ?out args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out = Option.value out ~default:devnull in
  let pid =
    Unix.create_process glcv_exe
      (Array.of_list (glcv_exe :: args))
      devnull out out
  in
  Unix.close devnull;
  pid

let exit_code = function
  | _, Unix.WEXITED code -> code
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1

let run_glcv ?(kill_after : float option) args =
  let pid = spawn_glcv args in
  (match kill_after with
  | None -> ()
  | Some dt ->
      ignore (Unix.select [] [] [] dt);
      (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ()));
  exit_code (Unix.waitpid [] pid)

(* The exit code, or -1 for a run still going after [limit] seconds,
   which is killed: a hang fails the test instead of stalling it. *)
let run_glcv_within ~limit args =
  let pid = spawn_glcv args in
  let deadline = Unix.gettimeofday () +. limit in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.02);
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        -1
    | r -> exit_code r
  in
  wait ()

let test_cli_non_finite_numbers () =
  (* cmdliner's float parser accepts inf and nan, which pass sign
     checks: an infinite --total never ends a run, an infinite
     --threshold still yields a verdict. Each is a usage error (124);
     the time limit turns a hang into a failure. *)
  List.iter
    (fun args ->
      checki (String.concat " " args) 124 (run_glcv_within ~limit:5. args))
    [
      [ "simulate"; "0x17"; "--total"; "inf" ];
      [
        "ensemble"; "genetic_NOT"; "--total"; "inf"; "--replicates"; "2";
        "--no-lint";
      ];
      [ "verify"; "0x17"; "--total"; "inf"; "--no-lint" ];
      [ "verify"; "0x17"; "--threshold"; "inf" ];
    ]

let test_cli_squatted_result () =
  (* an incomplete campaign (exit 3), not an uncaught Sys_error (125) *)
  with_squatted_result (fun dir _ _ _ ->
      List.iter
        (fun cmd ->
          checki cmd 3 (run_glcv [ "campaign"; cmd; "--dir"; dir ]))
        [ "status"; "report" ])

let test_cli_verify_no_certify_metrics () =
  with_dir (fun dir ->
      Store.mkdir_p dir;
      let file = Filename.concat dir "m.json" in
      checki "exit" 0
        (run_glcv
           [ "verify"; "genetic_NOT"; "--no-certify"; "--metrics"; file ]);
      checkb "export written" true (Sys.file_exists file);
      let doc =
        Result.get_ok
          (Json.parse (In_channel.with_open_bin file In_channel.input_all))
      in
      let runs =
        Option.bind (Json.member doc "deterministic") (fun d ->
            Option.bind (Json.member d "counters") (fun c ->
                Json.int_field c "ssa.runs.direct"))
      in
      checki "ssa.runs.direct" 1 (Option.get runs))

let test_cli_sigint_campaign () =
  with_dir (fun dir ->
      (* enough replicate mass that 0.4 s lands mid-drain *)
      let args =
        [
          "campaign"; "run"; "--dir"; dir; "-c"; "genetic_NOT";
          "--replicates"; "8,10,12,14,16,18"; "--total"; "2000";
          "--hold"; "1000";
        ]
      in
      let code = run_glcv ~kill_after:0.4 args in
      if code = 130 then begin
        (* interrupted: the journal survived and is parseable, and a
           plain resume completes the campaign *)
        checkb "journal parseable after SIGINT" true
          (Journal.read ~dir <> []);
        let resume_code =
          run_glcv [ "campaign"; "resume"; "--dir"; dir ]
        in
        checki "resume completes cleanly" 0 resume_code;
        let store, spec = Result.get_ok (Resume.load ~dir) in
        checkb "every job done after resume" true
          (List.for_all
             (fun l -> l.Store.l_done)
             (Store.lines store spec))
      end
      else
        (* the machine raced ahead and finished before the signal;
           that is a pass for the exit-code contract, not a failure *)
        checki "finished before the signal" 0 code)

(* ---- one exit-code contract, over every command ---- *)

(* glcv's exit code, with its stdout and stderr *)
let run_glcv_output args =
  let file = Filename.temp_file "glcv" ".out" in
  let out = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = spawn_glcv ~out args in
  Unix.close out;
  let code = exit_code (Unix.waitpid [] pid) in
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (code, text)

(* what every --help says of 123 and 124, whitespace collapsed *)
let exit_rule =
  [
    "123 on an unknown option or command, a missing or surplus argument";
    "124 when a value fails its option's parser";
  ]

let words s =
  String.concat " "
    (List.filter (( <> ) "")
       (String.split_on_char ' '
          (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))

(* One row per command: its words, then argument lists that must exit
   124 (a bad value; an unknown CIRCUIT), and one cheap invocation that
   must exit 0. The same invocation with an unknown option appended must
   exit 123. Rows run in order: later rows read the directories earlier
   ones made. *)
let exit_table dir =
  let d name = Filename.concat dir name in
  let model = "../models/genetic_NOT.sbml.xml" in
  let quick = [ "--total"; "2000"; "--hold"; "1000" ] in
  let c = [ "--dir"; d "c" ] and s = [ "--dir"; d "s" ] in
  [
    ([ "list" ], [], [ "list" ]);
    ( [ "lint" ],
      [ [ "lint"; "--threshold"; "inf"; model ] ],
      [ "lint"; model ] );
    ([ "synth" ], [ [ "synth"; "0xZZ" ] ], [ "synth"; "genetic_NOT" ]);
    ( [ "simulate" ],
      [ [ "simulate"; "genetic_NOT"; "--hold"; "0" ]; [ "simulate"; "0xZZ" ] ],
      [ "simulate"; "genetic_NOT"; "--total"; "200"; "--hold"; "100" ] );
    ( [ "analyze" ],
      [ [ "analyze"; "genetic_NOT"; "-t"; "0" ]; [ "analyze"; "0xZZ" ] ],
      "analyze" :: "genetic_NOT" :: quick );
    ( [ "verify" ],
      [
        [ "verify"; "genetic_NOT"; "--total=-1" ];
        [ "verify"; "genetic_NOT"; "--fov"; "5" ]; [ "verify"; "0xZZ" ];
        [ "verify"; "--all"; "0xZZ" ];
      ],
      [ "verify"; "genetic_NOT" ] );
    ( [ "certify" ],
      [
        [ "certify"; "genetic_NOT"; "-t"; "0" ];
        [ "certify"; "genetic_NOT"; "--margin=-1" ];
        [ "certify"; "0xZZ" ];
      ],
      [ "certify"; "genetic_NOT" ] );
    ( [ "ensemble" ],
      [
        [ "ensemble"; "genetic_NOT"; "--hold=0"; "-n"; "2" ];
        [ "ensemble"; "0xZZ" ];
      ],
      [ "ensemble"; "genetic_NOT"; "-n"; "2"; "--jobs"; "1" ] @ quick );
    ( [ "threshold" ],
      [
        [ "threshold"; "genetic_NOT"; "--hold"; "0" ]; [ "threshold"; "0xZZ" ];
      ],
      "threshold" :: "genetic_NOT" :: quick );
    ( [ "delay" ],
      [ [ "delay"; "genetic_NOT"; "-t"; "0" ]; [ "delay"; "0xZZ" ] ],
      [ "delay"; "genetic_NOT" ] );
    ([ "export" ], [], [ "export"; "--dir"; d "models" ]);
    ( [ "vcd" ],
      [ [ "vcd"; "genetic_NOT"; "-t"; "0" ]; [ "vcd"; "0xZZ" ] ],
      [ "vcd"; "genetic_NOT"; "-o"; d "x.vcd" ] @ quick );
    ( [ "probe" ],
      [ [ "probe"; "genetic_NOT"; "-t"; "0" ]; [ "probe"; "0xZZ" ] ],
      "probe" :: "genetic_NOT" :: quick );
    ( [ "sweep" ],
      [
        [ "sweep"; "genetic_NOT"; "--thresholds"; "15,0" ]; [ "sweep"; "0xZZ" ];
      ],
      [ "sweep"; "genetic_NOT"; "--thresholds"; "15" ] @ quick );
    ( [ "robustness" ],
      [
        [ "robustness"; "genetic_NOT"; "--trials"; "0" ];
        [ "robustness"; "genetic_NOT"; "--spread=-1" ];
        [ "robustness"; "0xZZ" ];
      ],
      [ "robustness"; "genetic_NOT"; "--trials"; "1" ] @ quick );
    ( [ "campaign"; "run" ],
      [
        [ "campaign"; "run"; "--hold"; "0"; "-c"; "genetic_NOT" ] @ c;
        [ "campaign"; "run"; "-c"; "0xZZ" ] @ c;
      ],
      [ "campaign"; "run"; "-c"; "genetic_NOT"; "--replicates"; "2" ]
      @ c @ quick );
    ( [ "campaign"; "resume" ],
      [ [ "campaign"; "resume"; "--jobs"; "x" ] @ c ],
      [ "campaign"; "resume" ] @ c );
    ([ "campaign"; "status" ], [], [ "campaign"; "status" ] @ c);
    ([ "campaign"; "report" ], [], [ "campaign"; "report" ] @ c);
    ( [ "space"; "run" ],
      [ [ "space"; "run"; "--hold"; "0" ] @ s ],
      [
        "space"; "run"; "--inputs"; "2"; "--sample"; "2"; "--replicates"; "2";
        "--total"; "4000"; "--hold"; "1000"; "--jobs"; "1";
      ]
      @ s );
    ([ "space"; "status" ], [], [ "space"; "status" ] @ s);
    ([ "space"; "report" ], [], [ "space"; "report" ] @ s);
  ]

let check_exit what expected args =
  let code, text = run_glcv_output args in
  if code <> expected then
    Alcotest.failf "%s: `glcv %s` exited %d, not %d:\n%s" what
      (String.concat " " args) code expected text

let check_help cmd =
  let code, text = run_glcv_output (cmd @ [ "--help=plain" ]) in
  checki (String.concat " " cmd ^ " --help") 0 code;
  List.iter
    (fun rule ->
      if not (contains (words text) rule) then
        Alcotest.failf "`glcv %s --help` does not say %S"
          (String.concat " " cmd) rule)
    exit_rule

(* the client commands need a daemon: one is started on a short
   protocol, driven, and stopped with SIGTERM, which must exit 0 *)
let check_daemon_exits dir =
  let sock = Filename.concat dir "s.sock" in
  let at = [ "--socket"; sock ] in
  let serve = [ "serve"; "--state"; Filename.concat dir "st" ] @ at in
  let quick = [ "--total"; "5000"; "--hold"; "1000" ] in
  List.iter check_help
    [ [ "serve" ]; [ "submit" ]; [ "status" ]; [ "result" ]; [ "scrape" ] ];
  List.iter
    (fun args -> check_exit "unknown option" 123 (args @ [ "--bogus" ]))
    [
      serve; [ "submit"; "genetic_NOT" ] @ at; [ "status" ] @ at;
      [ "result"; "x" ] @ at; [ "scrape" ] @ at;
    ];
  List.iter
    (check_exit "bad value" 124)
    [
      serve @ [ "--hold"; "0" ]; [ "submit"; "genetic_NOT"; "-t"; "0" ] @ at;
      [ "submit"; "0xZZ" ] @ at; [ "result"; "x"; "--timeout"; "inf" ] @ at;
    ];
  let pid = spawn_glcv (serve @ quick) in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Unix.kill pid Sys.sigterm;
      exit_code (Unix.waitpid [] pid)
    end
    else 0
  in
  Fun.protect ~finally:(fun () -> ignore (stop ())) (fun () ->
      let rec wait_up n =
        if fst (run_glcv_output ([ "status" ] @ at)) <> 0 then
          if n = 0 then Alcotest.fail "the daemon did not come up"
          else begin
            ignore (Unix.select [] [] [] 0.05);
            wait_up (n - 1)
          end
      in
      wait_up 100;
      let code, ack =
        run_glcv_output ([ "submit"; "genetic_NOT"; "--wait" ] @ at)
      in
      checki "submit --wait" 0 code;
      let key = "\"id\":\"" in
      let rec find i =
        if String.sub ack i (String.length key) = key then i + String.length key
        else find (i + 1)
      in
      let start = find 0 in
      let id = String.sub ack start (String.index_from ack start '"' - start) in
      List.iter (check_exit "success" 0)
        [ [ "result"; id ] @ at; [ "status" ] @ at; [ "scrape" ] @ at ];
      checki "serve after SIGTERM" 0 (stop ()))

let test_cli_exit_codes () =
  with_dir (fun dir ->
      Store.mkdir_p dir;
      check_help [];
      check_exit "unknown command" 123 [ "bogus" ];
      check_exit "unknown command" 123
        [ "space"; "evolve"; "0x80"; "--dir"; Filename.concat dir "e" ];
      List.iter
        (fun (cmd, bad, ok) ->
          check_help cmd;
          check_exit "unknown option" 123 (ok @ [ "--bogus" ]);
          List.iter (check_exit "bad value" 124) bad;
          check_exit "success" 0 ok)
        (exit_table dir);
      check_daemon_exits dir)

let test_report_counts_missing () =
  with_dir (fun dir ->
      let spec = quick_spec () in
      ignore
        (Result.get_ok (Store.create ~dir (Grid.spec_to_json spec)));
      let _, _, _ = Result.get_ok (Resume.run ~limit:1 ~dir ()) in
      let store, spec' = Result.get_ok (Resume.load ~dir) in
      let report = Result.get_ok (Json.parse (Store.report_json store spec')) in
      let totals = Option.get (Json.member report "totals") in
      let count k =
        Option.get (Option.bind (Json.member totals k) Json.to_int)
      in
      checki "jobs" 2 (count "jobs");
      checki "done" 1 (count "done");
      checki "missing" 1 (count "missing");
      let lines = Store.lines store spec' in
      checki "one line not done" 1
        (List.length (List.filter (fun l -> not l.Store.l_done) lines)))

let () =
  Alcotest.run "glc_campaign"
    [
      ( "json",
        [
          Alcotest.test_case "values" `Quick test_json_parse_values;
          Alcotest.test_case "rejects malformed" `Quick
            test_json_parse_rejects;
          Alcotest.test_case "float roundtrip" `Quick
            test_json_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_obj_arr_roundtrip;
          Alcotest.test_case "ints beyond 2^53 keep every digit" `Quick
            test_json_big_ints;
        ] );
      ( "grid",
        [
          Alcotest.test_case "deterministic expansion" `Quick
            test_grid_expand;
          Alcotest.test_case "job seeds" `Quick test_grid_seeds;
          Alcotest.test_case "validation" `Quick test_grid_validation;
          Alcotest.test_case "manifest roundtrip" `Quick
            test_manifest_roundtrip;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "crash safety" `Quick test_store_crash_safety;
          Alcotest.test_case "failed put leaves no temp file" `Quick
            test_store_failed_put_cleans_up;
          Alcotest.test_case "paths that are files are errors" `Quick
            test_store_file_paths;
          Alcotest.test_case "a directory result is absent" `Quick
            test_store_squatted_result;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "partial trailing line" `Quick
            test_journal_partial_tail;
        ] );
      ( "lock",
        [
          Alcotest.test_case "mutual exclusion" `Quick test_lock_exclusion;
          Alcotest.test_case "stale lock broken" `Quick
            test_lock_breaks_stale;
          Alcotest.test_case "drain takes the lock" `Slow
            test_resume_holds_lock;
        ] );
      ( "runner",
        [
          Alcotest.test_case "failure capture" `Quick
            test_runner_captures_failures;
          Alcotest.test_case "no replicate completes" `Quick
            test_runner_no_replicate_completes;
          Alcotest.test_case "graceful stop between jobs" `Slow
            test_runner_should_stop;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill + resume determinism" `Slow
            test_resume_determinism;
          Alcotest.test_case "report counts missing jobs" `Quick
            test_report_counts_missing;
          Alcotest.test_case "SIGINT exits 130 and resumes" `Slow
            test_cli_sigint_campaign;
        ] );
      ( "cli",
        [
          Alcotest.test_case "non-finite numbers are usage errors" `Quick
            test_cli_non_finite_numbers;
          Alcotest.test_case "a directory result exits 3" `Quick
            test_cli_squatted_result;
          Alcotest.test_case "verify --no-certify writes --metrics" `Quick
            test_cli_verify_no_certify_metrics;
          Alcotest.test_case "one exit-code contract" `Quick
            test_cli_exit_codes;
        ] );
    ]
