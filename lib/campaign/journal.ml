module Json = Glc_core.Report.Json

type event =
  | Scheduled of string
  | Started of string
  | Done of string
  | Failed of string * string

let file_name = "journal.jsonl"
let path ~dir = Filename.concat dir file_name

type t = { fd : Unix.file_descr; mutable closed : bool }

(* true when the file is non-empty and does not end in '\n' — the
   signature of a crash mid-append *)
let dangling_tail fd =
  let size = (Unix.fstat fd).Unix.st_size in
  size > 0
  &&
  let _ = Unix.lseek fd (size - 1) Unix.SEEK_SET in
  let last = Bytes.create 1 in
  Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n'

let open_ ~dir =
  Store.mkdir_p dir;
  let fd =
    Unix.openfile (path ~dir)
      [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  (* terminate a partial record left by a crash so the next append
     starts on a fresh line; read already ignores the junk line *)
  if dangling_tail fd then
    ignore (Unix.write_substring fd "\n" 0 1);
  { fd; closed = false }

let event_to_json = function
  | Scheduled id ->
      Printf.sprintf "{\"event\":\"scheduled\",\"job\":%s}" (Json.string id)
  | Started id ->
      Printf.sprintf "{\"event\":\"started\",\"job\":%s}" (Json.string id)
  | Done id ->
      Printf.sprintf "{\"event\":\"done\",\"job\":%s}" (Json.string id)
  | Failed (id, error) ->
      Printf.sprintf "{\"event\":\"failed\",\"job\":%s,\"error\":%s}"
        (Json.string id) (Json.string error)

let append t event =
  if t.closed then invalid_arg "Journal.append: closed";
  let line = event_to_json event ^ "\n" in
  let n = String.length line in
  let written = ref 0 in
  while !written < n do
    written :=
      !written + Unix.write_substring t.fd line !written (n - !written)
  done;
  (* fsync per record: a killed process loses at most the events of
     jobs that were in flight, never an acknowledged one *)
  Unix.fsync t.fd

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end

let event_of_json line =
  match Json.parse line with
  | Error _ -> None
  | Ok v -> (
      let str name = Option.bind (Json.member v name) Json.to_str in
      match (str "event", str "job") with
      | Some "scheduled", Some id -> Some (Scheduled id)
      | Some "started", Some id -> Some (Started id)
      | Some "done", Some id -> Some (Done id)
      | Some "failed", Some id ->
          Some (Failed (id, Option.value ~default:"" (str "error")))
      | _ -> None)

let read ~dir =
  let p = path ~dir in
  if not (Sys.file_exists p) then []
  else begin
    let ic = open_in_bin p in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (* only newline-terminated records count: a crash mid-append leaves
       a partial last line, which must not parse as an event *)
    let lines = String.split_on_char '\n' text in
    let rec complete = function
      | [] | [ _ ] -> []  (* the tail after the last '\n' (or "") *)
      | line :: rest -> line :: complete rest
    in
    List.filter_map event_of_json (complete lines)
  end
