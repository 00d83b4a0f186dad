module Json = Glc_obs.Json

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

let event_to_json event =
  let fields name id =
    [ ("event", Json.string name); ("job", Json.string id) ]
  in
  Json.obj
    (match event with
    | Scheduled id -> fields "scheduled" id
    | Started id -> fields "started" id
    | Done id -> fields "done" id
    | Failed (id, error) ->
        fields "failed" id @ [ ("error", Json.string error) ])

let append t event =
  if t.closed then invalid_arg "Journal.append: closed";
  Store.write_all t.fd (event_to_json event ^ "\n");
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
      let str = Json.str_field v in
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
    let text = In_channel.with_open_bin p In_channel.input_all in
    (* only newline-terminated records count: a crash mid-append leaves
       a partial last line, which must not parse as an event *)
    let lines = String.split_on_char '\n' text in
    let rec complete = function
      | [] | [ _ ] -> []  (* the tail after the last '\n' (or "") *)
      | line :: rest -> line :: complete rest
    in
    List.filter_map event_of_json (complete lines)
  end
