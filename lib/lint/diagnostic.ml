type severity = Error | Warning | Info

type subject =
  | Model of string
  | Species of string
  | Reaction of string
  | Parameter of string
  | Protein of string
  | Promoter of string
  | Net of string
  | Circuit of string
  | Protocol of string
  | Document of string
  | File of string

type t = {
  code : string;
  severity : severity;
  subject : subject;
  message : string;
}

let make ~code ~severity ~subject message =
  { code; severity; subject; message }

let severity_label = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let subject_kind = function
  | Model _ -> "model"
  | Species _ -> "species"
  | Reaction _ -> "reaction"
  | Parameter _ -> "parameter"
  | Protein _ -> "protein"
  | Promoter _ -> "promoter"
  | Net _ -> "net"
  | Circuit _ -> "circuit"
  | Protocol _ -> "protocol"
  | Document _ -> "document"
  | File _ -> "file"

let subject_id = function
  | Model id | Species id | Reaction id | Parameter id | Protein id
  | Promoter id | Net id | Circuit id | Protocol id | Document id
  | File id ->
      id

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      let c = String.compare (subject_kind a.subject) (subject_kind b.subject) in
      if c <> 0 then c
      else
        let c = String.compare (subject_id a.subject) (subject_id b.subject) in
        if c <> 0 then c
        else String.compare a.message b.message

let errors ds = List.length (List.filter (fun d -> d.severity = Error) ds)

let warnings ds =
  List.length (List.filter (fun d -> d.severity = Warning) ds)

let exit_code ds =
  if List.exists (fun d -> d.severity = Error) ds then 2
  else if List.exists (fun d -> d.severity = Warning) ds then 1
  else 0

let pp ppf d =
  Format.fprintf ppf "%s %s [%s %s]: %s" (severity_label d.severity) d.code
    (subject_kind d.subject) (subject_id d.subject) d.message

let json_string = Glc_obs.Metrics.json_string

let to_json d =
  Printf.sprintf
    "{\"code\":%s,\"severity\":%s,\"subject\":{\"kind\":%s,\"id\":%s},\"message\":%s}"
    (json_string d.code)
    (json_string (severity_label d.severity))
    (json_string (subject_kind d.subject))
    (json_string (subject_id d.subject))
    (json_string d.message)

let list_to_json ds = "[" ^ String.concat "," (List.map to_json ds) ^ "]"
