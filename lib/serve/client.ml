module W = Protocol_wire
module Json = Glc_obs.Json
module Store = Glc_campaign.Store

type t = { socket : string }

let connect ~socket = { socket }

let request t req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot connect to %s: %s" t.socket
               (Unix.error_message e))
      | () -> (
          (try Store.write_all fd (W.render_request req)
           with Unix.Unix_error (e, _, _) -> failwith (Unix.error_message e));
          match W.read_response (W.fd_reader fd) with
          | Ok resp -> Ok resp
          | Error m -> Error (Printf.sprintf "malformed response: %s" m)))

let request t req = try request t req with Failure m -> Error m

let get t target =
  request t { W.meth = W.GET; target; headers = []; body = "" }

let submit ?threshold ?fov_ud ?input_high ?replicates ?priority t ~circuit =
  let number = Option.map Json.float and int = Option.map string_of_int in
  let body =
    Json.obj
      (("circuit", Json.string circuit)
      :: List.filter_map
           (fun (k, v) -> Option.map (fun v -> (k, v)) v)
           [
             ("threshold", number threshold);
             ("fov_ud", number fov_ud);
             ("input_high", number input_high);
             ("replicates", int replicates);
             ("priority", int priority);
           ])
  in
  request t
    {
      W.meth = W.POST;
      target = "/v1/jobs";
      headers = [ ("content-type", "application/json") ];
      body;
    }

let status t ~id = get t ("/v1/jobs/" ^ id)

let list_jobs t = get t "/v1/jobs"

let result ?(wait = false) ?(timeout_s = 300.) t ~id =
  let target = "/v1/jobs/" ^ id ^ "/result" in
  if not wait then get t target
  else begin
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec poll () =
      match get t target with
      | Error _ as e -> e
      | Ok resp when resp.W.status <> 409 -> Ok resp
      | Ok resp ->
          if Unix.gettimeofday () >= deadline then Ok resp
          else begin
            ignore (Unix.select [] [] [] 0.2);
            poll ()
          end
    in
    poll ()
  end

let cancel t ~id =
  request t
    { W.meth = W.DELETE; target = "/v1/jobs/" ^ id; headers = []; body = "" }

let health t = get t "/health"

let metrics t =
  match get t "/metrics" with
  | Error _ as e -> e
  | Ok resp when resp.W.status = 200 -> Ok resp.W.resp_body
  | Ok resp ->
      Error (Printf.sprintf "metrics scrape answered %d" resp.W.status)

let job_id_of_response resp =
  match Json.parse resp.W.resp_body with
  | Error _ -> None
  | Ok doc -> (
      let job = Option.value ~default:doc (Json.member doc "job") in
      Json.str_field job "id")
