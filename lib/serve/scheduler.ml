(* A sorted list — queues are bounded (default capacity 64) and
   operations are O(n) with a tiny constant, which beats a heap's
   bookkeeping at this scale and keeps [remove] trivial. The
   invariant: [items] is sorted by (priority descending, seq
   ascending), so the head is always the next job to pop. *)

type 'a entry = { e_priority : int; e_seq : int; e_item : 'a }
type 'a t = { q_capacity : int; mutable q_items : 'a entry list }

let create ~capacity =
  if capacity < 1 then invalid_arg "Scheduler.create: capacity < 1";
  { q_capacity = capacity; q_items = [] }

let length t = List.length t.q_items
let is_empty t = t.q_items = []
let is_full t = length t >= t.q_capacity

let before a b =
  a.e_priority > b.e_priority
  || (a.e_priority = b.e_priority && a.e_seq < b.e_seq)

let rec insert e = function
  | [] -> [ e ]
  | x :: rest -> if before e x then e :: x :: rest else x :: insert e rest

let push t ~priority ~seq item =
  if is_full t then `Full
  else begin
    t.q_items <- insert { e_priority = priority; e_seq = seq; e_item = item } t.q_items;
    `Queued
  end

let pop t =
  match t.q_items with
  | [] -> None
  | e :: rest ->
      t.q_items <- rest;
      Some e.e_item

let remove t pred =
  let rec go acc = function
    | [] -> None
    | e :: rest ->
        if pred e.e_item then begin
          t.q_items <- List.rev_append acc rest;
          Some e.e_item
        end
        else go (e :: acc) rest
  in
  go [] t.q_items
