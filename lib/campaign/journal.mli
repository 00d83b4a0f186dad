(** Append-only job-lifecycle journal of a campaign.

    One JSON object per line in [<dir>/journal.jsonl], fsync'd per
    record: after a crash the journal holds every acknowledged event
    and at most one partial trailing line, which {!read} discards (a
    record only counts once its terminating newline is on disk). The
    journal is the campaign's operational history — what ran, what
    failed and why, how often a job was attempted. Completion itself is
    judged from the result {!Store}, so journal loss is never
    data loss. *)

type event =
  | Scheduled of string  (** job id entered the pending queue *)
  | Started of string  (** execution began *)
  | Done of string  (** result persisted to the store *)
  | Failed of string * string  (** job id and the captured error *)

type t

val open_ : dir:string -> t
(** Opens (creating if needed) the journal of a campaign directory for
    appending. A partial trailing record left by a crash is
    newline-terminated so subsequent appends start on a fresh line;
    {!read} skips the junk line. *)

val append : t -> event -> unit
(** Writes one record and fsyncs it before returning.
    @raise Invalid_argument after {!close}. *)

val close : t -> unit
(** Idempotent. *)

val read : dir:string -> event list
(** Every complete, parseable record in append order. Unparseable or
    newline-less trailing data is skipped, not an error. *)
