(** [fdkit serve]: the crash-safe campaign daemon and its client
    (DESIGN.md §11, failure handling §13).

    A long-running process on a Unix domain socket speaking
    newline-delimited JSON (one frame per line, {!Setagree_util.Json.Stream}).
    Clients submit {!Job.spec}s; the daemon validates, queues them on a
    bounded FIFO, executes on the campaign engine, streams progress
    frames live, and resolves warm jobs from the content-addressed
    result cache.

    Wire protocol (client → daemon ops, daemon → client frame types):
    - [{"op":"submit","spec":{...},"deadline_s":30.0?}] → [ack].  An
      accepted fresh spec carries [id] and its queue [position]; a spec
      whose canonical encoding is already queued or running acks with
      [attached = true] and the existing [id] (the client becomes a
      watcher of that job instead of duplicating work); a spec failing
      validation acks [accepted = false] with [errors]; and when the
      FIFO is at [queue_depth] the ack is [accepted = false] with
      [rejected = "queue full"] — graceful shedding, not a hang.  Then
      per completed job a [progress] frame
      ([done]/[total]/[cached]/[label]/[ok]), possibly [retry] frames
      (see below), and finally [done] with the exit code, cache
      hit/executed/skipped counts and the campaign signature (MD5);
    - [{"op":"subscribe"}] / [{"op":"unsubscribe"}] → [subscribed] /
      [unsubscribed], and while subscribed the daemon interleaves
      [telemetry] frames with progress (see
      {!Setagree_runner.Runner.telemetry_json}).  The toggle works both
      while idle and mid-run; telemetry is read-only, so campaign
      signatures are byte-identical subscribed or not;
    - [{"op":"cancel","id":3?}] → cancels job [id], defaulting to the
      client's most recent submission, else the running job when this
      connection is one of its watchers (a bare cancel from an
      unrelated connection cannot kill someone else's job).  A queued
      job is cancelled immediately ([done] with [state = "cancelled"]);
      a running one stops at the next job boundary — in-flight jobs
      finish, completed work is kept (and cached);
    - [{"op":"status"}] → [status] with the queue depth, the running
      job id, the job history (each record carrying its state, phase,
      attempt and the age of its last telemetry snapshot), retry/poison
      counters and cache counters (hits/misses/stores/corrupt/
      write_failed); [{"op":"ping"}] → [pong]; [{"op":"shutdown"}] →
      [bye] and the daemon exits (queued and in-flight jobs stay
      pending in the journal and are resumed on the next start).

    {2 Crash safety}

    Every accepted spec and every state transition is appended — one
    fsync'd JSONL line each, schema-stamped via {!Setagree_util.Stamp}
    — to [<out_dir>/serve_journal.jsonl] ({!Setagree_util.Journal}).
    On start the journal is replayed: completed jobs are reported in
    [status], interrupted [queued]/[running] jobs are re-enqueued when
    [resume] is set (cheap — their finished prefix is already in the
    cache) or closed out as cancelled otherwise, and the journal is
    compacted.  A stale socket file left by a crashed daemon is probed
    (connect) and unlinked before bind; a live daemon on the socket
    makes {!serve} raise [Failure].

    Each job attempt gets a wall-clock deadline (the submit frame's
    [deadline_s] or [default_deadline_s]; [<= 0] disables) enforced by
    the campaign engine's stop hook at job boundaries.  A timed-out or
    crashed attempt is retried with capped exponential backoff
    ([retry_backoff_s * 2^(attempt-1)], capped — the [Fd.Timeout] delay
    shape) up to [retry_budget] retries, each announced to watchers
    with a [retry] frame; after that the job is quarantined as poison:
    [state = "poisoned"], exit code 6, the spec written to
    [<out_dir>/poison_job_<id>.json] and a ready-to-paste resubmission
    command recorded in the journal.

    {2 Concurrency}

    One [Unix.select] loop on the calling domain owns the listening
    socket, every connection and all daemon state, so ops (cancel,
    subscription toggles, status) are handled promptly even while a job
    runs.  Each job attempt runs on an executor domain that reports back
    only through a mailbox (a queue plus a self-pipe byte); one
    job runs at a time — parallelism lives inside the campaign engine
    (worker domains), so submissions never fight over domains or
    artifact files.  Because one thread queues every frame, a job's
    [ack] precedes its progress and [done] frames, and a [status] sent
    after [done] does not count the job as running.  Outbound frames
    are queued per client and written non-blocking: a client that stops
    reading stalls only itself and is dropped once its backlog passes
    8 MiB.  Connections past the cap (256; [select] cannot watch
    descriptors at or above [FD_SETSIZE]) get an [error] frame and are
    closed.  A client hanging up orphans its jobs: a queued one is
    cancelled, a running one stops at the next job boundary
    (journal-resumed jobs have no watchers and are exempt). *)

open Setagree_util

type config = {
  socket_path : string;  (** default [_results/fdkit.sock] *)
  cache_dir : string option;  (** [None] disables the result cache *)
  jobs : int option;
      (** worker domains; [None] = [Setagree_runner.Runner.default_jobs] *)
  out_dir : string;  (** artifact directory (and the journal's home) *)
  log : string -> unit;  (** daemon-side logging hook *)
  queue_depth : int;
      (** max jobs waiting in the FIFO (the running job is not
          counted); submits beyond it are shed with a
          [rejected: queue full] ack.  Default 16. *)
  default_deadline_s : float;
      (** per-attempt wall-clock budget for jobs whose submit frame has
          no [deadline_s]; [<= 0] (the default) disables the watchdog *)
  retry_budget : int;
      (** retries after the first attempt before a job is poisoned;
          default 2 *)
  retry_backoff_s : float;
      (** base of the capped exponential retry backoff; default 1.0 *)
  resume : bool;
      (** re-enqueue journal-recovered interrupted jobs on start
          (default); when false they are closed out as cancelled *)
}

val default_config : config

val journal_path : string -> string
(** [journal_path out_dir] = [out_dir/serve_journal.jsonl]. *)

type state = Queued | Running | Done | Cancelled | Rejected | Poisoned

val state_to_string : state -> string

val serve : ?config:config -> unit -> unit
(** Take the exclusive [out_dir/serve.lock], probe-and-unlink a stale
    socket, then replay the journal, bind, and serve until a
    [shutdown] op; removes the socket file on exit.  Both refusals —
    the lock held by another daemon on the same [out_dir], or a live
    daemon answering on [socket_path] — raise [Failure] {e before} the
    journal is read, compacted, or reopened, so a mistaken second
    start can never clobber the incumbent's journal.  Campaign-shaped
    jobs also write their usual artifacts ([BENCH_<exp>.json],
    [chaos_failures.json], [counterexamples.json]) into [out_dir]. *)

(** The journal schema and its replay — exposed so tests and the bench
    harness can fabricate crash scenarios and assert the recovery
    invariants (prefix consistency, no duplicated terminal entries). *)
module Recovery : sig
  val accepted_entry : id:int -> ?deadline_s:float -> Job.spec -> Json.t
  (** The journal line written when a spec is accepted. *)

  val state_entry :
    id:int -> ?attempt:int -> ?extra:(string * Json.t) list -> string -> Json.t
  (** A state-transition line ([running], [retrying], [done],
      [cancelled], [poisoned], …) with optional extra fields
      ([exit], [signature], [reason], [replay], [backoff_s]). *)

  type pending = { p_id : int; p_spec : Job.spec; p_deadline_s : float }

  type completed = {
    f_id : int;
    f_spec : Job.spec;
    f_state : state;
    f_exit : int;
    f_signature : string;
  }

  type t = {
    completed : completed list;  (** terminal jobs, oldest first *)
    pending : pending list;
        (** accepted jobs with no terminal entry, FIFO order — the jobs
            a restart re-enqueues *)
    next_id : int;  (** 1 + the highest accepted id *)
    dropped_lines : int;  (** garbage lines skipped by the loader *)
    dropped_bytes : int;  (** truncated-tail bytes dropped *)
  }

  val load : string -> t
  (** Replay a journal (missing file = empty).  Tolerant: unknown entry
      types are skipped and only an id's {e first} terminal entry
      counts, so a recovered view is always a prefix-consistent subset
      of what the dead daemon accepted and finished — never a duplicate
      execution, never an exception. *)
end

(** Blocking client for the wire protocol above ([fdkit
    submit/status/cancel] and the tests). *)
module Client : sig
  type conn

  val connect : string -> (conn, string) result

  val connect_retry :
    ?attempts:int -> ?backoff_s:float -> string -> (conn, string) result
  (** {!connect} with capped-exponential retry (default 5 attempts,
      base 0.2s): rides out a daemon mid-restart whose socket is not
      yet bound — the client half of the recovery story. *)

  val close : conn -> unit

  val submit :
    ?deadline_s:float ->
    ?on_event:(Json.t -> unit) ->
    conn ->
    Job.spec ->
    (Json.t, string) result
  (** Submit and stream: [on_event] sees every frame (ack, progress,
      retry, ...); returns the terminal frame — the acked job's [done],
      an [error], or a rejecting [ack].  [deadline_s] sets the
      per-attempt wall-clock budget for this job. *)

  val status : conn -> (Json.t, string) result
  val ping : conn -> (Json.t, string) result

  val cancel : ?id:int -> conn -> unit
  (** Fire-and-forget: cancels job [id] when given, else this client's
      most recent submission, else the running job when this
      connection watches it (an unrelated connection must name the id
      explicitly — see the [fdkit cancel] CLI, which resolves it via
      {!status}).  Queued jobs are cancelled immediately; running ones
      at the next job boundary — the eventual [done] frame reports
      [state = "cancelled"]. *)

  val subscribe : conn -> unit
  val unsubscribe : conn -> unit
  (** Fire-and-forget toggles for [telemetry] frames (the
      [subscribed]/[unsubscribed] ack arrives through the normal event
      stream, since mid-run the next inbound frame may be progress or
      telemetry).  Subscribe {e before} {!submit} to catch a campaign's
      first snapshot. *)

  val shutdown : conn -> (Json.t, string) result

  val request : conn -> Json.t -> (Json.t, string) result
  (** Raw frame exchange (send one, read one). *)

  val next_frame : conn -> (Json.t, string) result
end
