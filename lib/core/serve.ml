(* fdkit serve: the crash-safe campaign daemon.

   A long-running process listening on a Unix domain socket.  Frames in
   both directions are newline-delimited JSON (one value per line,
   decoded incrementally with Util.Json.Stream).  Clients submit
   Job.specs; the daemon validates, queues them on a bounded FIFO,
   executes them one at a time on the campaign engine (worker domains),
   streams progress events back live, and resolves warm jobs from the
   content-addressed result cache.

   Concurrency model: one [Unix.select] loop on the calling domain owns
   the listening socket, every client socket and all daemon state —
   history, FIFO, watchers, journal appends, outbound queues — so none
   of it needs a lock.  A job attempt runs on an executor domain that
   the loop spawns when it starts the attempt and joins when the
   attempt concludes, so one job runs at a time: parallelism lives
   inside the campaign engine, not across jobs.  The executor reaches
   the loop only through the mailbox, a mutex-guarded queue of work for
   the loop plus one byte on a self-pipe that wakes the select: it
   posts progress frames, telemetry snapshots and the attempt's outcome.
   It reads its stop request (cancel or shutdown) from an [Atomic] the
   loop sets, and checks its own deadline.  Because one thread queues
   every frame, a job's ack precedes its progress and done frames, and
   the running slot is cleared before [done] is sent.
   Outbound frames never block: each client has a FIFO drained by
   non-blocking writes (at enqueue time and whenever select reports the
   socket writable), so a client that stops reading stalls only itself
   and is shed once [max_outbound_bytes] pile up.  Connections past
   [max_clients] get an error frame: select cannot watch descriptors at
   or above FD_SETSIZE.

   Crash safety (DESIGN.md §13): every accepted spec and every state
   transition is appended (fsync'd) to <out_dir>/serve_journal.jsonl
   via Util.Journal.  On start the journal is replayed: completed jobs
   are reported in [status], interrupted ones are re-enqueued (cheap —
   their finished prefix is in the cache), and a stale socket left by a
   crashed daemon is probed and unlinked before bind.  Jobs that blow
   their wall-clock deadline or crash the executor are retried with
   capped exponential backoff up to a retry budget, then quarantined as
   poison with a ready-to-paste resubmission command in the journal.  *)

open Setagree_util
open Setagree_runner

type config = {
  socket_path : string;
  cache_dir : string option;  (* None = caching off *)
  jobs : int option;  (* worker domains; None = Runner.default_jobs *)
  out_dir : string;  (* artifact directory (and journal home) *)
  log : string -> unit;  (* daemon-side logging *)
  queue_depth : int;  (* max jobs waiting (running job not counted) *)
  default_deadline_s : float;  (* per-attempt wall clock; <= 0 = none *)
  retry_budget : int;  (* retries after the first attempt, then poison *)
  retry_backoff_s : float;  (* base of the capped exponential backoff *)
  resume : bool;  (* re-enqueue interrupted journal jobs on start *)
}

let default_config =
  {
    socket_path = Filename.concat "_results" "fdkit.sock";
    cache_dir = Some Runner.Cache.default_dir;
    jobs = None;
    out_dir = "_results";
    log = ignore;
    queue_depth = 16;
    default_deadline_s = 0.;
    retry_budget = 2;
    retry_backoff_s = 1.0;
    resume = true;
  }

let journal_path out_dir = Filename.concat out_dir "serve_journal.jsonl"

(* ---- job history ---- *)

type state = Queued | Running | Done | Cancelled | Rejected | Poisoned

let states =
  [
    (Queued, "queued");
    (Running, "running");
    (Done, "done");
    (Cancelled, "cancelled");
    (Rejected, "rejected");
    (Poisoned, "poisoned");
  ]

let state_to_string s = List.assoc s states
let state_of_string str =
  List.find_map (fun (s, n) -> if n = str then Some s else None) states

let is_terminal = function
  | Done | Cancelled | Rejected | Poisoned -> true
  | Queued | Running -> false

(* One connected client.  [subscribed] gates telemetry frames only —
   progress/ack/done always flow.  [cl_last_submit] remembers the most
   recent job this client submitted (or attached to), so a bare
   {"op":"cancel"} can be routed without an id.

   Outbound frames go through [cl_outq], written with non-blocking
   writes only, so a client whose socket buffer is full (stopped
   reading) never wedges the loop.  A hang-up, a write error or a
   backlog past [max_outbound_bytes] marks the client dead ([cl_dead]);
   the loop drops it at the end of its turn. *)
type client = {
  cl_fd : Unix.file_descr;  (* non-blocking *)
  cl_dec : Json.Stream.decoder;
  cl_outq : string Queue.t;  (* whole frames (line included), oldest first *)
  mutable cl_out_pos : int;  (* bytes of the queue head already written *)
  mutable cl_out_bytes : int;  (* unwritten bytes across the whole queue *)
  mutable cl_dead : bool;
  mutable subscribed : bool;
  mutable cl_last_submit : int;  (* 0 = none *)
}

type record = {
  id : int;
  spec : Job.spec option;  (* None for rejected frames that never parsed *)
  canonical : string;  (* Job.canonical; "" when spec is None *)
  deadline_s : float;  (* per-attempt wall-clock budget; <= 0 = none *)
  resumed : bool;  (* re-enqueued from the journal on daemon start *)
  mutable rstate : state;
  mutable phase : string;  (* finer-grained than rstate while running *)
  mutable exit_code : int;
  mutable cache_hits : int;
  mutable executed : int;
  mutable cache_skipped : int;
  mutable signature : string;  (* MD5 of the campaign signature *)
  mutable errors : string list;
  mutable last_telemetry_s : float;  (* Unix time of last snapshot; 0. = never *)
  mutable attempt : int;  (* 0-based execution attempt *)
  mutable not_before : float;  (* backoff gate (Unix time); 0. = ready *)
  mutable watchers : client list;  (* clients streaming this job *)
}

(* ---- outbound ---- *)

let max_outbound_bytes = 8 * 1024 * 1024

(* [Unix.select] raises EINVAL for descriptors >= FD_SETSIZE (1024);
   the cap leaves ample headroom for the journal, cache files and the
   engine's own descriptors. *)
let max_clients = 256

(* Write as much queued outbound as the socket accepts right now; never
   blocks (the fd is non-blocking). *)
let rec flush_outbound cl =
  match Queue.peek_opt cl.cl_outq with
  | None -> ()
  | Some s -> (
      let remaining = String.length s - cl.cl_out_pos in
      match Unix.write_substring cl.cl_fd s cl.cl_out_pos remaining with
      | n ->
          cl.cl_out_bytes <- cl.cl_out_bytes - n;
          if n = remaining then begin
            ignore (Queue.pop cl.cl_outq);
            cl.cl_out_pos <- 0;
            flush_outbound cl
          end
          else cl.cl_out_pos <- cl.cl_out_pos + n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception (Unix.Unix_error _ | Sys_error _) ->
          (* Hung-up client (EPIPE et al.; SIGPIPE is ignored while
             serving). *)
          cl.cl_dead <- true)

let send_client cl j =
  if not cl.cl_dead then begin
    let s = Json.to_string ~minify:true j ^ "\n" in
    Queue.push s cl.cl_outq;
    cl.cl_out_bytes <- cl.cl_out_bytes + String.length s;
    flush_outbound cl;
    (* A reader that stopped draining its socket: shed it rather than
       buffer without bound. *)
    if cl.cl_out_bytes > max_outbound_bytes then cl.cl_dead <- true
  end

let broadcast r frame = List.iter (fun cl -> send_client cl frame) r.watchers

(* ---- frames ---- *)

let frame ty fields = Json.Obj (("type", Json.String ty) :: fields)
let error_frame msg = frame "error" [ ("message", Json.String msg) ]
let strings l = Json.List (List.map (fun e -> Json.String e) l)
let sig_md5 c = Digest.to_hex (Digest.string (Runner.signature c))

let record_json r =
  let about f = Json.String (match r.spec with Some s -> f s | None -> "?") in
  Json.Obj
    [
      ("id", Json.Int r.id);
      ("kind", about Job.kind);
      ("summary", about Job.summary);
      ("state", Json.String (state_to_string r.rstate));
      ("phase", Json.String r.phase);
      ("exit", Json.Int r.exit_code);
      ("attempt", Json.Int r.attempt);
      ("resumed", Json.Bool r.resumed);
      ("cache_hits", Json.Int r.cache_hits);
      ("executed", Json.Int r.executed);
      ("cache_skipped", Json.Int r.cache_skipped);
      ("signature", Json.String r.signature);
      ( "telemetry_age_s",
        if r.last_telemetry_s <= 0. then Json.Null
        else Json.Float (Unix.gettimeofday () -. r.last_telemetry_s) );
      ("errors", strings r.errors);
    ]

let done_frame ?(extra = []) r ~jobs ~failed ~cancelled ~wall =
  frame "done"
    ([
       ("id", Json.Int r.id);
       ("state", Json.String (state_to_string r.rstate));
       ("exit", Json.Int r.exit_code);
       ("jobs", Json.Int jobs);
       ("failed", Json.Int failed);
       ("cache_hits", Json.Int r.cache_hits);
       ("executed", Json.Int r.executed);
       ("cache_skipped", Json.Int r.cache_skipped);
       ("cancelled", Json.Bool cancelled);
       ("wall_s", Json.Float wall);
       ("signature", Json.String r.signature);
     ]
    @ extra)

let telemetry_frame id te =
  let fields =
    match Runner.telemetry_json te with
    | Json.Obj fields -> fields
    | j -> [ ("telemetry", j) ]
  in
  frame "telemetry" (("id", Json.Int id) :: fields)

(* ---- journal schema + recovery ---- *)

module Recovery = struct
  let accepted_entry ~id ?(deadline_s = 0.) spec =
    Json.Obj
      [
        ("type", Json.String "accepted");
        ("id", Json.Int id);
        ("deadline_s", Json.Float deadline_s);
        ("spec", Job.to_json spec);
      ]

  let state_entry ~id ?(attempt = 0) ?(extra = []) st =
    Json.Obj
      ([
         ("type", Json.String "state");
         ("id", Json.Int id);
         ("state", Json.String st);
         ("attempt", Json.Int attempt);
       ]
      @ extra)

  type pending = { p_id : int; p_spec : Job.spec; p_deadline_s : float }

  type completed = {
    f_id : int;
    f_spec : Job.spec;
    f_state : state;
    f_exit : int;
    f_signature : string;
  }

  type t = {
    completed : completed list;  (* terminal jobs, oldest first *)
    pending : pending list;  (* accepted, no terminal entry; FIFO order *)
    next_id : int;
    dropped_lines : int;
    dropped_bytes : int;
  }

  let int_member k j =
    match Json.member k j with
    | Some (Json.Int i) -> Some i
    | Some (Json.Float f) -> Some (int_of_float f)
    | _ -> None

  let float_member k j =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None

  (* Replay the journal into (completed, pending).  Tolerant by design:
     unknown entry types are skipped, an id's first terminal entry wins
     (a duplicate "done" from a half-compacted journal cannot re-run or
     double-report a job), and a truncated tail was already dropped by
     Journal.load — so the result is always a prefix-consistent view of
     what the dead daemon actually accepted and finished. *)
  let load path =
    let { Journal.entries; dropped_lines; dropped_bytes } = Journal.load path in
    let accepted : (int, pending) Hashtbl.t = Hashtbl.create 16 in
    let accept_order = ref [] in
    let finished : (int, completed) Hashtbl.t = Hashtbl.create 16 in
    let finish_order = ref [] in
    let next = ref 1 in
    List.iter
      (fun e ->
        match Json.member "type" e with
        | Some (Json.String "accepted") -> (
            match (int_member "id" e, Json.member "spec" e) with
            | Some id, Some sj when not (Hashtbl.mem accepted id) -> (
                match Job.of_json sj with
                | Ok spec ->
                    let p_deadline_s =
                      Option.value ~default:0. (float_member "deadline_s" e)
                    in
                    Hashtbl.replace accepted id { p_id = id; p_spec = spec; p_deadline_s };
                    accept_order := id :: !accept_order;
                    if id >= !next then next := id + 1
                | Error _ -> ())
            | _ -> ())
        | Some (Json.String "state") -> (
            match (int_member "id" e, Json.member "state" e) with
            | Some id, Some (Json.String st) -> (
                match state_of_string st with
                | Some s
                  when is_terminal s
                       && Hashtbl.mem accepted id
                       && not (Hashtbl.mem finished id) ->
                    let p = Hashtbl.find accepted id in
                    Hashtbl.replace finished id
                      {
                        f_id = id;
                        f_spec = p.p_spec;
                        f_state = s;
                        f_exit = Option.value ~default:0 (int_member "exit" e);
                        f_signature =
                          (match Json.member "signature" e with
                          | Some (Json.String s) -> s
                          | _ -> "");
                      };
                    finish_order := id :: !finish_order
                | _ -> ())
            | _ -> ())
        | _ -> ())
      entries;
    let completed = List.rev_map (Hashtbl.find finished) !finish_order in
    let pending =
      List.rev !accept_order
      |> List.filter (fun id -> not (Hashtbl.mem finished id))
      |> List.map (Hashtbl.find accepted)
    in
    { completed; pending; next_id = !next; dropped_lines; dropped_bytes }
end

(* ---- the daemon ---- *)

(* Why an attempt stopped early.  The loop requests a cancel (by a
   client, or because every watcher hung up) or a shutdown; the executor
   notices its own deadline. *)
type stop_reason = Stop_cancel | Stop_shutdown | Stop_deadline

type attempt = {
  a_rec : record;
  a_stop : stop_reason option Atomic.t;  (* written by the loop only *)
  a_dom : unit Domain.t;
}

type t = {
  cfg : config;
  cache : Runner.Cache.t option;
  journal : Journal.t;
  (* The mailbox: the only state the executor shares with the loop.  It
     holds work for the loop, run in the order it was posted. *)
  mb_lock : Mutex.t;
  mb_work : (unit -> unit) Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* Everything below belongs to the loop. *)
  mutable clients : client list;
  mutable history : record list;  (* newest first *)
  mutable queue : record list;  (* FIFO, oldest first; subset of history *)
  mutable running : attempt option;
  mutable next_id : int;
  mutable shutdown : bool;
  mutable jobs_retried : int;
  mutable jobs_poisoned : int;
}

(* Called from the executor and the engine's workers: [f] runs on the
   loop. *)
let post t f =
  Mutex.lock t.mb_lock;
  Queue.push f t.mb_work;
  Mutex.unlock t.mb_lock;
  (* EAGAIN: the full pipe already holds a wake-up. *)
  try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
  with Unix.Unix_error _ -> ()

(* Journal IO failures (disk full, …) must degrade durability, not
   availability: the daemon keeps serving, recovery just knows less. *)
let jlog t entry =
  try Journal.append t.journal entry
  with Sys_error _ | Unix.Unix_error _ -> ()

let make_record ?(deadline_s = 0.) ?(resumed = false) ~id spec =
  {
    id;
    spec;
    canonical = (match spec with Some s -> Job.canonical s | None -> "");
    deadline_s;
    resumed;
    rstate = Queued;
    phase = "queued";
    exit_code = 0;
    cache_hits = 0;
    executed = 0;
    cache_skipped = 0;
    signature = "";
    errors = [];
    last_telemetry_s = 0.;
    attempt = 0;
    not_before = 0.;
    watchers = [];
  }

let fresh_record ?deadline_s t spec =
  let r = make_record ?deadline_s ~id:t.next_id spec in
  t.next_id <- t.next_id + 1;
  t.history <- r :: t.history;
  r

let dequeue t r = t.queue <- List.filter (fun x -> x != r) t.queue

(* Ask the running attempt to stop at its next job boundary; the first
   reason given sticks. *)
let request_stop t why =
  Option.iter
    (fun a -> ignore (Atomic.compare_and_set a.a_stop None (Some why)))
    t.running

(* Capped exponential backoff before retry [attempt] (1-based): the
   Fd.Timeout delay shape — base * 2^(attempt-1), capped — minus the
   jitter (a deterministic daemon is easier to test and to reason about
   after a crash). *)
let backoff_delay t attempt =
  Float.min 60. (t.cfg.retry_backoff_s *. (2. ** float_of_int (max 0 (attempt - 1))))

(* A failed attempt (deadline blown or executor crash): retry with
   backoff while budget remains, else quarantine as poison with a
   ready-to-paste resubmission command in the journal. *)
let conclude_failure t r note =
  r.errors <- r.errors @ [ note ];
  let reason = ("reason", Json.String note) in
  if r.attempt < t.cfg.retry_budget then begin
    r.attempt <- r.attempt + 1;
    let delay = backoff_delay t r.attempt in
    r.not_before <- Unix.gettimeofday () +. delay;
    r.rstate <- Queued;
    r.phase <-
      Printf.sprintf "backoff %.3gs (retry %d/%d)" delay r.attempt
        t.cfg.retry_budget;
    t.jobs_retried <- t.jobs_retried + 1;
    t.queue <- t.queue @ [ r ];
    let backoff = ("backoff_s", Json.Float delay) in
    jlog t
      (Recovery.state_entry ~id:r.id ~attempt:r.attempt ~extra:[ backoff; reason ]
         "retrying");
    t.cfg.log
      (Printf.sprintf "job %d: %s; retry %d/%d in %.3gs" r.id note r.attempt
         t.cfg.retry_budget delay);
    broadcast r
      (frame "retry"
         [ ("id", Json.Int r.id); ("attempt", Json.Int r.attempt); backoff; reason ])
  end
  else begin
    r.rstate <- Poisoned;
    r.phase <- "poisoned";
    r.exit_code <- 6;
    t.jobs_poisoned <- t.jobs_poisoned + 1;
    let name = Printf.sprintf "poison_job_%d.json" r.id in
    let replay =
      match Option.bind r.spec (Job.write_spec ~dir:t.cfg.out_dir ~name) with
      | Some path -> "fdkit submit --spec " ^ path
      | None -> ""
    in
    let replay = ("replay", Json.String replay) in
    jlog t
      (Recovery.state_entry ~id:r.id ~attempt:r.attempt
         ~extra:[ ("exit", Json.Int r.exit_code); reason; replay ]
         "poisoned");
    t.cfg.log
      (Printf.sprintf "job %d: poisoned after %d attempts (%s)" r.id
         (r.attempt + 1) note);
    broadcast r
      (done_frame r ~jobs:0 ~failed:0 ~cancelled:false ~wall:0.
         ~extra:[ reason; replay ])
  end

(* A finished attempt (the campaign ran to completion or was cancelled
   at a job boundary by a client/orphan stop). *)
let finalize t r final (o : Job.outcome) artifact_errors =
  let c = o.Job.o_campaign in
  r.errors <- r.errors @ artifact_errors;
  r.rstate <- final;
  r.phase <- "finished";
  r.exit_code <- o.Job.o_exit;
  r.cache_hits <- c.Runner.c_cache_hits;
  r.executed <- c.Runner.c_executed;
  r.cache_skipped <- c.Runner.c_cache_skipped;
  r.signature <- sig_md5 c;
  jlog t
    (Recovery.state_entry ~id:r.id ~attempt:r.attempt
       ~extra:
         [ ("exit", Json.Int r.exit_code); ("signature", Json.String r.signature) ]
       (state_to_string r.rstate));
  t.cfg.log
    (Printf.sprintf "job %d: %s exit=%d hits=%d executed=%d skipped=%d" r.id
       (state_to_string r.rstate) r.exit_code r.cache_hits r.executed
       r.cache_skipped);
  broadcast r
    (done_frame r
       ~jobs:(Array.length c.Runner.c_results)
       ~failed:(List.length (Runner.failures c))
       ~cancelled:c.Runner.c_cancelled ~wall:c.Runner.c_wall_s)

(* ---- the executor ---- *)

(* Campaign-shaped jobs leave their usual artifacts in out_dir. *)
let write_artifacts dir spec (o : Job.outcome) =
  match spec with
  | Job.Run _ | Job.Replay _ -> []
  | Job.Campaign _ | Job.Chaos _ | Job.Explore _ -> (
      try
        ignore (Runner.write_artifact ~dir o.Job.o_campaign);
        Option.iter
          (fun co -> ignore (Chaos.write_failures ~dir co.Chaos.o_failures))
          o.Job.o_chaos;
        (match spec with
        | Job.Explore { protocol; _ } ->
            ignore (Explorer.write_counterexamples ~dir ~protocol o.Job.o_ces)
        | _ -> ());
        []
      with Sys_error e -> [ "artifact write failed: " ^ e ])

(* One attempt, on the executor domain.  It reads only the record's
   immutable fields and the stop request; everything else it does by
   posting to the loop.  The campaign engine polls [stop] between job
   submissions. *)
let run_attempt t r stop_req =
  let spec = Option.get r.spec in
  let deadline = Unix.gettimeofday () +. r.deadline_s in
  let stopped_by = ref None in
  let stop () =
    (if !stopped_by = None then
       stopped_by :=
         match Atomic.get stop_req with
         | None when r.deadline_s > 0. && Unix.gettimeofday () > deadline ->
             Some Stop_deadline
         | why -> why);
    !stopped_by <> None
  in
  let on_progress (p : Runner.progress) =
    let f =
      frame "progress"
        [
          ("id", Json.Int r.id);
          ("done", Json.Int p.Runner.pr_done);
          ("total", Json.Int p.Runner.pr_total);
          ("cached", Json.Bool p.Runner.pr_cached);
          ("label", Json.String p.Runner.pr_result.Runner.r_label);
          ("ok", Json.Bool p.Runner.pr_result.Runner.r_ok);
        ]
    in
    post t (fun () -> broadcast r f)
  in
  (* Always attached: snapshots keep the record's freshness stamp for
     [status] even when nobody listens. *)
  let on_telemetry te =
    post t (fun () ->
        r.last_telemetry_s <- Unix.gettimeofday ();
        let f = lazy (telemetry_frame r.id te) in
        List.iter
          (fun cl -> if cl.subscribed then send_client cl (Lazy.force f))
          r.watchers)
  in
  let conclude =
    match
      Job.execute ?jobs:t.cfg.jobs ?cache:t.cache ~on_progress ~on_telemetry
        ~stop spec
    with
    | exception exn ->
        let note = "raised: " ^ Printexc.to_string exn in
        fun () -> conclude_failure t r note
    | o -> (
        let finished st =
          let errors = write_artifacts t.cfg.out_dir spec o in
          fun () -> finalize t r st o errors
        in
        match !stopped_by with
        | _ when not o.Job.o_campaign.Runner.c_cancelled -> finished Done
        | Some Stop_deadline ->
            fun () ->
              conclude_failure t r
                (Printf.sprintf "deadline exceeded (%.3gs)" r.deadline_s)
        | Some Stop_shutdown ->
            (* No terminal journal entry: the next start resumes it. *)
            fun () ->
              r.rstate <- Queued;
              r.phase <- "interrupted by shutdown"
        | Some Stop_cancel | None -> finished Cancelled)
  in
  post t (fun () ->
      (* Posting this is the executor's last act, so the join is prompt;
         the slot is free before any done frame goes out. *)
      Option.iter (fun a -> Domain.join a.a_dom) t.running;
      t.running <- None;
      conclude ())

(* Hand the first record past its backoff gate to a fresh executor. *)
let start_next t =
  let now = Unix.gettimeofday () in
  match List.find_opt (fun r -> r.not_before <= now) t.queue with
  | Some r when t.running = None && not t.shutdown -> (
      dequeue t r;
      r.rstate <- Running;
      r.phase <- "running";
      jlog t (Recovery.state_entry ~id:r.id ~attempt:r.attempt "running");
      t.cfg.log
        (Printf.sprintf "job %d attempt %d: %s" r.id r.attempt
           (Job.summary (Option.get r.spec)));
      let a_stop = Atomic.make None in
      match Domain.spawn (fun () -> run_attempt t r a_stop) with
      | a_dom -> t.running <- Some { a_rec = r; a_stop; a_dom }
      | exception exn ->
          (* The domain budget is shared with the engine's workers. *)
          conclude_failure t r ("cannot spawn executor: " ^ Printexc.to_string exn))
  | _ -> ()

let drain_mailbox t =
  (* Extra wake-up bytes only cost a spurious turn. *)
  (try ignore (Unix.read t.wake_r (Bytes.create 4096) 0 4096)
   with Unix.Unix_error _ -> ());
  let work = Queue.create () in
  Mutex.lock t.mb_lock;
  Queue.transfer t.mb_work work;
  Mutex.unlock t.mb_lock;
  Queue.iter (fun f -> f ()) work

(* ---- ops ---- *)

let status_frame t =
  let int n = Json.Int n in
  frame "status"
    [
      ("queue_depth", int (List.length t.queue + if t.running = None then 0 else 1));
      ( "running",
        match t.running with None -> Json.Null | Some a -> Json.Int a.a_rec.id );
      ("jobs", Json.List (List.rev_map record_json t.history));
      ( "counters",
        Json.Obj
          [ ("jobs_retried", int t.jobs_retried); ("jobs_poisoned", int t.jobs_poisoned) ]
      );
      ( "cache",
        match t.cache with
        | None -> Json.Null
        | Some c ->
            Json.Obj
              [
                ("dir", Json.String (Runner.Cache.dir c));
                ("hits", int (Runner.Cache.hits c));
                ("misses", int (Runner.Cache.misses c));
                ("stores", int (Runner.Cache.stores c));
                ("corrupt", int (Runner.Cache.corrupt c));
                ("write_failed", int (Runner.Cache.write_failed c));
              ] );
    ]

let watch cl r =
  if not (List.memq cl r.watchers) then r.watchers <- r.watchers @ [ cl ];
  cl.cl_last_submit <- r.id

(* The journal line is fsync'd before the ack is queued. *)
let submit t cl v spec =
  let summary = ("summary", Json.String (Job.summary spec)) in
  let canonical = Job.canonical spec in
  match Job.validate spec with
  | Error errs ->
      let r = fresh_record t (Some spec) in
      r.rstate <- Rejected;
      r.phase <- "rejected";
      r.exit_code <- 3;
      r.errors <- errs;
      send_client cl
        (frame "ack"
           [
             ("id", Json.Int r.id);
             ("accepted", Json.Bool false);
             ("errors", strings errs);
           ])
  | Ok () -> (
      (* Dedup: a spec already queued or running gains a watcher instead
         of a duplicate execution. *)
      match
        List.find_opt
          (fun r -> (not (is_terminal r.rstate)) && r.canonical = canonical)
          t.history
      with
      | Some r ->
          watch cl r;
          send_client cl
            (frame "ack"
               [
                 ("id", Json.Int r.id);
                 ("accepted", Json.Bool true);
                 ("attached", Json.Bool true);
                 ("state", Json.String (state_to_string r.rstate));
                 summary;
               ])
      | None when List.length t.queue >= t.cfg.queue_depth ->
          (* Graceful shedding: an explicit rejection, no record. *)
          send_client cl
            (frame "ack"
               [
                 ("id", Json.Int 0);
                 ("accepted", Json.Bool false);
                 ("rejected", Json.String "queue full");
                 ( "errors",
                   strings
                     [
                       Printf.sprintf "rejected: queue full (depth %d)"
                         t.cfg.queue_depth;
                     ] );
               ])
      | None ->
          let deadline_s =
            match Recovery.float_member "deadline_s" v with
            | Some d when d > 0. -> d
            | _ -> t.cfg.default_deadline_s
          in
          let r = fresh_record ~deadline_s t (Some spec) in
          watch cl r;
          t.queue <- t.queue @ [ r ];
          jlog t (Recovery.accepted_entry ~id:r.id ~deadline_s spec);
          send_client cl
            (frame "ack"
               [
                 ("id", Json.Int r.id);
                 ("accepted", Json.Bool true);
                 ("position", Json.Int (List.length t.queue));
                 summary;
               ]))

let cancel_queued t r =
  dequeue t r;
  r.rstate <- Cancelled;
  r.phase <- "cancelled while queued";
  r.exit_code <- 4;
  jlog t
    (Recovery.state_entry ~id:r.id ~attempt:r.attempt ~extra:[ ("exit", Json.Int 4) ]
       "cancelled");
  broadcast r (done_frame r ~jobs:0 ~failed:0 ~cancelled:true ~wall:0.)

let cancel t cl v =
  let live id =
    List.find_opt (fun r -> r.id = id && not (is_terminal r.rstate)) t.history
  in
  let target =
    match Recovery.int_member "id" v with
    | Some id -> live id
    | None -> (
        match (live cl.cl_last_submit, t.running) with
        | Some r, _ -> Some r
        (* The running job only when this connection watches it: a bare
           cancel from an unrelated client must not kill someone else's
           job. *)
        | None, Some a when List.memq cl a.a_rec.watchers -> Some a.a_rec
        | None, _ -> None)
  in
  match target with
  | None -> send_client cl (error_frame "cancel: no cancellable job for this connection")
  | Some r when r.rstate = Queued -> cancel_queued t r
  | Some _ ->
      (* Running: in-flight jobs finish and completed work is kept (and
         cached). *)
      request_stop t Stop_cancel

let handle_frame t cl v =
  let subscription on =
    cl.subscribed <- on;
    send_client cl (frame (if on then "subscribed" else "unsubscribed") [])
  in
  match Json.member "op" v with
  | Some (Json.String "ping") -> send_client cl (frame "pong" [])
  | Some (Json.String "status") -> send_client cl (status_frame t)
  | Some (Json.String "subscribe") -> subscription true
  | Some (Json.String "unsubscribe") -> subscription false
  | Some (Json.String "shutdown") ->
      t.shutdown <- true;
      request_stop t Stop_shutdown;
      send_client cl (frame "bye" [])
  | Some (Json.String "cancel") -> cancel t cl v
  | Some (Json.String "submit") -> (
      match Option.map Job.of_json (Json.member "spec" v) with
      | None -> send_client cl (error_frame "submit: missing \"spec\"")
      | Some (Error e) -> send_client cl (error_frame ("submit: " ^ e))
      | Some (Ok spec) -> submit t cl v spec)
  | Some (Json.String op) -> send_client cl (error_frame ("unknown op " ^ op))
  | _ -> send_client cl (error_frame "frame has no \"op\"")

(* A dead client leaves: detach it everywhere; a job whose every
   watcher is gone (and that was not resumed from the journal, which
   starts with none) is orphaned — cancelled if queued, stopped if
   running. *)
let drop_client t cl =
  t.clients <- List.filter (fun c -> c != cl) t.clients;
  (try Unix.close cl.cl_fd with Unix.Unix_error _ -> ());
  List.iter
    (fun r ->
      if List.memq cl r.watchers then begin
        r.watchers <- List.filter (fun c -> c != cl) r.watchers;
        if r.watchers = [] && not r.resumed then
          match r.rstate with
          | Queued -> cancel_queued t r
          | Running -> request_stop t Stop_cancel
          | Done | Cancelled | Rejected | Poisoned -> ()
      end)
    t.history

(* ---- the select loop ---- *)

let read_client t cl buf =
  match Unix.read cl.cl_fd buf 0 (Bytes.length buf) with
  | 0 ->
      (* Hang-up: best-effort delivery of what is still queued. *)
      flush_outbound cl;
      cl.cl_dead <- true
  | len ->
      Json.Stream.feed cl.cl_dec (Bytes.sub_string buf 0 len);
      let rec drain () =
        if not cl.cl_dead then
          match Json.Stream.next cl.cl_dec with
          | `Value v ->
              handle_frame t cl v;
              drain ()
          | `Error e ->
              send_client cl (error_frame (Json.error_to_string e));
              drain ()
          | `Await -> ()
      in
      drain ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> cl.cl_dead <- true

(* A connection past the cap gets one error frame and is dropped at the
   end of the turn. *)
let accept_client t sock =
  match Unix.accept ~cloexec:true sock with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Unix.set_nonblock fd;
      let cl =
        {
          cl_fd = fd;
          cl_dec = Json.Stream.decoder ();
          cl_outq = Queue.create ();
          cl_out_pos = 0;
          cl_out_bytes = 0;
          cl_dead = false;
          subscribed = false;
          cl_last_submit = 0;
        }
      in
      if List.length t.clients >= max_clients then begin
        send_client cl
          (error_frame
             (Printf.sprintf "server busy: %d connections already open" max_clients));
        cl.cl_dead <- true
      end;
      t.clients <- cl :: t.clients

(* Block until a socket or the mailbox needs attention or, with the
   executor idle, until the earliest backoff gate opens. *)
let select_timeout t =
  match (t.running, t.queue) with
  | None, _ :: _ ->
      let gate = List.fold_left (fun m r -> Float.min m r.not_before) infinity t.queue in
      Float.max 0. (gate -. Unix.gettimeofday ())
  | _ -> -1.

let rec reap t =
  match List.find_opt (fun cl -> cl.cl_dead) t.clients with
  | Some cl ->
      drop_client t cl;
      reap t
  | None -> ()

let rec serve_loop t sock buf =
  if not t.shutdown then begin
    let clients = t.clients in
    let fds cls = List.map (fun cl -> cl.cl_fd) cls in
    let pending = List.filter (fun cl -> cl.cl_out_bytes > 0) clients in
    let reads = sock :: t.wake_r :: fds clients in
    (match Unix.select reads (fds pending) [] (select_timeout t) with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | readable, writable, _ ->
        if List.mem t.wake_r readable then drain_mailbox t;
        List.iter
          (fun cl ->
            if (not cl.cl_dead) && List.mem cl.cl_fd writable then flush_outbound cl;
            if (not cl.cl_dead) && List.mem cl.cl_fd readable then read_client t cl buf)
          clients;
        if List.mem sock readable then accept_client t sock);
    reap t;
    start_next t;
    serve_loop t sock buf
  end

(* ---- startup: recovery, stale socket, bind ---- *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* The daemon's exclusive per-out_dir lock, held for the whole run.
   Taken (with the socket probe) BEFORE the journal is loaded,
   compacted, or reopened: a second [fdkit serve] on the same out_dir
   must fail here — compacting first would rename-replace the live
   daemon's journal, leaving the incumbent fsync-appending to an
   unlinked inode and every subsequent entry silently lost.  An fcntl
   lock dies with the process, so kill -9 never leaves a stale one. *)
let acquire_daemon_lock out_dir =
  let path = Filename.concat out_dir "serve.lock" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> fd
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failwith
        (Printf.sprintf "fdkit serve: another daemon holds %s" path)

(* A socket file can outlive a crashed daemon (kill -9 never unlinks).
   Probe it: a live daemon answers the connect — refuse to double-bind;
   a dead one leaves ECONNREFUSED — unlink and take over. *)
let probe_stale_socket path log =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if live then
      failwith
        (Printf.sprintf "fdkit serve: %s is in use by a live daemon" path);
    log (Printf.sprintf "removing stale socket %s" path);
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()
  end

let bind_socket path =
  mkdir_p (Filename.dirname path);
  let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Unix.set_nonblock sock;
  sock

(* Rebuild what a previous daemon left in the journal, oldest first:
   completed jobs come back as history; interrupted ones are re-enqueued
   (resume) or closed out as cancelled (--no-resume). *)
let restore config (rc : Recovery.t) =
  List.map
    (fun (f : Recovery.completed) ->
      let r = make_record ~id:f.f_id (Some f.f_spec) in
      r.rstate <- f.f_state;
      r.phase <- "finished";
      r.exit_code <- f.f_exit;
      r.signature <- f.f_signature;
      r)
    rc.completed
  @ List.map
      (fun (p : Recovery.pending) ->
        let r =
          make_record ~deadline_s:p.p_deadline_s ~resumed:true ~id:p.p_id (Some p.p_spec)
        in
        if config.resume then begin
          r.phase <- "requeued after restart";
          config.log (Printf.sprintf "recovered job %d: %s" r.id (Job.summary p.p_spec))
        end
        else begin
          r.rstate <- Cancelled;
          r.phase <- "interrupted (restart without resume)";
          r.exit_code <- 4;
          r.errors <- [ "interrupted by daemon restart; resume disabled" ]
        end;
        r)
      rc.pending

(* The compacted journal holds one accepted + one terminal line per job
   (pending jobs keep just their accepted line), so it stays
   proportional to the history rather than to the daemon's lifetime. *)
let compacted r =
  Recovery.accepted_entry ~id:r.id ~deadline_s:r.deadline_s (Option.get r.spec)
  ::
  (if not (is_terminal r.rstate) then []
   else
     [
       Recovery.state_entry ~id:r.id
         ~extra:[ ("exit", Json.Int r.exit_code); ("signature", Json.String r.signature) ]
         (state_to_string r.rstate);
     ])

let serve ?(config = default_config) () =
  mkdir_p config.out_dir;
  (* Refuse a double start before anything under out_dir is touched:
     the lock catches a second daemon on the same out_dir, the probe a
     live daemon on the same socket.  Only then may the journal be
     loaded, compacted, and reopened. *)
  let lock_fd = acquire_daemon_lock config.out_dir in
  (try probe_stale_socket config.socket_path config.log
   with e ->
     (try Unix.close lock_fd with Unix.Unix_error _ -> ());
     raise e);
  (* Clients may hang up while the daemon streams progress; without
     this the first write to a dead socket kills the whole process. *)
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let jpath = journal_path config.out_dir in
  let recovered = Recovery.load jpath in
  let records = restore config recovered in
  (try Journal.rewrite jpath (List.concat_map compacted records)
   with Sys_error _ | Unix.Unix_error _ -> ());
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      cfg = config;
      cache = Option.map (fun dir -> Runner.Cache.create ~dir ()) config.cache_dir;
      journal = Journal.append_open jpath;
      mb_lock = Mutex.create ();
      mb_work = Queue.create ();
      wake_r;
      wake_w;
      clients = [];
      history = List.rev records;
      queue = List.filter (fun r -> r.rstate = Queued) records;
      running = None;
      next_id = recovered.next_id;
      shutdown = false;
      jobs_retried = 0;
      jobs_poisoned = 0;
    }
  in
  if recovered.dropped_lines > 0 || recovered.dropped_bytes > 0 then
    config.log
      (Printf.sprintf "journal: dropped %d garbage line(s), %d tail byte(s)"
         recovered.dropped_lines recovered.dropped_bytes);
  if records <> [] then
    config.log
      (Printf.sprintf "journal: replayed %d completed, %d pending job(s)"
         (List.length recovered.completed)
         (List.length recovered.pending));
  let sock = bind_socket config.socket_path in
  config.log (Printf.sprintf "listening on %s" config.socket_path);
  serve_loop t sock (Bytes.create 65536);
  Unix.close sock;
  (* Deliver what the sockets still take (the [bye] frame), then hang
     up without detaching: queued jobs stay pending in the journal. *)
  List.iter
    (fun cl ->
      flush_outbound cl;
      cl.cl_dead <- true;
      try Unix.close cl.cl_fd with Unix.Unix_error _ -> ())
    t.clients;
  (* The running attempt has seen the shutdown request; journal its
     verdict. *)
  Option.iter (fun a -> Domain.join a.a_dom) t.running;
  t.running <- None;
  drain_mailbox t;
  List.iter Unix.close [ wake_r; wake_w; lock_fd ];
  Journal.close t.journal;
  (try Unix.unlink config.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  Option.iter
    (fun behavior ->
      try Sys.set_signal Sys.sigpipe behavior with Invalid_argument _ | Sys_error _ -> ())
    previous_sigpipe;
  config.log "shut down"

(* ---- client ---- *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    coc : out_channel;
    cdec : Json.Stream.decoder;
  }

  let connect path =
    (* Mirror the daemon: a dying daemon must surface as an [Error],
       not SIGPIPE-terminate the client. *)
    (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
     with Invalid_argument _ | Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; coc = Unix.out_channel_of_descr fd; cdec = Json.Stream.decoder () }
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))

  (* Reconnect with the same capped-exponential shape the daemon uses
     for job retries: a daemon mid-restart (recovery replay, socket not
     yet bound) looks like a refused connect for well under a second. *)
  let connect_retry ?(attempts = 5) ?(backoff_s = 0.2) path =
    let rec go n =
      match connect path with
      | Ok c -> Ok c
      | Error e ->
          if n >= attempts then Error e
          else begin
            Unix.sleepf (Float.min 10. (backoff_s *. (2. ** float_of_int (n - 1))));
            go (n + 1)
          end
    in
    go 1

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

  let send_frame c j =
    output_string c.coc (Json.to_string ~minify:true j);
    output_char c.coc '\n';
    flush c.coc

  (* Blocking read of the next frame. *)
  let rec next_frame c =
    match Json.Stream.next c.cdec with
    | `Value v -> Ok v
    | `Error e -> Error (Json.error_to_string e)
    | `Await -> (
        let buf = Bytes.create 4096 in
        match Unix.read c.fd buf 0 (Bytes.length buf) with
        | 0 -> Error "connection closed"
        | len ->
            Json.Stream.feed c.cdec (Bytes.sub_string buf 0 len);
            next_frame c
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))

  let request c j =
    match send_frame c j with
    | () -> next_frame c
    | exception Sys_error e -> Error e

  let op name = Json.Obj [ ("op", Json.String name) ]
  let ping c = request c (op "ping")
  let status c = request c (op "status")
  let shutdown c = request c (op "shutdown")

  let cancel ?id c =
    let frame =
      match id with
      | None -> op "cancel"
      | Some i -> Json.Obj [ ("op", Json.String "cancel"); ("id", Json.Int i) ]
    in
    try send_frame c frame with Sys_error _ -> ()

  (* Fire-and-forget like [cancel]: mid-run the next inbound frame may
     be a progress or telemetry frame, not the acknowledgement, so a
     request/response pairing would mis-attribute frames.  The daemon's
     [subscribed]/[unsubscribed] ack arrives through the normal event
     stream. *)
  let subscribe c = try send_frame c (op "subscribe") with Sys_error _ -> ()
  let unsubscribe c = try send_frame c (op "unsubscribe") with Sys_error _ -> ()

  let submit ?deadline_s ?(on_event = ignore) c spec =
    match
      send_frame c
        (Json.Obj
           ([ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]
           @
           match deadline_s with
           | Some d -> [ ("deadline_s", Json.Float d) ]
           | None -> []))
    with
    | exception Sys_error e -> Error e
    | () ->
        (* With a shared daemon this connection may watch several jobs
           (dedup attach): latch the acked id and only treat that job's
           done frame as terminal.  Done frames arriving before the ack
           latches the id — an earlier watched job finishing — are
           handed to [on_event] and skipped, never mistaken for this
           submission's result. *)
        let job_id = ref None in
        let id_of v =
          match Json.member "id" v with Some (Json.Int i) -> Some i | _ -> None
        in
        let rec wait () =
          match next_frame c with
          | Error _ as e -> e
          | Ok v -> (
              on_event v;
              match Json.member "type" v with
              | Some (Json.String "error") -> Ok v
              | Some (Json.String "ack")
                when Json.member "accepted" v = Some (Json.Bool false) ->
                  Ok v
              | Some (Json.String "ack") ->
                  (if !job_id = None then
                     match id_of v with Some i -> job_id := Some i | None -> ());
                  wait ()
              | Some (Json.String "done")
                when (match (!job_id, id_of v) with
                     | Some a, Some b -> a = b
                     | _ -> false) ->
                  Ok v
              | _ -> wait ())
        in
        wait ()
end
