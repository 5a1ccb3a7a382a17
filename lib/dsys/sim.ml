open Setagree_util

(* ---- Event kinds -----------------------------------------------------

   The queue is a flat [Earena.t]: every event is (time, seq, kind, arg)
   with the payload looked up in a kind-specific side table.  The hot
   kinds (fiber resume, timer re-arm, crash, batched network delivery)
   carry everything in the int [arg] and allocate nothing per event; the
   generic thunk kind backs the public [schedule]/[at] API and every cold
   path.  [legacy_queue] routes resumes/timers/deliveries through thunk
   events instead — the pre-arena engine, kept as a differential
   baseline. *)

let k_thunk = 0 (* arg = thunk-table slot *)
let k_resume = 1 (* arg = resume-table slot (pid + continuation) *)
let k_timer = 2 (* arg = ticker id; re-arms itself *)
let k_crash = 3 (* arg = pid *)
let k_net = 4 (* arg = (row lsl 6) lor dispatcher id *)

(* A condition is a wakeup channel: substrates signal it when state a
   blocked predicate reads may have changed.  The scheduler re-evaluates a
   blocked fiber's predicate only when one of its subscribed conditions was
   signalled — except "poll" waiters (awaits subscribed to [Cond.poll],
   e.g. oracle-reading waits), which are re-evaluated after every event,
   reproducing the legacy fixpoint cadence for predicates with no signal
   discipline.  Each condition keeps its subscriber list so the drain
   visits only signalled waiters instead of scanning all of them. *)
type cond = {
  c_owner : t;
  mutable c_pending : bool;
  mutable c_waiters : waiter list; (* live subscribers; pruned lazily *)
}

and waiter = {
  wpid : Pid.t;
  pred : unit -> bool;
  conds : cond list;
  poll : bool;
  k : (unit, unit) Effect.Deep.continuation;
  w_id : int; (* registration order: resumption order is canonical *)
  mutable w_dead : bool; (* fired, or its process crashed *)
  mutable w_queued : bool; (* already in this drain round's candidates *)
}

and t = {
  n : int;
  t_bound : int;
  rng : Rng.t;
  trace : Trace.t;
  horizon : float;
  max_events : int;
  legacy_poll : bool;
  legacy_queue : bool;
  (* Real-runtime mode: the simulator models one process of a distributed
     deployment.  [spawn] silently discards fibers of other pids (they run
     in their own domains, each with its own local simulator), [router]
     carries remote-bound sends off-simulator, and [inlets] dispatch
     incoming serialized messages to the substrate (keyed by net tag) that
     knows how to decode and deliver them. *)
  local : Pid.t option;
  mutable router :
    (tag:string -> src:Pid.t -> dst:Pid.t -> Bytes.t -> unit) option;
  inlets : (string, src:Pid.t -> bytes:Bytes.t -> unit) Hashtbl.t;
  arena : Earena.t;
  (* Thunk table (generic events). *)
  mutable th : (unit -> unit) array;
  mutable th_len : int;
  mutable th_free : int array;
  mutable th_free_len : int;
  (* Resume table (sleeping/yielding fibers; continuations stored untyped
     to avoid a per-event option box). *)
  mutable rs_pid : int array;
  mutable rs_k : Obj.t array;
  mutable rs_free : int array;
  mutable rs_free_len : int;
  mutable rs_len : int;
  (* Ticker periods (tickers live until the horizon; never freed). *)
  mutable tk_every : float array;
  mutable tk_len : int;
  (* Batched-delivery dispatchers, registered by substrates (Net). *)
  mutable disps : (int -> unit) array;
  mutable disp_len : int;
  mutable now : float;
  crashed : bool array;
  mutable crashed_pidset : Pidset.t; (* incremental mirror of [crashed] *)
  (* Incremental mirror of [crash_at = None]: the processes correct in this
     run.  Shared (never rebuilt), so the per-event stop conditions that
     read it are allocation-free. *)
  mutable correct_pidset : Pidset.t;
  crash_at : float option array;
  (* Stall windows: [stalled_until.(p) > now] means process [p] is frozen —
     its fibers are not resumed (sleep expiries, yields and wakeups are
     deferred to the stall end) but it is *not* crashed: oracles still
     treat it as correct, and it catches up once the window closes. *)
  stalled_until : float array;
  (* The active fault specification (pure data; evaluated by Net on its
     own rng stream).  [Faults.none] unless [set_faults] was called. *)
  mutable faults : Faults.t;
  (* Mirror of [Faults.is_none faults], kept in sync by [set_faults]: read
     once per send, so it must not cost the structural compares. *)
  mutable faults_none : bool;
  (* All current waiters in registration order (live + not-yet-compacted
     dead); the poll subset keeps its own ordered array. *)
  mutable wall : waiter array;
  mutable wall_len : int;
  mutable wall_dead : int;
  mutable parr : waiter array;
  mutable parr_len : int;
  mutable parr_dead : int;
  mutable live_waiters : int;
  mutable next_wid : int;
  mutable pending_conds : cond list;
  mutable poll_waiters : int;
  mutable poll_cond : cond option;
  (* Drain scratch (reused across events; entries overwritten each use). *)
  mutable cand : waiter array;
  mutable cand_len : int;
  mutable fired : waiter array;
  mutable fired_len : int;
  (* Choice-point control (schedule exploration).  When a chooser is
     installed, substrates route deliveries through [offer] instead of
     sampling delays; the run loop consults the chooser at every event
     boundary (no event left at the current instant). *)
  mutable chooser : (t -> pending array -> decision) option;
  mutable pool : pending list; (* newest-first; canonical order is by pd_id *)
  mutable next_pd : int;
  (* Scheduler observability (flushed into [trace] at the end of [run]). *)
  mutable n_pred_evals : int;
  mutable n_signals : int;
  mutable n_wakeups : int;
  mutable fl_pred_evals : int;
  mutable fl_signals : int;
  mutable fl_wakeups : int;
  mutable fl_events : int;
}

and pending = {
  pd_id : int;
  pd_src : Pid.t;
  pd_dst : Pid.t;
  pd_fire : unit -> unit;
}

and decision = Deliver of int | Inject_crash of Pid.t | Pass

type _ Effect.t +=
  | Sleep : float -> unit Effect.t
  | Yield : unit Effect.t
  | Await : cond list * (unit -> bool) -> unit Effect.t

let nop () = ()

let create ?(horizon = 1e6) ?(max_events = 10_000_000) ?(legacy_poll = false)
    ?(legacy_queue = false) ?(trace_level = Trace.Default) ?local ~n ~t ~seed () =
  if n < 2 then invalid_arg "Sim.create: n must be >= 2";
  if t < 0 || t >= n then invalid_arg "Sim.create: need 0 <= t < n";
  (match local with
  | Some p when p < 0 || p >= n -> invalid_arg "Sim.create: bad local pid"
  | _ -> ());
  let sim =
    {
      n;
      t_bound = t;
      rng = Rng.create seed;
      trace = Trace.create ~level:trace_level ();
      horizon;
      max_events;
      legacy_poll;
      legacy_queue;
      local;
      router = None;
      inlets = Hashtbl.create 8;
      arena = Earena.create ();
      th = Array.make 16 nop;
      th_len = 0;
      th_free = Array.make 16 0;
      th_free_len = 0;
      rs_pid = Array.make 16 0;
      rs_k = Array.make 16 (Obj.repr 0);
      rs_free = Array.make 16 0;
      rs_free_len = 0;
      rs_len = 0;
      tk_every = Array.make 4 0.0;
      tk_len = 0;
      disps = Array.make 8 (fun _ -> ());
      disp_len = 0;
      now = 0.0;
      crashed = Array.make n false;
      crashed_pidset = Pidset.empty;
      correct_pidset = Pidset.full ~n;
      crash_at = Array.make n None;
      stalled_until = Array.make n 0.0;
      faults = Faults.none;
      faults_none = true;
      wall = [||];
      wall_len = 0;
      wall_dead = 0;
      parr = [||];
      parr_len = 0;
      parr_dead = 0;
      live_waiters = 0;
      next_wid = 0;
      pending_conds = [];
      poll_waiters = 0;
      poll_cond = None;
      cand = [||];
      cand_len = 0;
      fired = [||];
      fired_len = 0;
      chooser = None;
      pool = [];
      next_pd = 0;
      n_pred_evals = 0;
      n_signals = 0;
      n_wakeups = 0;
      fl_pred_evals = 0;
      fl_signals = 0;
      fl_wakeups = 0;
      fl_events = 0;
    }
  in
  sim.poll_cond <- Some { c_owner = sim; c_pending = false; c_waiters = [] };
  sim

let n t = t.n
let t_bound t = t.t_bound
let rng t = t.rng
let local t = t.local
let set_router t r = t.router <- Some r
let router t = t.router

let register_inlet t ~tag inlet =
  if Hashtbl.mem t.inlets tag then
    invalid_arg (Printf.sprintf "Sim.register_inlet: duplicate tag %S" tag);
  Hashtbl.replace t.inlets tag inlet

let inlet t ~tag = Hashtbl.find_opt t.inlets tag
let trace t = t.trace
let now t = t.now
let horizon t = t.horizon
let legacy_poll t = t.legacy_poll
let legacy_queue t = t.legacy_queue
let pred_evals t = t.n_pred_evals
let cond_signals t = t.n_signals
let wakeups t = t.n_wakeups

(* ---- Side tables ---- *)

let push_int_stack arr len v =
  let arr = if Array.length arr = len then begin
      let a' = Array.make (max 16 (2 * len)) 0 in
      Array.blit arr 0 a' 0 len;
      a'
    end
    else arr
  in
  arr.(len) <- v;
  arr

let th_alloc t f =
  let slot =
    if t.th_free_len > 0 then begin
      t.th_free_len <- t.th_free_len - 1;
      t.th_free.(t.th_free_len)
    end
    else begin
      let slot = t.th_len in
      if Array.length t.th = slot then begin
        let a' = Array.make (max 16 (2 * slot)) nop in
        Array.blit t.th 0 a' 0 slot;
        t.th <- a'
      end;
      t.th_len <- slot + 1;
      slot
    end
  in
  t.th.(slot) <- f;
  slot

let th_take t slot =
  let f = t.th.(slot) in
  t.th.(slot) <- nop;
  t.th_free <- push_int_stack t.th_free t.th_free_len slot;
  t.th_free_len <- t.th_free_len + 1;
  f

let rs_alloc t pid k =
  let slot =
    if t.rs_free_len > 0 then begin
      t.rs_free_len <- t.rs_free_len - 1;
      t.rs_free.(t.rs_free_len)
    end
    else begin
      let slot = t.rs_len in
      if Array.length t.rs_pid = slot then begin
        let cap = max 16 (2 * slot) in
        let p' = Array.make cap 0 and k' = Array.make cap (Obj.repr 0) in
        Array.blit t.rs_pid 0 p' 0 slot;
        Array.blit t.rs_k 0 k' 0 slot;
        t.rs_pid <- p';
        t.rs_k <- k'
      end;
      t.rs_len <- slot + 1;
      slot
    end
  in
  t.rs_pid.(slot) <- pid;
  t.rs_k.(slot) <- k;
  slot

let rs_free t slot =
  t.rs_k.(slot) <- Obj.repr 0;
  t.rs_free <- push_int_stack t.rs_free t.rs_free_len slot;
  t.rs_free_len <- t.rs_free_len + 1

let add_event t ~time ~kind ~arg = ignore (Earena.add t.arena ~time ~kind ~arg)

let schedule t ~delay run =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  add_event t ~time:(t.now +. delay) ~kind:k_thunk ~arg:(th_alloc t run)

let at t ~time run =
  if time < t.now then invalid_arg "Sim.at: time in the past";
  add_event t ~time ~kind:k_thunk ~arg:(th_alloc t run)

(* Substrate internals: batched deliveries (Net).  The dispatcher is
   called with the row argument it was scheduled with; the returned slot
   id lets the substrate append to a still-queued event. *)

let register_dispatcher t f =
  if t.disp_len >= 64 then
    invalid_arg "Sim.register_dispatcher: dispatcher table full";
  if Array.length t.disps = t.disp_len then begin
    let a' = Array.make (2 * t.disp_len) (fun _ -> ()) in
    Array.blit t.disps 0 a' 0 t.disp_len;
    t.disps <- a'
  end;
  t.disps.(t.disp_len) <- f;
  t.disp_len <- t.disp_len + 1;
  t.disp_len - 1

let schedule_dispatch t ~time ~disp ~row =
  if time < t.now then invalid_arg "Sim.schedule_dispatch: time in the past";
  ignore (Earena.add t.arena ~time ~kind:k_net ~arg:((row lsl 6) lor disp))

let is_crashed t pid = t.crashed.(pid)
let faults t = t.faults
let faults_none t = t.faults_none
let set_faults t f =
  t.faults <- f;
  t.faults_none <- Faults.is_none f
let is_stalled t pid = t.now < t.stalled_until.(pid)

let stall_end t pid =
  if t.now < t.stalled_until.(pid) then Some t.stalled_until.(pid) else None

let crashed_set t = t.crashed_pidset
let crash_time t pid = t.crash_at.(pid)

let correct_set t = t.correct_pidset

let alive_at t time =
  let s = ref Pidset.empty in
  for i = 0 to t.n - 1 do
    match t.crash_at.(i) with
    | Some ct when ct <= time -> ()
    | _ -> s := Pidset.add i !s
  done;
  !s

(* ---- Waiter bookkeeping ---- *)

let kill_waiter t w =
  if not w.w_dead then begin
    w.w_dead <- true;
    t.wall_dead <- t.wall_dead + 1;
    t.live_waiters <- t.live_waiters - 1;
    if w.poll then begin
      t.poll_waiters <- t.poll_waiters - 1;
      t.parr_dead <- t.parr_dead + 1
    end
  end

(* Compact as soon as a handful of dead entries accumulate: the arrays
   are rescanned on every drain (the poll array on every event), so a few
   dozen lingering dead waiters cost far more in scan time than the O(len)
   compaction pass they trigger. *)
let compact t =
  if t.wall_dead > 4 && 2 * t.wall_dead > t.wall_len then begin
    let keep = ref 0 in
    for i = 0 to t.wall_len - 1 do
      let w = t.wall.(i) in
      if not w.w_dead then begin
        t.wall.(!keep) <- w;
        incr keep
      end
    done;
    t.wall_len <- !keep;
    t.wall_dead <- 0
  end;
  if t.parr_dead > 4 && 2 * t.parr_dead > t.parr_len then begin
    let keep = ref 0 in
    for i = 0 to t.parr_len - 1 do
      let w = t.parr.(i) in
      if not w.w_dead then begin
        t.parr.(!keep) <- w;
        incr keep
      end
    done;
    t.parr_len <- !keep;
    t.parr_dead <- 0
  end

let push_waiter_arr arr len w =
  let arr =
    if Array.length arr = len then begin
      let a' = Array.make (max 8 (2 * len)) w in
      Array.blit arr 0 a' 0 len;
      a'
    end
    else arr
  in
  arr.(len) <- w;
  arr

let add_waiter t w =
  compact t;
  if w.poll then begin
    t.poll_waiters <- t.poll_waiters + 1;
    t.parr <- push_waiter_arr t.parr t.parr_len w;
    t.parr_len <- t.parr_len + 1
  end;
  t.wall <- push_waiter_arr t.wall t.wall_len w;
  t.wall_len <- t.wall_len + 1;
  t.live_waiters <- t.live_waiters + 1;
  List.iter (fun c -> c.c_waiters <- w :: c.c_waiters) w.conds

let do_crash t pid =
  if not t.crashed.(pid) then begin
    t.crashed.(pid) <- true;
    t.crashed_pidset <- Pidset.add pid t.crashed_pidset;
    Trace.record t.trace ~time:t.now (Trace.Crash pid);
    (* Abandoned forever: drop this process's blocked fibers. *)
    for i = 0 to t.wall_len - 1 do
      let w = t.wall.(i) in
      if w.wpid = pid then kill_waiter t w
    done;
    (* Undelivered messages to a dead process would be delivered into the
       void; drop them so the chooser never wastes a branch on them.
       In-flight messages *from* the crashed process stay. *)
    t.pool <- List.filter (fun p -> p.pd_dst <> pid) t.pool
  end

let crash_now t pid =
  if pid < 0 || pid >= t.n then invalid_arg "Sim.crash_now: bad pid";
  if not t.crashed.(pid) then begin
    let already =
      Array.fold_left (fun acc ct -> if ct <> None then acc + 1 else acc) 0 t.crash_at
    in
    let needed = if t.crash_at.(pid) = None then already + 1 else already in
    if needed > t.t_bound then
      invalid_arg "Sim.crash_now: resilience bound t exhausted";
    t.crash_at.(pid) <- Some t.now;
    t.correct_pidset <- Pidset.remove pid t.correct_pidset;
    do_crash t pid
  end

let install_crashes t crashes =
  if List.length crashes > t.t_bound then
    invalid_arg "Sim.install_crashes: more crashes than the bound t";
  List.iter
    (fun (pid, time) ->
      if pid < 0 || pid >= t.n then invalid_arg "Sim.install_crashes: bad pid";
      t.crash_at.(pid) <- Some time;
      t.correct_pidset <- Pidset.remove pid t.correct_pidset;
      add_event t ~time:(Float.max time t.now) ~kind:k_crash ~arg:pid)
    crashes

let install_stalls t stalls =
  List.iter
    (fun { Faults.s_pid; s_from; s_until } ->
      if s_pid < 0 || s_pid >= t.n then invalid_arg "Sim.install_stalls: bad pid";
      if s_until <= s_from then invalid_arg "Sim.install_stalls: empty window";
      at t ~time:(Float.max s_from t.now) (fun () ->
          if (not t.crashed.(s_pid)) && s_until > t.stalled_until.(s_pid) then begin
            t.stalled_until.(s_pid) <- s_until;
            Trace.incr t.trace "fault.stalls";
            Trace.record t.trace ~time:t.now
              (Trace.Note
                 {
                   pid = Some s_pid;
                   text = Printf.sprintf "stall begin until=%g" s_until;
                 });
            at t ~time:s_until (fun () ->
                if not t.crashed.(s_pid) then
                  Trace.record t.trace ~time:t.now
                    (Trace.Note { pid = Some s_pid; text = "stall end" }))
          end))
    stalls

(* Resume a fiber's continuation, deferring past any active stall window.
   A stalled process is frozen, not crashed: its pending resumptions are
   parked and replayed (in scheduling order) once the window closes. *)
let rec resume_fiber t pid k =
  if not t.crashed.(pid) then begin
    if t.now < t.stalled_until.(pid) then
      at t ~time:t.stalled_until.(pid) (fun () -> resume_fiber t pid k)
    else Effect.Deep.continue k ()
  end

(* Arena path: the same stall-aware resume, re-queued as another
   [k_resume] event (same slot) when the process is frozen. *)
let dispatch_resume t slot =
  let pid = t.rs_pid.(slot) in
  if t.crashed.(pid) then rs_free t slot
  else if t.now < t.stalled_until.(pid) then
    add_event t ~time:t.stalled_until.(pid) ~kind:k_resume ~arg:slot
  else begin
    let k : (unit, unit) Effect.Deep.continuation = Obj.obj t.rs_k.(slot) in
    rs_free t slot;
    Effect.Deep.continue k ()
  end

let sleep d = Effect.perform (Sleep d)
let yield () = Effect.perform Yield

(* ---- Choice-point control ---- *)

let set_chooser t f = t.chooser <- Some f
let clear_chooser t = t.chooser <- None
let controlled t = match t.chooser with None -> false | Some _ -> true

let offer t ~src ~dst fire =
  if t.chooser = None then invalid_arg "Sim.offer: no chooser installed";
  let pd = { pd_id = t.next_pd; pd_src = src; pd_dst = dst; pd_fire = fire } in
  t.next_pd <- t.next_pd + 1;
  t.pool <- pd :: t.pool

let pending_deliveries t = List.length t.pool

(* One chooser step at an event boundary: [true] iff something fired (a
   delivery or a crash), which counts as an event for the run loop. *)
let consult_chooser t =
  match t.chooser with
  | None -> false
  | Some choose -> (
      let arr = Array.of_list (List.rev t.pool) in
      match choose t arr with
      | Pass -> false
      | Deliver _ when Array.length arr = 0 -> false
      | Deliver i ->
          let m = Array.length arr in
          let i = if i < 0 then 0 else if i >= m then m - 1 else i in
          let p = arr.(i) in
          t.pool <- List.filter (fun q -> q.pd_id <> p.pd_id) t.pool;
          p.pd_fire ();
          true
      | Inject_crash pid ->
          crash_now t pid;
          true)

module Cond = struct
  let create t = { c_owner = t; c_pending = false; c_waiters = [] }

  let signal c =
    let t = c.c_owner in
    t.n_signals <- t.n_signals + 1;
    (* No subscribers, nothing to wake: skip the pending enqueue.  Safe
       because a later [await] evaluates its predicate once immediately —
       it sees every state change made before it subscribed, so a signal
       that found nobody listening carries no information for it. *)
    if (not c.c_pending) && (match c.c_waiters with [] -> false | _ -> true)
    then begin
      c.c_pending <- true;
      t.pending_conds <- c :: t.pending_conds
    end

  let poll t = Option.get t.poll_cond
  let await conds pred = Effect.perform (Await (conds, pred))
end

let spawn t ~pid body =
  if pid < 0 || pid >= t.n then invalid_arg "Sim.spawn: bad pid";
  (* Real-runtime mode: remote pids take their steps in their own domains;
     discarding their fibers here mirrors the crashed-pid discard below. *)
  match t.local with
  | Some l when pid <> l -> ()
  | _ ->
  let block ~conds ~poll pred (k : (unit, unit) Effect.Deep.continuation) =
    t.n_pred_evals <- t.n_pred_evals + 1;
    if pred () then Effect.Deep.continue k ()
    else begin
      let w =
        {
          wpid = pid;
          pred;
          conds;
          poll;
          k;
          w_id = t.next_wid;
          w_dead = false;
          w_queued = false;
        }
      in
      t.next_wid <- t.next_wid + 1;
      add_waiter t w
    end
  in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep d ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  if d < 0.0 then invalid_arg "Sim.schedule: negative delay";
                  if t.legacy_queue then
                    schedule t ~delay:d (fun () -> resume_fiber t pid k)
                  else
                    add_event t ~time:(t.now +. d) ~kind:k_resume
                      ~arg:(rs_alloc t pid (Obj.repr k)))
          | Yield ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  if t.legacy_queue then
                    schedule t ~delay:0.0 (fun () -> resume_fiber t pid k)
                  else
                    add_event t ~time:t.now ~kind:k_resume
                      ~arg:(rs_alloc t pid (Obj.repr k)))
          | Await (conds, pred) ->
              List.iter
                (fun c ->
                  if c.c_owner != t then
                    invalid_arg "Sim.Cond.await: condition from another simulator")
                conds;
              let poll =
                match t.poll_cond with Some pc -> List.memq pc conds | None -> false
              in
              Some (block ~conds ~poll pred)
          | _ -> None);
    }
  in
  let rec start () =
    if not t.crashed.(pid) then begin
      if t.now < t.stalled_until.(pid) then at t ~time:t.stalled_until.(pid) start
      else Effect.Deep.match_with body () handler
    end
  in
  schedule t ~delay:0.0 start

let ticker t ~every =
  if every <= 0.0 then invalid_arg "Sim.ticker";
  if t.legacy_queue then begin
    let rec arm time =
      if time <= t.horizon then at t ~time (fun () -> arm (time +. every))
    in
    arm (t.now +. every)
  end
  else begin
    let id = t.tk_len in
    if Array.length t.tk_every = id then begin
      let a' = Array.make (max 4 (2 * id)) 0.0 in
      Array.blit t.tk_every 0 a' 0 id;
      t.tk_every <- a'
    end;
    t.tk_every.(id) <- every;
    t.tk_len <- id + 1;
    let first = t.now +. every in
    if first <= t.horizon then add_event t ~time:first ~kind:k_timer ~arg:id
  end

type stop_reason = Quiescent | Horizon | Budget | Stopped
type outcome = { reason : stop_reason; events : int; end_time : float }

let pp_stop_reason fmt = function
  | Quiescent -> Format.pp_print_string fmt "quiescent"
  | Horizon -> Format.pp_print_string fmt "horizon"
  | Budget -> Format.pp_print_string fmt "budget"
  | Stopped -> Format.pp_print_string fmt "stopped"

(* ---- Drain ----------------------------------------------------------

   Wake blocked fibers after an event.  Only waiters with a signalled
   condition (or poll waiters, or everyone under [legacy_poll]) have their
   predicate re-evaluated; candidates are gathered from the pending
   conditions' subscriber lists plus the poll array — O(signalled + poll),
   not O(all waiters) — then evaluated in registration (w_id) order, the
   same order the historical all-waiter scan produced.  Waking a fiber can
   enable others at the same instant (zero-time causality chains): its
   signals arm the next round, so iterate to a fixpoint; the bound catches
   accidental livelocks.  Fired fibers resume in registration order
   (oldest first). *)

let push_cand t w =
  if not w.w_queued then begin
    w.w_queued <- true;
    t.cand <- push_waiter_arr t.cand t.cand_len w;
    t.cand_len <- t.cand_len + 1
  end

(* Insertion sort of the candidate prefix by w_id: candidate sets are
   small and nearly sorted (the poll array is appended in order). *)
let sort_cands t =
  for i = 1 to t.cand_len - 1 do
    let w = t.cand.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && t.cand.(!j).w_id > w.w_id do
      t.cand.(!j + 1) <- t.cand.(!j);
      decr j
    done;
    t.cand.(!j + 1) <- w
  done

let drain t =
  let rounds = ref 0 in
  let progress = ref true in
  while !progress do
    incr rounds;
    if !rounds > 100_000 then failwith "Sim: zero-time livelock among waiters";
    progress := false;
    t.cand_len <- 0;
    if t.legacy_poll then
      for i = 0 to t.wall_len - 1 do
        let w = t.wall.(i) in
        if not w.w_dead then push_cand t w
      done
    else begin
      for i = 0 to t.parr_len - 1 do
        let w = t.parr.(i) in
        if not w.w_dead then push_cand t w
      done;
      List.iter
        (fun c ->
          (* Single pass: push live subscribers, prune (rebuild) only when
             dead ones are actually present — no allocation otherwise. *)
          let dead = ref false in
          List.iter
            (fun w -> if w.w_dead then dead := true else push_cand t w)
            c.c_waiters;
          if !dead then
            c.c_waiters <- List.filter (fun w -> not w.w_dead) c.c_waiters)
        t.pending_conds;
      sort_cands t
    end;
    t.fired_len <- 0;
    for i = 0 to t.cand_len - 1 do
      let w = t.cand.(i) in
      w.w_queued <- false;
      if not w.w_dead then begin
        if t.crashed.(w.wpid) then kill_waiter t w
        else begin
          t.n_pred_evals <- t.n_pred_evals + 1;
          if w.pred () then begin
            kill_waiter t w;
            t.fired <- push_waiter_arr t.fired t.fired_len w;
            t.fired_len <- t.fired_len + 1
          end
        end
      end
    done;
    (* Consume this round's signals before resuming anyone: signals raised
       by the resumed fibers arm the next round. *)
    List.iter (fun c -> c.c_pending <- false) t.pending_conds;
    t.pending_conds <- [];
    if t.fired_len > 0 then begin
      progress := true;
      for i = 0 to t.fired_len - 1 do
        let w = t.fired.(i) in
        (* A stalled process earned its wakeup (the predicate fired) but
           is frozen: it reacts only once the stall window closes. *)
        let rec wake () =
          if not t.crashed.(w.wpid) then begin
            if t.now < t.stalled_until.(w.wpid) then
              at t ~time:t.stalled_until.(w.wpid) wake
            else begin
              t.n_wakeups <- t.n_wakeups + 1;
              if Trace.records_full t.trace then begin
                let sp = Trace.Wakeup { pid = w.wpid } in
                Trace.begin_span t.trace ~time:t.now sp;
                Effect.Deep.continue w.k ();
                Trace.end_span t.trace ~time:t.now sp
              end
              else Effect.Deep.continue w.k ()
            end
          end
        in
        wake ()
      done
    end
  done

let flush_sched_counters t ~events =
  let flush name value flushed =
    if value > flushed then Trace.add_to t.trace name (value - flushed);
    value
  in
  t.fl_pred_evals <- flush "sched.pred_evals" t.n_pred_evals t.fl_pred_evals;
  t.fl_signals <- flush "sched.signals" t.n_signals t.fl_signals;
  t.fl_wakeups <- flush "sched.wakeups" t.n_wakeups t.fl_wakeups;
  t.fl_events <- flush "sched.events" (t.fl_events + events) t.fl_events

(* Execute one popped event.  [slot] fields are read before anything can
   recycle the slot (the dispatched code may add events). *)
let exec_event t slot =
  let kind = Earena.kind_of t.arena slot in
  let arg = Earena.arg_of t.arena slot in
  if kind = k_thunk then (th_take t arg) ()
  else if kind = k_resume then dispatch_resume t arg
  else if kind = k_timer then begin
    let next = t.now +. t.tk_every.(arg) in
    if next <= t.horizon then add_event t ~time:next ~kind:k_timer ~arg
  end
  else if kind = k_crash then do_crash t arg
  else (* k_net *)
    t.disps.(arg land 63) (arg lsr 6)

let run ?(stop_when = fun () -> false) (t : t) =
  let events = ref 0 in
  let reason = ref Quiescent in
  let continue_loop = ref true in
  let post_step () =
    incr events;
    (if
       t.live_waiters > 0
       && (t.legacy_poll || t.poll_waiters > 0
          || match t.pending_conds with [] -> false | _ :: _ -> true)
     then drain t);
    if stop_when () then begin
      reason := Stopped;
      continue_loop := false
    end
    else if !events >= t.max_events then begin
      reason := Budget;
      continue_loop := false
    end
  in
  while !continue_loop do
    (* An event boundary: nothing left to run at the current instant.  A
       chooser (schedule exploration) picks what happens next — which
       pending delivery fires, or a crash — before time is allowed to
       advance; its picks execute at the current virtual time. *)
    let boundary =
      (match t.chooser with None -> false | Some _ -> true)
      && Earena.peek_time t.arena > t.now
    in
    if boundary && consult_chooser t then post_step ()
    else if Earena.is_empty t.arena then begin
      reason := Quiescent;
      continue_loop := false
    end
    else begin
      let time = Earena.peek_time t.arena in
      if time > t.horizon then begin
        reason := Horizon;
        t.now <- t.horizon;
        continue_loop := false
      end
      else begin
        let slot = Earena.pop t.arena in
        if time > t.now then t.now <- time;
        exec_event t slot;
        post_step ()
      end
    end
  done;
  flush_sched_counters t ~events:!events;
  { reason = !reason; events = !events; end_time = t.now }

(* Real-runtime stepping: process every event with time <= upto (never past
   the horizon), then move the clock to upto even if no event fired — the
   caller slaves virtual time to the wall clock, one call per tick.  Each
   call ends with a drain so poll-subscribed predicates (clock-derived
   oracle reads) and conditions signalled by out-of-band injections are
   re-evaluated at least once per tick, even event-free ones. *)
let advance t ~upto =
  let upto = Float.min upto t.horizon in
  let events = ref 0 in
  let maybe_drain () =
    if
      t.live_waiters > 0
      && (t.legacy_poll || t.poll_waiters > 0
         || match t.pending_conds with [] -> false | _ :: _ -> true)
    then drain t
  in
  let continue_loop = ref true in
  while !continue_loop do
    let time = Earena.peek_time t.arena in
    if time <= upto then begin
      let slot = Earena.pop t.arena in
      t.now <- Float.max t.now time;
      exec_event t slot;
      incr events;
      maybe_drain ()
    end
    else continue_loop := false
  done;
  t.now <- Float.max t.now upto;
  maybe_drain ();
  flush_sched_counters t ~events:!events;
  !events
