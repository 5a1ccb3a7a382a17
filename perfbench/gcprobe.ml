(* GC pause accounting from OCaml's Runtime_events ring, read either in
   this process or attached to another OCaml process by pid (which must
   run with OCAML_RUNTIME_EVENTS_START=1 and OCAML_RUNTIME_EVENTS_DIR
   pointing at [dir]).  Only the traced run creates a probe.

   Minor collections and major slices are the stop-the-world pauses a
   request or an event can sit behind; their total and maximum
   durations are accumulated per domain from begin/end pairs.  A
   systhread drains the ring every few milliseconds, so it does not wrap
   while the workload's own threads are busy or blocked. *)

module RE = Runtime_events

type stats = {
  mutable minor_ns : float;
  mutable major_ns : float;
  mutable pause_max_ns : float;
  mutable major_cycles : int;
  mutable lost : int;
  mutable heap_words_max : float;
}

type t = {
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  p : stats;
  own : bool;  (** this process's ring, paused again by [finish] *)
  mutable stop : bool;
  mutable poller : Thread.t option;
}

let create_for ~own cursor =
  let p =
    {
      minor_ns = 0.0;
      major_ns = 0.0;
      pause_max_ns = 0.0;
      major_cycles = 0;
      lost = 0;
      heap_words_max = 0.0;
    }
  in
  let opened : (int * RE.runtime_phase, int64) Hashtbl.t = Hashtbl.create 16 in
  let heap : (int, float * float) Hashtbl.t = Hashtbl.create 4 in
  let cycles : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let runtime_begin d ts phase =
    match phase with
    | RE.EV_MINOR | RE.EV_MAJOR_SLICE ->
        Hashtbl.replace opened (d, phase) (RE.Timestamp.to_int64 ts)
    | _ -> ()
  in
  let runtime_end d ts phase =
    match phase with
    | RE.EV_MINOR | RE.EV_MAJOR_SLICE -> (
        match Hashtbl.find_opt opened (d, phase) with
        | Some t0 ->
            Hashtbl.remove opened (d, phase);
            let dur = Int64.to_float (Int64.sub (RE.Timestamp.to_int64 ts) t0) in
            if phase = RE.EV_MINOR then p.minor_ns <- p.minor_ns +. dur
            else p.major_ns <- p.major_ns +. dur;
            if dur > p.pause_max_ns then p.pause_max_ns <- dur
        | None -> ())
    | RE.EV_MAJOR_GC_CYCLE_DOMAINS ->
        (* A cycle is global; each domain reports it. *)
        let c = 1 + Option.value ~default:0 (Hashtbl.find_opt cycles d) in
        Hashtbl.replace cycles d c;
        if c > p.major_cycles then p.major_cycles <- c
    | _ -> ()
  in
  let runtime_counter d _ts counter v =
    let upd f =
      let pool, large = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt heap d) in
      Hashtbl.replace heap d (f (pool, large));
      let total = Hashtbl.fold (fun _ (a, b) s -> s +. a +. b) heap 0.0 in
      if total > p.heap_words_max then p.heap_words_max <- total
    in
    match counter with
    | RE.EV_C_MAJOR_HEAP_POOL_WORDS -> upd (fun (_, l) -> (float_of_int v, l))
    | RE.EV_C_MAJOR_HEAP_LARGE_WORDS -> upd (fun (pl, _) -> (pl, float_of_int v))
    | _ -> ()
  in
  let lost_events _ n = p.lost <- p.lost + n in
  {
    cursor;
    callbacks =
      RE.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter ~lost_events ();
    p;
    own;
    stop = false;
    poller = None;
  }

(* Drain the ring (lost events are counted, never fatal).  Only the
   poller calls it until [finish] has joined the poller. *)
let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

let start_poller t =
  let rec loop () =
    if not t.stop then begin
      poll t;
      Thread.delay 0.005;
      loop ()
    end
  in
  t.poller <- Some (Thread.create loop ())

(* Stop the poller, drain what is left and release the cursor; the
   figures stay readable.  This process's ring is paused, so the
   repetitions measured without a probe record no events. *)
let finish t =
  t.stop <- true;
  Option.iter Thread.join t.poller;
  poll t;
  if t.own then RE.pause ();
  RE.free_cursor t.cursor

let started = ref false

(* This process: starts the ring (or resumes it after [finish]) and
   discards what it already holds, so the probe sees only what
   follows. *)
let self () =
  if !started then RE.resume ()
  else begin
    RE.start ();
    started := true
  end;
  let cursor = RE.create_cursor None in
  ignore (RE.read_poll cursor (RE.Callbacks.create ()) None);
  let t = create_for ~own:true cursor in
  start_poller t;
  t

(* Another process: its ring file appears shortly after it starts. *)
let attach ~dir ~pid =
  let file = Filename.concat dir (Printf.sprintf "%d.events" pid) in
  let rec wait k =
    if Sys.file_exists file then begin
      let t = create_for ~own:false (RE.create_cursor (Some (dir, pid))) in
      start_poller t;
      Some t
    end
    else if k = 0 then None
    else (
      Unix.sleepf 0.002;
      wait (k - 1))
  in
  wait 2500

let minor_s t = t.p.minor_ns /. 1e9
let major_s t = t.p.major_ns /. 1e9
let pause_max_ms t = t.p.pause_max_ns /. 1e6
let major_cycles t = t.p.major_cycles
let lost t = t.p.lost
let heap_mb t = t.p.heap_words_max *. float_of_int (Sys.word_size / 8) /. 1048576.0
