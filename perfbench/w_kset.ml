(* kset_large: one Figure 3 k-set agreement run at n = 512 in this
   process, on one domain, to all-correct-decided, then checked.  The
   engine hot path (event arena, keyed net delivery, condition wakeups,
   oracle reads) and the GC do almost all the work. *)

open Setagree_util
open Setagree_dsys
open Setagree_fd
open Setagree_core

let n = 512
let t = 255
let z = 2
let k = 2
let gst = 10.0

type inst = { sim : Sim.t; h : Kset.t; proposals : int array }

(* Sim create, crash plan, oracle and install: the timed set-up.
   Returns the instance, the set-up time and the part of it spent in
   Sim.create and Kset.install. *)
let timed_setup seed =
  Bench.settle ();
  let t0 = Bench.now () in
  let sim = Sim.create ~horizon:5000.0 ~trace_level:Trace.Off ~n ~t ~seed () in
  let t1 = Bench.now () in
  let crashes =
    Crash.generate
      (Crash.Exactly { crashes = 2; window = (0.0, 20.0) })
      ~n ~t
      (Rng.split_named (Sim.rng sim) "crash")
  in
  Sim.install_crashes sim crashes;
  let omega, _ = Oracle.omega_z sim ~z ~behavior:(Behavior.stormy ~gst) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let t2 = Bench.now () in
  let h = Kset.install sim ~omega ~proposals () in
  let t3 = Bench.now () in
  ({ sim; h; proposals }, t3 -. t0, t1 -. t0 +. (t3 -. t2))

(* The traced repetition's stop hook: a span per protocol round (a round
   ends when the highest round entered moves on), split at gst by the
   virtual time the round started. *)
let round_tracker sim h ~parent =
  let cur = ref (Kset.max_round h) in
  let started = ref (Bench.now ()) and vstart = ref (Sim.now sim) in
  let pre = ref [] and post = ref [] in
  let close_round () =
    let t1 = Bench.now () in
    ignore (Spans.add ~parent ~req:!cur "kset.round" !started t1);
    let d = t1 -. !started in
    if !vstart < gst then pre := d :: !pre else post := d :: !post;
    started := t1;
    vstart := Sim.now sim
  in
  let stop () =
    let r = Kset.max_round h in
    if r <> !cur then begin
      if !cur > 0 then close_round ()
      else (
        started := Bench.now ();
        vstart := Sim.now sim);
      cur := r
    end;
    let fin = Kset.all_correct_decided h in
    if fin then close_round ();
    fin
  in
  (stop, pre, post)

let run (ctx : Bench.ctx) =
  let seed = ctx.Bench.seed in
  let setups = ref [] and installs = ref [] in
  let walls = ref [] and untraced = ref [] and traced = ref [] in
  let events_seen = ref [] in
  (* Set-up takes about a millisecond: time it forty times, in the state
     a user's run starts from.  Later repetitions would set up in memory
     the first one has grown, which is faster. *)
  Bench.fresh_heap ();
  for _ = 1 to 40 do
    let _, s, i = timed_setup seed in
    setups := s :: !setups;
    installs := i :: !installs
  done;
  (* The first run in a process also grows the heap, about a tenth of its
     time.  The traced run starts with an untimed one, so its untraced
     and traced repetitions both start from a grown heap and their
     difference is the tracing overhead. *)
  if ctx.Bench.traced then begin
    let inst, _, _ = timed_setup seed in
    ignore (Sim.run ~stop_when:(fun () -> Kset.all_correct_decided inst.h) inst.sim)
  end;
  Bench.repeat_for ctx (fun rep ->
      Bench.fresh_heap ();
      let inst, _, _ = timed_setup seed in
      let sim = inst.sim in
      (* In the traced run, even repetitions run untraced so the
         tracing overhead is a paired difference. *)
      let tracing = ctx.Bench.traced && rep land 1 = 1 in
      let gc = if tracing then Some (Gcprobe.self ()) else None in
      let q0 = Gc.quick_stat () in
      let root = if tracing then Spans.start ~req:rep "sim.run" else 0 in
      let t0 = Bench.now () and cpu0 = Bench.cpu_s () in
      let outcome, pre, post =
        if tracing then begin
          let stop, pre, post = round_tracker sim inst.h ~parent:root in
          let o = Sim.run ~stop_when:stop sim in
          (o, !pre, !post)
        end
        else (Sim.run ~stop_when:(fun () -> Kset.all_correct_decided inst.h) sim, [], [])
      in
      let wall = Bench.now () -. t0 and cpu = Bench.cpu_s () -. cpu0 in
      Spans.close root;
      if rep = 0 then Bench.set ctx "proc.peak_rss_mb" (Bench.self_rss_mb ());
      let q1 = Gc.quick_stat () in
      let c0 = Bench.now () in
      let verdict =
        Check.k_set_agreement sim ~k ~proposals:inst.proposals
          ~decisions:(Kset.decisions inst.h)
      in
      if tracing then ignore (Spans.add ~req:rep "check.k_set_agreement" c0 (Bench.now ()));
      let events = outcome.Sim.events in
      Bench.check ctx
        (Check.verdict_ok verdict && outcome.Sim.reason = Sim.Stopped)
        (Format.asprintf "kset n=%d seed=%d: %a (%a)" n seed Check.pp_verdict verdict
           Sim.pp_stop_reason outcome.Sim.reason);
      (* Same seed, same inputs: every repetition is the same execution. *)
      (match !events_seen with
      | e :: _ ->
          Bench.check ctx (e = events)
            (Printf.sprintf "repetition %d ran %d events, the first ran %d" rep events e)
      | [] -> ());
      events_seen := events :: !events_seen;
      walls := wall :: !walls;
      if tracing then traced := wall :: !traced else untraced := wall :: !untraced;
      Printf.printf "  rep %d: %d events, %d msgs, %d rounds, decided in %.3f s (cpu %.3f s)%s\n%!"
        rep events (Kset.messages_sent inst.h) (Kset.max_round inst.h) wall cpu
        (if tracing then " (traced)" else "");
      if tracing then begin
        let ev = float_of_int (max 1 events) in
        let decisions = List.length (Kset.decisions inst.h) in
        Bench.set ctx "sim.events" (float_of_int events);
        Bench.set ctx "sim.events_per_s" (float_of_int events /. wall);
        Bench.set ctx "sim.pred_evals_per_event" (float_of_int (Sim.pred_evals sim) /. ev);
        Bench.set ctx "sim.cond_signals" (float_of_int (Sim.cond_signals sim));
        Bench.set ctx "sim.wakeups" (float_of_int (Sim.wakeups sim));
        Bench.set ctx "net.msgs" (float_of_int (Kset.messages_sent inst.h));
        Bench.set ctx "net.msgs_per_decision"
          (float_of_int (Kset.messages_sent inst.h) /. float_of_int (max 1 decisions));
        Bench.set ctx "kset.rounds" (float_of_int (Kset.max_round inst.h));
        let span_stats tag xs =
          if xs <> [] then begin
            Bench.set_median ctx ("kset.round_wall_s." ^ tag ^ ".p50") xs;
            Bench.set ~samples:(List.length xs) ctx
              ("kset.round_wall_s." ^ tag ^ ".max")
              (List.fold_left Float.max 0.0 xs)
          end
        in
        span_stats "pre_gst" pre;
        span_stats "post_gst" post;
        Bench.set ctx "gc.minor_words_per_event"
          ((q1.Gc.minor_words -. q0.Gc.minor_words) /. ev);
        Bench.set ctx "gc.promoted_words_per_event"
          ((q1.Gc.promoted_words -. q0.Gc.promoted_words) /. ev);
        Option.iter (Bench.record_gc ctx) gc
      end);
  Bench.set_median ctx "setup_s" !setups;
  Bench.set_median ctx "sim.install_s" !installs;
  Bench.set_median ctx "wall_s" !walls;
  Bench.set_median ctx "done_p50_ms" (List.map (fun w -> w *. 1000.0) !walls);
  Bench.record_overhead ctx ~traced:!traced ~untraced:!untraced
