(* chaos_campaign: a cold Chaos.run, no cache, two worker domains — 9
   fault mixes x {kset, consensus_s, wheels} x 8 seeds at n = 8, t = 3.
   Hundreds of tiny simulations: per-run set-up, the Faults send path,
   Check, and the Runner's sharding and merge dominate. *)

open Setagree_dsys
open Setagree_runner
open Setagree_core

(* The workload seed moves the base crash window; the sweep itself
   (mixes x protocols x job seeds 1..8) is fixed. *)
let base seed =
  {
    Protocol.default with
    Protocol.crashes =
      Crash.Exactly { crashes = 2; window = (0.0, 10.0 +. float_of_int (seed mod 20)) };
  }

let run (ctx : Bench.ctx) =
  let base = base ctx.Bench.seed in
  let setups = ref [] and walls = ref [] and job_ms = ref [] in
  let untraced = ref [] and traced = ref [] in
  let signature = ref None in
  Bench.repeat_for ctx (fun rep ->
      let tracing = ctx.Bench.traced && rep land 1 = 1 in
      Bench.fresh_heap ();
      let gc = if tracing then Some (Gcprobe.self ()) else None in
      let root = if tracing then Spans.start ~req:rep "chaos.run" else 0 in
      let first_start = ref Float.nan in
      let q0 = Gc.quick_stat () in
      let t0 = Bench.now () in
      let on_progress (p : Runner.progress) =
        (* Serialized by the runner; [r_wall_s] dates the job's start. *)
        let t1 = Bench.now () in
        let start = t1 -. p.Runner.pr_result.Runner.r_wall_s in
        if Float.is_nan !first_start || start < !first_start then first_start := start;
        if tracing then ignore (Spans.add ~parent:root ~req:p.Runner.pr_done "runner.job" start t1)
      in
      let o = Chaos.run ~jobs:2 ~on_progress ~base () in
      let wall = Bench.now () -. t0 in
      let q1 = Gc.quick_stat () in
      Spans.close root;
      if rep = 0 then Bench.set ctx "proc.peak_rss_mb" (Bench.self_rss_mb ());
      let c = o.Chaos.o_campaign in
      let c0 = Bench.now () in
      Array.iter
        (fun r ->
          Bench.check ctx
            (r.Runner.r_ok && r.Runner.r_error = None)
            (Printf.sprintf "chaos job %s: %s" r.Runner.r_label (String.concat "; " r.Runner.r_notes)))
        c.Runner.c_results;
      Bench.check ctx
        (o.Chaos.o_safety = 0 && o.Chaos.o_liveness = 0 && o.Chaos.o_runs = 216)
        (Printf.sprintf "chaos rep %d: %d runs, %d safety, %d liveness failures" rep
           o.Chaos.o_runs o.Chaos.o_safety o.Chaos.o_liveness);
      let s = Digest.to_hex (Digest.string (Runner.signature c)) in
      (match !signature with
      | None -> signature := Some s
      | Some s0 ->
          Bench.check ctx (s = s0)
            (Printf.sprintf "chaos rep %d signature %s differs from %s" rep s s0));
      if tracing then ignore (Spans.add ~req:rep "check.chaos" c0 (Bench.now ()));
      setups := (!first_start -. t0) :: !setups;
      walls := wall :: !walls;
      job_ms := List.map (fun w -> w *. 1000.0) (Bench.job_walls c) @ !job_ms;
      if tracing then traced := wall :: !traced else untraced := wall :: !untraced;
      Printf.printf "  rep %d: %d runs in %.3f s on %d workers%s\n%!" rep o.Chaos.o_runs wall
        c.Runner.c_workers
        (if tracing then " (traced)" else "");
      if tracing then begin
        let minor_words = q1.Gc.minor_words -. q0.Gc.minor_words in
        Bench.record_runner ctx c ~minor_words;
        List.iter
          (fun m -> Bench.set ctx m (Bench.metric_total c m))
          [ "fault.parked"; "fault.dup"; "fault.reorder" ];
        let events = Float.max 1.0 (Bench.metric_total c "sched.events") in
        Bench.set ctx "sim.events" events;
        Bench.set ctx "sim.events_per_s" (events /. wall);
        Bench.set ctx "gc.minor_words_per_event" (minor_words /. events);
        Bench.set ctx "gc.promoted_words_per_event"
          ((q1.Gc.promoted_words -. q0.Gc.promoted_words) /. events);
        Option.iter (Bench.record_gc ctx) gc
      end);
  Bench.set_median ctx "setup_s" !setups;
  Bench.set_median ctx "wall_s" !walls;
  Bench.set_median ctx "done_p50_ms" !job_ms;
  Bench.record_overhead ctx ~traced:!traced ~untraced:!untraced
