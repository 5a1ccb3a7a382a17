(* explore_dry: the bounded schedule search over the safe configuration
   kset n = 4, t = 1, z = k = 2 (adversarial wiring, default bounds),
   sharded by Explorer.jobs and run by Runner.run on two domains.  It
   must come up dry after exhausting the bounded space. *)

open Setagree_runner
open Setagree_core

let spec seed =
  Job.of_flags ~kind:`Explore ~protocol:"kset"
    { Protocol.default with Protocol.n = 4; t = 1; z = 2; k = 2; seed }

let run (ctx : Bench.ctx) =
  let protocol, params, bounds =
    match spec ctx.Bench.seed with
    | Job.Explore { protocol; params; bounds } -> (protocol, params, bounds)
    | _ -> assert false
  in
  let setups = ref [] and walls = ref [] and job_ms = ref [] in
  let untraced = ref [] and traced = ref [] in
  let executions = ref None in
  let probe ~tracing =
    Bench.settle ();
    let t0 = Bench.now () in
    let jobs = Explorer.jobs ~protocol params bounds in
    let t1 = Bench.now () in
    if tracing then ignore (Spans.add "explore.probe" t0 t1);
    setups := (t1 -. t0) :: !setups;
    jobs
  in
  Bench.repeat_for ctx (fun rep ->
      let tracing = ctx.Bench.traced && rep land 1 = 1 in
      Bench.fresh_heap ();
      (* The probe is one short sequential execution: time it three extra
         times per repetition, so its median draws on samples spread over
         the run. *)
      for _ = 1 to 3 do
        ignore (probe ~tracing:false)
      done;
      let jobs = probe ~tracing in
      let gc = if tracing then Some (Gcprobe.self ()) else None in
      let root = if tracing then Spans.start ~req:rep "explore.search" else 0 in
      let on_progress (p : Runner.progress) =
        let t1 = Bench.now () in
        if tracing then
          ignore
            (Spans.add ~parent:root ~req:p.Runner.pr_done "runner.job"
               (t1 -. p.Runner.pr_result.Runner.r_wall_s)
               t1)
      in
      let q0 = Gc.quick_stat () in
      let t0 = Bench.now () in
      let c = Runner.run ~jobs:2 ~on_progress ~exp:"explore" jobs in
      let wall = Bench.now () -. t0 in
      let q1 = Gc.quick_stat () in
      Spans.close root;
      if rep = 0 then Bench.set ctx "proc.peak_rss_mb" (Bench.self_rss_mb ());
      let c0 = Bench.now () in
      let ces = Explorer.counterexamples c in
      let execs = int_of_float (Bench.metric_total c "explore.runs") in
      if tracing then ignore (Spans.add ~req:rep "check.counterexamples" c0 (Bench.now ()));
      Array.iter
        (fun r ->
          Bench.check ctx
            (r.Runner.r_ok && r.Runner.r_error = None)
            (Printf.sprintf "explore job %s: %s" r.Runner.r_label (String.concat "; " r.Runner.r_notes)))
        c.Runner.c_results;
      Bench.check ctx (ces = [])
        (Printf.sprintf "explore rep %d: %d unexpected counterexamples" rep (List.length ces));
      (match !executions with
      | None -> executions := Some execs
      | Some e ->
          Bench.check ctx (e = execs)
            (Printf.sprintf "explore rep %d ran %d executions, the first ran %d" rep execs e));
      let rw = Bench.job_walls c in
      walls := wall :: !walls;
      job_ms := List.map (fun w -> w *. 1000.0) rw @ !job_ms;
      if tracing then traced := wall :: !traced else untraced := wall :: !untraced;
      Printf.printf "  rep %d: %d jobs, %d executions, %d counterexamples in %.3f s%s\n%!" rep
        (List.length jobs) execs (List.length ces) wall
        (if tracing then " (traced)" else "");
      if tracing then begin
        let points = Bench.metric_total c "explore.points" in
        Bench.set ctx "explore.executions" (float_of_int execs);
        Bench.set ctx "explore.points" points;
        Bench.set ctx "explore.prunes" (Bench.metric_total c "explore.prunes");
        Bench.set ctx "explore.us_per_point"
          (List.fold_left ( +. ) 0.0 rw *. 1e6 /. Float.max 1.0 points);
        Bench.record_runner ctx c ~minor_words:(q1.Gc.minor_words -. q0.Gc.minor_words);
        Option.iter (Bench.record_gc ctx) gc
      end);
  Bench.set_median ctx "setup_s" !setups;
  Bench.set_median ctx "wall_s" !walls;
  Bench.set_median ctx "done_p50_ms" !job_ms;
  Bench.record_overhead ctx ~traced:!traced ~untraced:!untraced
