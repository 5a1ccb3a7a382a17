(* Every metric the benchmark reports, with its unit.  Each workload
   reports every end-to-end metric; a per-layer metric of a layer a
   workload does not exercise reads 0.  perfbench/METRICS.md documents
   what each one measures, per workload. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("done_p50_ms", "ms");
  ]

let self_layers =
  [ "kset"; "sim"; "check"; "chaos"; "runner"; "serve"; "job"; "cache"; "explore" ]

let per_layer =
  [
    ("proc.peak_rss_mb", "MB");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.pred_evals_per_event", "ratio");
    ("sim.cond_signals", "count");
    ("sim.wakeups", "count");
    ("sim.install_s", "s");
    ("net.msgs", "count");
    ("net.msgs_per_decision", "ratio");
    ("kset.rounds", "count");
    ("kset.round_wall_s.pre_gst.p50", "s");
    ("kset.round_wall_s.pre_gst.max", "s");
    ("kset.round_wall_s.post_gst.p50", "s");
    ("kset.round_wall_s.post_gst.max", "s");
    ("gc.minor_words_per_event", "words");
    ("gc.promoted_words_per_event", "words");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("gc.minor_s", "s");
    ("gc.major_s", "s");
    ("gc.pause_max_ms", "ms");
    ("runner.job_p50_ms", "ms");
    ("runner.job_tail_ms", "ms");
    ("runner.busy_frac", "ratio");
    ("runner.gc_minor_words_per_job", "words");
    ("fault.parked", "count");
    ("fault.dup", "count");
    ("fault.reorder", "count");
    ("serve.jobs_per_s", "1/s");
    ("serve.cold_done_tail_ms", "ms");
    ("serve.ack_p50_ms", "ms");
    ("serve.ack_tail_ms", "ms");
    ("serve.warm_done_p50_ms", "ms");
    ("serve.warm_done_tail_ms", "ms");
    ("serve.first_progress_ms", "ms");
    ("serve.teardown_ms", "ms");
    ("serve.restart_to_pong_ms", "ms");
    ("job.execute_ms", "ms");
    ("cache.find_ms", "ms");
    ("cache.store_ms", "ms");
    ("cache.hit_frac", "ratio");
    ("journal.lines_per_job", "count");
    ("journal.bytes_per_job", "B");
    ("explore.executions", "count");
    ("explore.points", "count");
    ("explore.prunes", "count");
    ("explore.us_per_point", "us");
    ("trace.spans", "count");
    ("trace.overhead_s", "s");
  ]
  @ List.map (fun l -> (l ^ ".self_s", "s")) self_layers

let workloads = [ "kset_large"; "chaos_campaign"; "serve_mixed"; "explore_dry" ]
