(* One benchmark run: its parameters, its operation counts and the
   metrics it has measured so far. *)

open Setagree_runner

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tmp : string;  (** scratch directory of this run, removed at the end *)
  fdkit : string;  (** the fdkit binary (serve_mixed spawns it) *)
  mutable attempted : int;
  mutable failed : int;
  metrics : (string, float * int) Hashtbl.t;  (** value, sample count *)
  labels : (string, string) Hashtbl.t;  (** e.g. which percentile a tail is *)
}

let now = Unix.gettimeofday

(* Count one checked operation; a failed check is printed with its
   reason and counted in [failed]. *)
let check ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    Printf.printf "  FAIL: %s\n%!" what
  end

let set ?(samples = 1) ctx name v = Hashtbl.replace ctx.metrics name (v, samples)

let set_median ctx name xs =
  if xs <> [] then set ~samples:(List.length xs) ctx name (Pstats.median xs)

let set_tail ctx name xs =
  if xs <> [] then begin
    let label, v = Pstats.tail xs in
    Hashtbl.replace ctx.labels name label;
    set ~samples:(List.length xs) ctx name v
  end

(* Repeat [f] until [seconds] have elapsed; [f i] gets the repetition
   index.  At least once, and at least twice in the traced run, whose
   odd repetitions are traced and even ones are not. *)
let repeat_for ctx f =
  let t0 = now () in
  let min_reps = if ctx.traced then 2 else 1 in
  let rec go i =
    if i < min_reps || now () -. t0 < ctx.seconds then begin
      f i;
      go (i + 1)
    end
  in
  go 0

let self_rss_mb () = Option.value ~default:0.0 (Pstats.peak_rss_mb "self")

(* Start a repetition from a collected heap, with the peak-RSS mark
   reset to the current RSS.  The workloads read VmHWM after the first
   repetition: the runtime keeps the memory it has grown into, so later
   repetitions start higher and grow the heap further. *)
let fresh_heap () =
  Runner.reset_sink ();
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

(* Before each sample of a set-up that takes about a millisecond: an
   idle pause, then a collected heap.  Samples taken back to back fall
   into phases of the shared host that last tens of milliseconds, so
   their median flips between runs; spaced out, the median draws on the
   whole run.  No sample pays for an earlier one's garbage. *)
let settle () =
  Unix.sleepf 0.03;
  Gc.full_major ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The traced repetition's GC figures; stops the Runtime_events probe. *)
let record_gc ctx g =
  Gcprobe.finish g;
  set ctx "gc.minor_s" (Gcprobe.minor_s g);
  set ctx "gc.major_s" (Gcprobe.major_s g);
  set ctx "gc.pause_max_ms" (Gcprobe.pause_max_ms g);
  set ctx "gc.major_collections" (float_of_int (Gcprobe.major_cycles g));
  set ctx "gc.top_heap_mb" (Gcprobe.heap_mb g);
  if Gcprobe.lost g > 0 then Printf.printf "  note: %d GC ring events lost\n" (Gcprobe.lost g)

(* Traced minus untraced repetitions of the headline operation. *)
let record_overhead ctx ~traced ~untraced =
  if traced <> [] && untraced <> [] then
    set ctx "trace.overhead_s" (Pstats.median traced -. Pstats.median untraced)

let job_walls (c : Runner.campaign) =
  Array.to_list (Array.map (fun r -> r.Runner.r_wall_s) c.Runner.c_results)

(* Sum of a per-job metric over a campaign. *)
let metric_total (c : Runner.campaign) name =
  Array.fold_left
    (fun acc r -> acc +. Option.value ~default:0.0 (List.assoc_opt name r.Runner.r_metrics))
    0.0 c.Runner.c_results

(* Runner-layer figures of one traced campaign.  [minor_words] is the
   process's minor allocation over the campaign: Gc.quick_stat taken on
   the calling domain after Runner.run returns also counts the joined
   worker domains. *)
let record_runner ctx (c : Runner.campaign) ~minor_words =
  let walls = job_walls c in
  let ms = List.map (fun w -> w *. 1000.0) walls in
  set_median ctx "runner.job_p50_ms" ms;
  set_tail ctx "runner.job_tail_ms" ms;
  set ctx "runner.busy_frac"
    (List.fold_left ( +. ) 0.0 walls /. (c.Runner.c_wall_s *. float_of_int c.Runner.c_workers));
  set ctx "runner.gc_minor_words_per_job"
    (minor_words /. float_of_int (max 1 (Array.length c.Runner.c_results)))

(* Per-layer self times from the span log, in the traced run. *)
let record_spans ctx ~path =
  let self = Spans.self_times () in
  List.iter
    (fun l ->
      set ctx (l ^ ".self_s") (Option.value ~default:0.0 (Hashtbl.find_opt self l)))
    Catalog.self_layers;
  set ctx "trace.spans" (float_of_int (Spans.count ()));
  Spans.write path;
  Printf.printf "  spans: %d written to %s\n" (Spans.count ()) path

(* Write this run's record (stamped) to the results file, print every
   metric with its unit and sample count, and finish with the one-line
   JSON result.  Every end-to-end metric must have been measured; a
   per-layer metric of a layer this workload does not exercise is 0. *)
let finish ctx ~results =
  let open Setagree_util in
  let e2e_missing =
    List.filter (fun (n, _) -> not (Hashtbl.mem ctx.metrics n)) Catalog.end_to_end
  in
  List.iter (fun (n, _) -> Printf.printf "  ERROR: %s was not measured\n" n) e2e_missing;
  let correct = ctx.failed = 0 && e2e_missing = [] in
  let value n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt ctx.metrics n) in
  let print_group title group =
    Printf.printf "%s:\n" title;
    List.iter
      (fun (n, u) ->
        let v, k = value n in
        let label =
          match Hashtbl.find_opt ctx.labels n with Some l -> " " ^ l | None -> ""
        in
        Printf.printf "  %-34s %14.6g %-6s (n=%d%s)\n" n v u k label)
      group
  in
  print_group "end-to-end" Catalog.end_to_end;
  if ctx.traced then print_group "per-layer" Catalog.per_layer;
  Printf.printf "operations: %d attempted, %d failed (failed_frac %g)\n" ctx.attempted
    ctx.failed
    (if ctx.attempted = 0 then 0.0
     else float_of_int ctx.failed /. float_of_int ctx.attempted);
  let metric_json (n, u) =
    let v, k = value n in
    (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u); ("samples", Json.Int k) ])
  in
  let record =
    Json.Obj
      (Stamp.fields ()
      @ [
          ("host_cores", Json.Int (Domain.recommended_domain_count ()));
          ("ocaml_version", Json.String Sys.ocaml_version);
          ("workload", Json.String ctx.workload);
          ("seed", Json.Int ctx.seed);
          ("seconds", Json.Float ctx.seconds);
          ("trace", Json.Bool ctx.traced);
          ("correct", Json.Bool correct);
          ("attempted", Json.Int ctx.attempted);
          ("failed", Json.Int ctx.failed);
          ("end_to_end", Json.Obj (List.map metric_json Catalog.end_to_end));
          ( "per_layer",
            if ctx.traced then Json.Obj (List.map metric_json Catalog.per_layer)
            else Json.Null );
        ])
  in
  mkdir_p (Filename.dirname results);
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 results in
  output_string oc (Json.to_string ~minify:true record);
  output_char oc '\n';
  close_out oc;
  Printf.printf "record appended to %s\n" results;
  let reported = if ctx.traced then Catalog.per_layer else Catalog.end_to_end in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int ctx.attempted);
        ("failed", Json.Int ctx.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, u) ->
                 (n, Json.Obj [ ("value", Json.Float (fst (value n))); ("unit", Json.String u) ]))
               reported) );
      ]
  in
  print_string (Json.to_string ~minify:true line);
  print_newline ()
