(* serve_mixed: a real [fdkit serve -j 1] daemon driven by two
   closed-loop Serve.Client connections for the run's seconds.
   Connection A submits cold single-run kset jobs (fresh seed each, so
   each one executes, stores to the cache and fsyncs the journal);
   connection B resubmits a chaos campaign prefilled during set-up, so
   each of its jobs is a warm read.  Then recovery passes: kill -9 the
   daemon half-way through a cold campaign's progress frames, restart
   it on the same directory and wait for the resumed job.  Every done
   signature is checked against Job.execute of the same spec in this
   process. *)

open Setagree_util
open Setagree_dsys
open Setagree_runner
open Setagree_core

type daemon = { pid : int; sock : string }

let str k j = match Json.member k j with Some (Json.String s) -> s | _ -> ""
let int k j = match Json.member k j with Some (Json.Int i) -> i | _ -> -1

(* Daemons started and not yet reaped: killed if the run dies. *)
let live = ref []

let reap pid =
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let spawn (ctx : Bench.ctx) ~dir =
  Bench.mkdir_p dir;
  let sock = Filename.concat dir "sock" in
  let env =
    if ctx.Bench.traced then
      Array.append
        [| "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ dir |]
        (Unix.environment ())
    else Unix.environment ()
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let t0 = Bench.now () in
  let pid =
    Unix.create_process_env ctx.Bench.fdkit
      [|
        ctx.Bench.fdkit; "serve"; "--socket"; sock; "--out"; dir; "--cache-dir";
        Filename.concat dir "cache"; "-j"; "1";
      |]
      env null log log
  in
  live := pid :: !live;
  Unix.close null;
  Unix.close log;
  let d = { pid; sock } in
  (* Spawn until the first pong: poll the socket every 2 ms. *)
  let rec wait k =
    if k = 0 then failwith "daemon never answered ping";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith ("daemon exited during start; see " ^ Filename.concat dir "daemon.log"));
    match Serve.Client.connect sock with
    | Ok conn -> (
        match Serve.Client.ping conn with
        | Ok f when str "type" f = "pong" -> conn
        | _ ->
            Serve.Client.close conn;
            Unix.sleepf 0.002;
            wait (k - 1))
    | Error _ ->
        Unix.sleepf 0.002;
        wait (k - 1)
  in
  let conn = wait 15000 in
  (d, conn, Bench.now () -. t0)

let stop_daemon d conn =
  ignore (Serve.Client.shutdown conn);
  Serve.Client.close conn;
  reap d.pid

(* One submission, timed at each frame: submit, ack, first and last
   progress, terminal frame. *)
type timed = {
  id : int;  (** from the ack *)
  ts : float;
  ack : float;
  first_p : float;
  last_p : float;
  td : float;
  frame : (Json.t, string) result;
}

let submit_timed ?(on_progress = fun _ -> ()) conn spec =
  let ts = Bench.now () in
  let ack = ref Float.nan and fp = ref Float.nan and lp = ref Float.nan in
  let id = ref (-1) and progress = ref 0 in
  let on_event f =
    match str "type" f with
    | "ack" ->
        ack := Bench.now ();
        id := int "id" f
    | "progress" ->
        let t = Bench.now () in
        if Float.is_nan !fp then fp := t;
        lp := t;
        incr progress;
        on_progress !progress
    | _ -> ()
  in
  let frame =
    try Serve.Client.submit ~on_event conn spec
    with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  { id = !id; ts; ack = !ack; first_p = !fp; last_p = !lp; td = Bench.now (); frame }

let md5_of (o : Job.outcome) = Digest.to_hex (Digest.string (Runner.signature o.Job.o_campaign))

(* The in-process reference: same spec, no daemon, no cache. *)
let reference ~tracing spec =
  let t0 = Bench.now () in
  let o = Job.execute ~jobs:1 spec in
  let t1 = Bench.now () in
  if tracing then ignore (Spans.add "job.execute" t0 t1);
  (md5_of o, t1 -. t0)

let cache_counts conn =
  match Serve.Client.status conn with
  | Ok st -> (
      match Json.member "cache" st with
      | Some c -> (int "hits" c, int "misses" c)
      | None -> (0, 0))
  | Error _ -> (0, 0)

let journal_size dir =
  match Pstats.read_file (Serve.journal_path dir) with
  | Some s ->
      (List.length (List.filter (( <> ) "") (String.split_on_char '\n' s)), String.length s)
  | None -> (0, 0)

let cold_spec seed i =
  Job.of_flags ~kind:`Run ~protocol:"kset"
    { Protocol.default with Protocol.n = 16; seed = (seed * 100_000) + i + 1; trace = "off" }

let warm_spec seed = Job.of_flags ~kind:`Chaos ~seeds:1 ~protocol:"" (W_chaos.base seed)

(* A cold 32-run kset campaign at n = 8, distinct per pass (the crash
   window moves), so the daemon has to execute it.  Its resumed half is
   far shorter than the runner's 0.25 s telemetry tick, which a job's
   done frame waits for; near a tick, recovery would flip between one
   tick and two from run to run. *)
let recovery_runs = 32

let recovery_spec seed j =
  Job.of_flags ~kind:`Campaign ~seeds:recovery_runs ~protocol:"kset"
    {
      Protocol.default with
      crashes =
        Crash.Exactly
          { crashes = 2; window = (0.0, 30.0 +. float_of_int j +. (0.125 *. float_of_int (seed mod 8))) };
    }

let recovery_passes = 5

let cache_entries dir =
  let shards = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list shards
  |> List.concat_map (fun s ->
         let sub = Filename.concat dir s in
         if Sys.is_directory sub then
           Array.to_list (Sys.readdir sub)
           |> List.filter (fun f -> Filename.check_suffix f ".json")
           |> List.map Filename.remove_extension
         else [])

let run_mixed (ctx : Bench.ctx) =
  let seed = ctx.Bench.seed and tracing = ctx.Bench.traced in
  let ms x = x *. 1000.0 in
  (* Set-up: spawn until first pong, nine times; the ninth daemon is
     the one the workload drives. *)
  let setups = ref [] in
  for i = 1 to 8 do
    let d, conn, s = spawn ctx ~dir:(Filename.concat ctx.Bench.tmp (Printf.sprintf "probe%d" i)) in
    setups := s :: !setups;
    stop_daemon d conn
  done;
  let dir = Filename.concat ctx.Bench.tmp "daemon" in
  let d, conn_a, s = spawn ctx ~dir in
  setups := s :: !setups;
  let gc = if tracing then Gcprobe.attach ~dir ~pid:d.pid else None in
  (* Prefill the warm set (untimed) and pin its reference signature. *)
  let wspec = warm_spec seed in
  let w_ref, _ = reference ~tracing:false wspec in
  let prefill = submit_timed conn_a wspec in
  let w_jobs =
    match prefill.frame with
    | Ok f ->
        Bench.check ctx
          (str "type" f = "done" && int "exit" f = 0 && str "signature" f = w_ref)
          (Printf.sprintf "warm-set prefill: %s" (Json.to_string ~minify:true f));
        int "jobs" f
    | Error e ->
        Bench.check ctx false ("warm-set prefill: " ^ e);
        0
  in
  let conn_b =
    match Serve.Client.connect d.sock with Ok c -> c | Error e -> failwith ("connect: " ^ e)
  in
  (* The mixed window. *)
  let hits0, misses0 = cache_counts conn_a in
  let jl0, jb0 = journal_size dir in
  let t_start = Bench.now () in
  let deadline = t_start +. ctx.Bench.seconds in
  let warm_domain =
    Domain.spawn (fun () ->
        let rec loop acc = if Bench.now () >= deadline then acc else loop (submit_timed conn_b wspec :: acc) in
        loop [])
  in
  let rec cold_loop i acc =
    if Bench.now () >= deadline then List.rev acc
    else begin
      let spec = cold_spec seed i in
      cold_loop (i + 1) ((spec, submit_timed conn_a spec) :: acc)
    end
  in
  let colds = cold_loop 0 [] in
  let warms = List.rev (Domain.join warm_domain) in
  let t_end = Bench.now () in
  let hits1, misses1 = cache_counts conn_a in
  let jl1, jb1 = journal_size dir in
  Option.iter (Bench.record_gc ctx) gc;
  let daemon_rss = Pstats.peak_rss_mb (string_of_int d.pid) in
  Serve.Client.close conn_b;
  (* Check every terminal frame. *)
  let frame_ok ~what ~ok (x : timed) =
    match x.frame with
    | Ok f ->
        Bench.check ctx
          (str "type" f = "done" && str "state" f = "done" && int "exit" f = 0 && ok f)
          (Printf.sprintf "%s: %s" what (Json.to_string ~minify:true f))
    | Error e -> Bench.check ctx false (Printf.sprintf "%s: %s" what e)
  in
  let exec_ms = ref [] in
  List.iter
    (fun (spec, x) ->
      let sig_ref, dt = reference ~tracing spec in
      exec_ms := ms dt :: !exec_ms;
      frame_ok ~what:"cold job" x ~ok:(fun f ->
          int "executed" f = 1 && int "cache_hits" f = 0 && str "signature" f = sig_ref))
    colds;
  List.iter
    (frame_ok ~what:"warm job" ~ok:(fun f ->
         int "executed" f = 0 && int "cache_hits" f = w_jobs && str "signature" f = w_ref))
    warms;
  let spans_of kind (x : timed) =
    if tracing then begin
      let req = x.id in
      let root = Spans.add ~req ("serve." ^ kind) x.ts x.td in
      ignore (Spans.add ~parent:root ~req "serve.ack" x.ts x.ack);
      ignore (Spans.add ~parent:root ~req "serve.execute" x.ack x.last_p);
      ignore (Spans.add ~parent:root ~req "serve.teardown" x.last_p x.td)
    end
  in
  List.iter (fun (_, x) -> spans_of "cold" x) colds;
  List.iter (spans_of "warm") warms;
  let n_cold = List.length colds and n_warm = List.length warms in
  let window = t_end -. t_start in
  Printf.printf "  window: %d cold + %d warm jobs in %.3f s\n%!" n_cold n_warm window;
  (* Recovery passes on the workload daemon's directory. *)
  let recoveries = ref [] and restarts = ref [] in
  let d = ref d and conn = ref conn_a in
  for j = 1 to recovery_passes do
    let spec = recovery_spec seed j in
    let killed_at = ref Float.nan and seen = ref 0 in
    let victim = !d in
    let x =
      submit_timed !conn spec ~on_progress:(fun k ->
          if k = recovery_runs / 2 && Float.is_nan !killed_at then begin
            seen := k;
            killed_at := Bench.now ();
            Unix.kill victim.pid Sys.sigkill
          end)
    in
    Serve.Client.close !conn;
    reap victim.pid;
    if Float.is_nan !killed_at then
      Bench.check ctx false (Printf.sprintf "recovery pass %d: daemon finished before the kill" j)
    else begin
      let root = if tracing then Spans.start ~req:(-j) "serve.recovery" else 0 in
      let d', c', restart = spawn ctx ~dir in
      if tracing then ignore (Spans.add ~parent:root ~req:(-j) "serve.restart" !killed_at (Bench.now ()));
      let t_pong = Bench.now () in
      d := d';
      conn := c';
      restarts := ms restart :: !restarts;
      (* The journal re-enqueues the interrupted job under its id;
         poll status until that record is terminal. *)
      let rec wait k =
        if k = 0 then None
        else
          let found =
            match Serve.Client.status c' with
            | Ok st -> (
                match Json.member "jobs" st with
                | Some (Json.List js) ->
                    List.find_opt
                      (fun r ->
                        int "id" r = x.id
                        && not (List.mem (str "state" r) [ "queued"; "running" ]))
                      js
                | _ -> None)
            | Error _ -> None
          in
          match found with
          | Some r -> Some (r, Bench.now ())
          | None ->
              Unix.sleepf 0.002;
              wait (k - 1)
      in
      match wait 30000 with
      | None -> Bench.check ctx false (Printf.sprintf "recovery pass %d: resumed job never finished" j)
      | Some (r, t_done) ->
          if tracing then begin
            ignore (Spans.add ~parent:root ~req:(-j) "serve.resume" t_pong t_done);
            Spans.close root
          end;
          let recovery = t_done -. !killed_at in
          recoveries := recovery :: !recoveries;
          let hits = int "cache_hits" r and executed = int "executed" r in
          let duplicates = max 0 (!seen - hits) in
          let sig_ref, _ = reference ~tracing:false spec in
          Printf.printf
            "  recovery %d: killed after %d progress frames; resumed %d cached + %d executed in %.3f s\n%!"
            j !seen hits executed recovery;
          Bench.check ctx
            (str "state" r = "done" && int "exit" r = 0 && duplicates = 0
            && hits + executed = recovery_runs && str "signature" r = sig_ref)
            (Printf.sprintf "recovery pass %d: %s (%d duplicate executions)" j
               (Json.to_string ~minify:true r) duplicates)
    end
  done;
  stop_daemon !d !conn;
  (* In-process cache timings on this workload's own entries. *)
  let cache_dir = Filename.concat dir "cache" in
  let keys = cache_entries cache_dir in
  let cache = Runner.Cache.create ~dir:cache_dir () in
  let store = Runner.Cache.create ~dir:(Filename.concat ctx.Bench.tmp "store") () in
  let finds = ref [] and stores = ref [] in
  List.iter
    (fun key ->
      let t0 = Bench.now () in
      let r = Runner.Cache.find cache key in
      let t1 = Bench.now () in
      finds := ms (t1 -. t0) :: !finds;
      if tracing then ignore (Spans.add "cache.find" t0 t1);
      match r with
      | Some res ->
          let t0 = Bench.now () in
          Runner.Cache.store store key res;
          let t1 = Bench.now () in
          stores := ms (t1 -. t0) :: !stores;
          if tracing then ignore (Spans.add "cache.store" t0 t1)
      | None -> Bench.check ctx false ("cache entry unreadable: " ^ key))
    keys;
  (* Metrics. *)
  let cold_done = List.map (fun (_, x) -> ms (x.td -. x.ts)) colds in
  let warm_done = List.map (fun x -> ms (x.td -. x.ts)) warms in
  let acks =
    List.filter_map
      (fun x -> if Float.is_nan x.ack then None else Some (ms (x.ack -. x.ts)))
      (List.map snd colds @ warms)
  in
  let finite = List.filter (fun v -> not (Float.is_nan v)) in
  Bench.set_median ctx "setup_s" !setups;
  Bench.set ctx "proc.peak_rss_mb" (Option.value ~default:0.0 daemon_rss);
  Bench.set_median ctx "wall_s" !recoveries;
  Bench.set ~samples:(n_cold + n_warm) ctx "serve.jobs_per_s" (float_of_int (n_cold + n_warm) /. window);
  Bench.set_median ctx "done_p50_ms" cold_done;
  Bench.set_tail ctx "serve.cold_done_tail_ms" cold_done;
  Bench.set_median ctx "serve.warm_done_p50_ms" warm_done;
  Bench.set_tail ctx "serve.warm_done_tail_ms" warm_done;
  Bench.set_median ctx "serve.ack_p50_ms" acks;
  Bench.set_tail ctx "serve.ack_tail_ms" acks;
  Bench.set_median ctx "serve.first_progress_ms"
    (finite (List.map (fun (_, x) -> ms (x.first_p -. x.ack)) colds));
  Bench.set_median ctx "serve.teardown_ms"
    (finite (List.map (fun (_, x) -> ms (x.td -. x.last_p)) colds));
  Bench.set_median ctx "serve.restart_to_pong_ms" !restarts;
  Bench.set_median ctx "job.execute_ms" !exec_ms;
  Bench.set_median ctx "cache.find_ms" !finds;
  Bench.set_median ctx "cache.store_ms" !stores;
  if n_warm > 0 && w_jobs > 0 then
    Bench.set ctx "cache.hit_frac"
      (float_of_int (hits1 - hits0)
      /. float_of_int (max 1 (hits1 - hits0 + (misses1 - misses0) - n_cold)));
  let jobs = float_of_int (max 1 (n_cold + n_warm)) in
  Bench.set ctx "journal.lines_per_job" (float_of_int (jl1 - jl0) /. jobs);
  Bench.set ctx "journal.bytes_per_job" (float_of_int (jb1 - jb0) /. jobs)

let run ctx =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fun.protect ~finally:kill_all (fun () -> run_mixed ctx)
