(* Tests for the unified Job API (DESIGN.md §11): spec serialization and
   canonical stability, the content-addressed result cache (warm replays
   byte-identical to cold, -j1 = -jN, per-protocol invalidation), and
   the serve daemon end-to-end over its Unix socket. *)

open Setagree_util
open Setagree_core
open Setagree_runner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* A fresh scratch directory per test (deleted and recreated). *)
let tmpdir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fdkit_job_%s_%d" name (Unix.getpid ()))
  in
  rm_rf d;
  mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Spec generators                                                     *)
(* ------------------------------------------------------------------ *)

(* Floats are multiples of 1/4 so the JSON text round-trips exactly. *)
let qf lo hi =
  QCheck.Gen.map
    (fun i -> float_of_int i /. 4.0)
    (QCheck.Gen.int_range (lo * 4) (hi * 4))

let gen_params =
  QCheck.Gen.(
    map
      (fun ((n, t, seed), (z, k, x, y), (gst, horizon), (adversarial, variant, backend)) ->
        {
          Protocol.default with
          Protocol.n;
          t;
          seed;
          z;
          k;
          x;
          y;
          gst;
          horizon;
          adversarial;
          variant;
          backend;
        })
      (quad
         (triple (int_range 4 12) (int_range 1 4) (int_range 1 99))
         (quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 1 3))
         (pair (qf 0 50) (qf 100 400))
         (triple bool
            (oneofl [ "es"; "phi"; "psi" ])
            (oneofl [ "sim"; "rt"; "rt-chan" ]))))

let gen_bounds =
  QCheck.Gen.(
    map
      (fun ((depth, delays, walks), (max_runs, walk_batch, shrink)) ->
        {
          Explorer.default_bounds with
          Explorer.depth;
          delays;
          walks;
          max_runs_per_job = max_runs;
          walk_batch;
          shrink_budget = shrink;
        })
      (pair
         (triple (int_range 1 10) (int_range 0 4) (int_range 0 8))
         (triple (int_range 1 500) (int_range 1 8) (int_range 0 100))))

let protos = [ "kset"; "wheels"; "psi"; "consensus_s" ]

let gen_spec =
  QCheck.Gen.(
    let* p = gen_params in
    oneof
      [
        map (fun protocol -> Job.Run { protocol; params = p }) (oneofl protos);
        map2
          (fun protocol seeds -> Job.Campaign { protocol; seeds; params = p })
          (oneofl protos) (int_range 1 64);
        map2
          (fun protocols (mixes, seeds) ->
            Job.Chaos { protocols; mixes; seeds; base = p })
          (list_size (int_range 1 3) (oneofl protos))
          (pair (list_size (int_range 1 3) (oneofl Chaos.mix_names)) (int_range 1 8));
        map2
          (fun protocol bounds -> Job.Explore { protocol; params = p; bounds })
          (oneofl protos) gen_bounds;
        map
          (fun (source, path, index) -> Job.Replay { source; path; index })
          (triple
             (oneofl [ Job.Schedule_file; Job.Faults_file ])
             (oneofl [ "counterexamples.json"; "_results/chaos_failures.json" ])
             (int_bound 5));
      ])

let arb_spec = QCheck.make ~print:Job.summary gen_spec

let qcheck_spec_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Job: of_json (to_json s) = s" arb_spec
    (fun spec ->
      match Job.of_json (Job.to_json spec) with
      | Ok spec' -> Job.equal spec spec'
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e)

let qcheck_canonical_text_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Job: round-trip through canonical text"
    arb_spec (fun spec ->
      match Job.of_json (Json.of_string_exn (Job.canonical spec)) with
      | Ok spec' ->
          Job.equal spec spec'
          && Job.canonical spec = Job.canonical spec'
      | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e)

(* The canonical encoding is the basis of cache keys: pin it so an
   accidental field reorder (which would silently invalidate every
   cache on disk) fails a test instead. *)
let test_canonical_pinned () =
  let spec = Job.of_flags ~kind:`Campaign ~seeds:4 ~protocol:"kset" Protocol.default in
  Alcotest.(check string) "canonical bytes are stable"
    "{\"kind\":\"campaign\",\"protocol\":\"kset\",\"seeds\":4,\"params\":{\"n\":8,\"t\":3,\"seed\":1,\"z\":1,\"k\":1,\"x\":2,\"y\":1,\"gst\":40.0,\"horizon\":0.0,\"crashes\":{\"kind\":\"exactly\",\"crashes\":2,\"window\":[0.0,20.0]},\"faults\":{\"links\":[],\"partitions\":[],\"stalls\":[],\"crashes\":{\"kind\":\"none\"},\"adversary\":\"\"},\"legacy_poll\":false,\"legacy_queue\":false,\"adversarial\":false,\"variant\":\"es\",\"trace\":\"default\",\"backend\":\"sim\"}}"
    (Job.canonical spec)

let test_of_flags_defaults () =
  (match Job.of_flags ~kind:`Chaos ~protocol:"" ~seeds:8 Protocol.default with
  | Job.Chaos { protocols; mixes; seeds; _ } ->
      check "default protocols" true (protocols = Chaos.default_protocols);
      check "default mixes" true (mixes = Chaos.mix_names);
      check_int "seeds" 8 seeds
  | _ -> Alcotest.fail "expected Chaos");
  match Job.of_flags ~kind:`Explore ~protocol:"kset" Protocol.default with
  | Job.Explore { params; _ } ->
      check "adversarial on by default" true params.Protocol.adversarial;
      check "horizon defaulted" true (params.Protocol.horizon = 300.0)
  | _ -> Alcotest.fail "expected Explore"

let test_validate () =
  check "good spec" true
    (Job.validate (Job.of_flags ~kind:`Run ~protocol:"kset" Protocol.default)
    = Ok ());
  check "unknown protocol rejected" true
    (Result.is_error
       (Job.validate (Job.of_flags ~kind:`Run ~protocol:"nope" Protocol.default)));
  check "zero seeds rejected" true
    (Result.is_error
       (Job.validate
          (Job.of_flags ~kind:`Campaign ~seeds:0 ~protocol:"kset" Protocol.default)));
  check "missing replay file rejected" true
    (Result.is_error
       (Job.validate
          (Job.Replay
             { source = Job.Faults_file; path = "/no/such/file.json"; index = 0 })))

(* ------------------------------------------------------------------ *)
(* The result cache                                                    *)
(* ------------------------------------------------------------------ *)

let seeds = 6

let small_spec =
  Job.of_flags ~kind:`Campaign ~seeds ~protocol:"kset" Protocol.default

let execute ?fingerprint ~jobs dir =
  Job.execute ~jobs ?fingerprint ~cache:(Runner.Cache.create ~dir ()) small_spec

let test_cache_cold_warm_identical () =
  let dir = tmpdir "coldwarm" in
  let cold = (execute ~jobs:2 dir).Job.o_campaign in
  let warm = (execute ~jobs:2 dir).Job.o_campaign in
  check_int "cold executed all" seeds cold.Runner.c_executed;
  check_int "cold hit nothing" 0 cold.Runner.c_cache_hits;
  check_int "warm executed nothing" 0 warm.Runner.c_executed;
  check_int "warm hit everything" seeds warm.Runner.c_cache_hits;
  Alcotest.(check string) "warm summary byte-identical to cold"
    (Runner.signature cold) (Runner.signature warm);
  rm_rf dir

let test_cache_j1_equals_jn () =
  let dir = tmpdir "j1jn" in
  let cold = (execute ~jobs:1 dir).Job.o_campaign in
  let j1 = (execute ~jobs:1 dir).Job.o_campaign in
  let jn = (execute ~jobs:4 dir).Job.o_campaign in
  check_int "j1 warm" 0 j1.Runner.c_executed;
  check_int "jn warm" 0 jn.Runner.c_executed;
  Alcotest.(check string) "-j1 = -jN on a warm cache" (Runner.signature j1)
    (Runner.signature jn);
  Alcotest.(check string) "warm = cold" (Runner.signature cold)
    (Runner.signature j1);
  rm_rf dir

let test_cache_fingerprint_invalidation () =
  let dir = tmpdir "fp" in
  ignore (execute ~jobs:2 dir);
  (* A changed code fingerprint must miss every entry it keys. *)
  let bumped name = Fingerprint.protocol name ^ "+patch" in
  let o = (execute ~fingerprint:bumped ~jobs:2 dir).Job.o_campaign in
  check_int "bumped fingerprint misses all" seeds o.Runner.c_executed;
  check_int "no stale hits" 0 o.Runner.c_cache_hits;
  (* ... and the re-executed results must agree with the originals. *)
  let warm = (execute ~jobs:2 dir).Job.o_campaign in
  Alcotest.(check string) "same results under both fingerprints"
    (Runner.signature o) (Runner.signature warm);
  rm_rf dir

let test_cache_key_sensitivity () =
  let key parts = Runner.Cache.key ~parts in
  let base = [ "1"; "fp"; "run"; "kset"; "{\"n\":8,\"seed\":1}" ] in
  check "params change the key" true
    (key base <> key [ "1"; "fp"; "run"; "kset"; "{\"n\":8,\"seed\":2}" ]);
  check "fingerprint changes the key" true
    (key base <> key [ "1"; "fp2"; "run"; "kset"; "{\"n\":8,\"seed\":1}" ]);
  check "kind changes the key" true
    (key base <> key [ "1"; "fp"; "chaos"; "kset"; "{\"n\":8,\"seed\":1}" ]);
  check "schema version changes the key" true
    (key base <> key [ "2"; "fp"; "run"; "kset"; "{\"n\":8,\"seed\":1}" ]);
  (* Concatenation ambiguity must not collide (NUL-joined parts). *)
  check "part boundaries matter" true
    (key [ "ab"; "c" ] <> key [ "a"; "bc" ])

let test_rt_jobs_never_cached () =
  let dir = tmpdir "rt" in
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:2 ~protocol:"kset"
      { Protocol.default with Protocol.backend = "rt-chan" }
  in
  (* No rt runner is installed in the test binary: jobs fail with a
     note, but the cache question is orthogonal — nothing may be
     stored or resolved for an rt backend. *)
  let cache = Runner.Cache.create ~dir () in
  let o = Job.execute ~jobs:1 ~cache spec in
  check_int "nothing cached" 0 (Runner.Cache.stores cache);
  check_int "nothing hit" 0 o.Job.o_campaign.Runner.c_cache_hits;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* The serve daemon, end to end                                        *)
(* ------------------------------------------------------------------ *)

let daemon_config dir ~cache =
  {
    Serve.default_config with
    Serve.socket_path = Filename.concat dir "fdkit.sock";
    cache_dir = (if cache then Some (Filename.concat dir "cache") else None);
    jobs = Some 2;
    out_dir = dir;
    log = ignore;
  }

let start_daemon config =
  let d = Domain.spawn (fun () -> Serve.serve ~config ()) in
  let rec wait n =
    if n = 0 then Alcotest.fail "daemon socket never appeared"
    else if not (Sys.file_exists config.Serve.socket_path) then begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 100;
  d

let connect config =
  match Serve.Client.connect config.Serve.socket_path with
  | Ok conn -> conn
  | Error e -> Alcotest.fail e

let expect = function Ok v -> v | Error e -> Alcotest.fail e

let frame_type v =
  match Json.member "type" v with Some (Json.String s) -> s | _ -> "?"

let test_daemon_submit_stream_status_shutdown () =
  let dir = tmpdir "daemon" in
  let config = daemon_config dir ~cache:true in
  let d = start_daemon config in
  let conn = connect config in
  (* ping *)
  check "pong" true (frame_type (expect (Serve.Client.ping conn)) = "pong");
  (* cold submit: ack, one progress frame per job, done *)
  let progress = ref 0 and cached = ref 0 in
  let on_event v =
    if frame_type v = "progress" then begin
      incr progress;
      if Json.member "cached" v = Some (Json.Bool true) then incr cached
    end
  in
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "terminal frame is done" true (frame_type v = "done");
  check "exit 0" true (Json.member "exit" v = Some (Json.Int 0));
  check_int "one progress frame per job" seeds !progress;
  check_int "cold run hit nothing" 0 !cached;
  check "cold executed" true (Json.member "executed" v = Some (Json.Int seeds));
  let sig_cold = Json.member "signature" v in
  (* warm resubmit: same signature, zero executed, all frames cached *)
  progress := 0;
  cached := 0;
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "warm executed nothing" true
    (Json.member "executed" v = Some (Json.Int 0));
  check "warm hit everything" true
    (Json.member "cache_hits" v = Some (Json.Int seeds));
  check_int "warm frames all cached" seeds !cached;
  check "warm signature = cold signature" true
    (Json.member "signature" v = sig_cold);
  (* the daemon wrote the usual campaign artifact into out_dir *)
  check "artifact written" true
    (Sys.file_exists (Filename.concat dir "BENCH_kset.json"));
  (* a rejected spec acks accepted=false and does not kill the session *)
  let bad = Job.of_flags ~kind:`Run ~protocol:"nope" Protocol.default in
  let v = expect (Serve.Client.submit conn bad) in
  check "rejected ack" true
    (frame_type v = "ack"
    && Json.member "accepted" v = Some (Json.Bool false));
  (* status: 3 records (2 done, 1 rejected) + live cache counters *)
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List records) -> check_int "history length" 3 (List.length records)
  | _ -> Alcotest.fail "status has no jobs list");
  (match Json.member "cache" v with
  | Some (Json.Obj _ as cache) ->
      check "cache hits counted" true
        (match Json.member "hits" cache with
        | Some (Json.Int h) -> h >= seeds
        | _ -> false)
  | _ -> Alcotest.fail "status has no cache counters");
  check "bye" true (frame_type (expect (Serve.Client.shutdown conn)) = "bye");
  Serve.Client.close conn;
  Domain.join d;
  check "socket removed on shutdown" false
    (Sys.file_exists config.Serve.socket_path);
  rm_rf dir

(* Cancellation is consumed between job submissions, so the exact stop
   point is timing-dependent; the invariants are not: a done frame
   always arrives, its state is done or cancelled, and a cancelled
   campaign keeps (and counts) only completed jobs. *)
let test_daemon_cancel () =
  let dir = tmpdir "cancel" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let total = 40 in
  let spec = Job.of_flags ~kind:`Campaign ~seeds:total ~protocol:"kset" Protocol.default in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  Serve.Client.cancel conn;
  let rec drain () =
    let v = expect (Serve.Client.next_frame conn) in
    if frame_type v = "done" then v else drain ()
  in
  let v = drain () in
  let state =
    match Json.member "state" v with Some (Json.String s) -> s | _ -> "?"
  in
  check "terminal state" true (state = "cancelled" || state = "done");
  (match (Json.member "jobs" v, Json.member "executed" v) with
  | Some (Json.Int jobs), Some (Json.Int executed) ->
      check "kept = executed (no cache)" true (jobs = executed);
      if state = "cancelled" then
        check "cancelled kept a strict prefix" true (jobs < total)
      else check_int "finished everything" total jobs
  | _ -> Alcotest.fail "done frame missing jobs/executed");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* Client hang-up while a campaign runs must cancel the remainder (the
   daemon survives and serves the next connection). *)
let test_daemon_eof_cancels () =
  let dir = tmpdir "eof" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let spec = Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  Serve.Client.close conn;
  (* The daemon must notice the hang-up, finish the record, and accept a
     fresh connection. *)
  let conn = connect config in
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no record of the abandoned job");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Live telemetry plane                                                *)
(* ------------------------------------------------------------------ *)

(* Telemetry is strictly read-side: a subscribed run must deliver at
   least one snapshot frame (the final flush after the joins is
   unconditional), stop delivering after unsubscribe, and leave the
   campaign signature untouched either way. *)
let test_daemon_telemetry_subscription () =
  let dir = tmpdir "telemetry" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  Serve.Client.subscribe conn;
  let telemetry = ref 0 and acked = ref false and complete = ref false in
  let on_event v =
    match frame_type v with
    | "subscribed" -> acked := true
    | "telemetry" ->
        incr telemetry;
        (match (Json.member "done" v, Json.member "total" v) with
        | Some (Json.Int dn), Some (Json.Int tot) ->
            check "done <= total" true (dn <= tot);
            if dn = tot then complete := true
        | _ -> Alcotest.fail "telemetry frame missing done/total");
        check "telemetry names the job" true (Json.member "id" v <> None);
        check "telemetry carries counters" true
          (match Json.member "counters" v with
          | Some (Json.Obj _) -> true
          | _ -> false)
    | _ -> ()
  in
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "done" true (frame_type v = "done");
  check "subscription acked" true !acked;
  check "at least one snapshot" true (!telemetry >= 1);
  check "final snapshot is complete" true !complete;
  let sig_subscribed = Json.member "signature" v in
  (* unsubscribe: frames stop, the execution must not change *)
  Serve.Client.unsubscribe conn;
  telemetry := 0;
  let unsub_acked = ref false in
  let on_event v =
    match frame_type v with
    | "unsubscribed" -> unsub_acked := true
    | "telemetry" -> incr telemetry
    | _ -> ()
  in
  let v = expect (Serve.Client.submit ~on_event conn small_spec) in
  check "done again" true (frame_type v = "done");
  check "unsubscription acked" true !unsub_acked;
  check_int "no frames once unsubscribed" 0 !telemetry;
  check "telemetry left the signature alone" true
    (Json.member "signature" v = sig_subscribed);
  (* the freshness stamp is kept even for the unsubscribed run *)
  let v = expect (Serve.Client.status conn) in
  check "status has queue depth" true
    (Json.member "queue_depth" v = Some (Json.Int 0));
  (match Json.member "jobs" v with
  | Some (Json.List records) ->
      check "finished records carry phase + telemetry age" true
        (List.for_all
           (fun r ->
             Json.member "phase" r = Some (Json.String "finished")
             &&
             match Json.member "telemetry_age_s" r with
             | Some (Json.Float _) -> true
             | _ -> false)
           records)
  | _ -> Alcotest.fail "status has no jobs list");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* Toggling the subscription while a campaign runs exercises the
   stop-hook poller: every toggle is eventually acked (mid-run by the
   poller, after the run by the main frame loop), the job finishes
   clean, and the daemon keeps serving. *)
let test_daemon_subscription_races () =
  let dir = tmpdir "races" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let toggles = 8 in
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default
  in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  for _ = 1 to toggles do
    Serve.Client.subscribe conn;
    Serve.Client.unsubscribe conn
  done;
  let acks = ref 0 in
  let count v =
    match frame_type v with
    | "subscribed" | "unsubscribed" -> incr acks
    | _ -> ()
  in
  let rec drain () =
    let v = expect (Serve.Client.next_frame conn) in
    count v;
    if frame_type v = "done" then v else drain ()
  in
  let v = drain () in
  check "finished clean" true (Json.member "exit" v = Some (Json.Int 0));
  (* toggles the poller missed are answered by the post-run frame loop *)
  while !acks < 2 * toggles do
    count (expect (Serve.Client.next_frame conn))
  done;
  check_int "every toggle acked" (2 * toggles) !acks;
  check "daemon still answers" true
    (frame_type (expect (Serve.Client.ping conn)) = "pong");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* A subscriber that vanishes mid-telemetry-stream must not take the
   daemon down: writes to the dead socket are swallowed, the run is
   wound down through the usual EOF path, and the next connection is
   served normally. *)
let test_daemon_disconnect_mid_stream () =
  let dir = tmpdir "midstream" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  Serve.Client.subscribe conn;
  check "subscribed" true
    (frame_type (expect (Serve.Client.next_frame conn)) = "subscribed");
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default
  in
  let ack =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  check "accepted" true (Json.member "accepted" ack = Some (Json.Bool true));
  (* consume one in-flight frame, then hang up with the stream open *)
  ignore (expect (Serve.Client.next_frame conn));
  Serve.Client.close conn;
  let conn = connect config in
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "no record of the abandoned job");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* The decoder contract the daemon's [poll_frames] and every [--follow]
   client rely on: a connection that dies mid-telemetry-frame leaves a
   truncated line; on reconnect-resync the bad line is reported once and
   decoding continues with the next valid frame. *)
let test_stream_decoder_mid_telemetry_cut () =
  let frame seq dn =
    Printf.sprintf
      "{\"type\":\"telemetry\",\"id\":1,\"seq\":%d,\"done\":%d,\"total\":8}" seq dn
  in
  let dec = Json.Stream.decoder () in
  Json.Stream.feed dec (frame 0 2 ^ "\n");
  (match Json.Stream.next dec with
  | `Value v -> check "first frame" true (frame_type v = "telemetry")
  | _ -> Alcotest.fail "expected first telemetry frame");
  (* the peer dies mid-frame: half a telemetry line, no newline *)
  let cut = String.sub (frame 1 4) 0 20 in
  Json.Stream.feed dec cut;
  check "partial frame awaits" true (Json.Stream.next dec = `Await);
  check "partial bytes buffered" true (Json.Stream.pending dec > 0);
  (* resync: the rest of the stream starts at a fresh frame, so the
     spliced line is garbage — reported as one error, then recovery *)
  Json.Stream.feed dec ("\n" ^ frame 2 6 ^ "\n");
  (match Json.Stream.next dec with
  | `Error _ -> ()
  | _ -> Alcotest.fail "truncated line must surface as an error");
  (match Json.Stream.next dec with
  | `Value v ->
      check "decoder recovered" true
        (frame_type v = "telemetry"
        && Json.member "seq" v = Some (Json.Int 2))
  | _ -> Alcotest.fail "expected recovery after the bad line");
  check "decoder drained" true (Json.Stream.next dec = `Await)

(* ------------------------------------------------------------------ *)
(* Crash safety: journal replay, queueing, restart, watchdog           *)
(* ------------------------------------------------------------------ *)

let pool_specs =
  [|
    Job.of_flags ~kind:`Campaign ~seeds:2 ~protocol:"kset" Protocol.default;
    Job.of_flags ~kind:`Campaign ~seeds:3 ~protocol:"wheels" Protocol.default;
    Job.of_flags ~kind:`Run ~protocol:"psi" Protocol.default;
  |]

type jevent =
  | Accept of int * int  (* id, pool spec index *)
  | Term of int * string  (* id, terminal state *)
  | Noise of int  (* non-terminal transitions and unknown entry types *)

let jevent_entry = function
  | Accept (id, s) -> Serve.Recovery.accepted_entry ~id pool_specs.(s)
  | Term (id, st) ->
      Serve.Recovery.state_entry ~id
        ~extra:
          [
            ("exit", Json.Int 0);
            ("signature", Json.String (Printf.sprintf "sig%d" id));
          ]
        st
  | Noise 0 -> Serve.Recovery.state_entry ~id:1 "running"
  | Noise 1 -> Serve.Recovery.state_entry ~id:1 "retrying"
  | Noise _ -> Json.Obj [ ("type", Json.String "wat") ]

(* Reference replay semantics, folded independently of the production
   loader: first accept per id wins, first terminal entry per accepted
   id wins, pending keeps acceptance order. *)
let expected_replay events =
  let accepted = Hashtbl.create 8 and order = ref [] in
  let finished = Hashtbl.create 8 and forder = ref [] in
  let next = ref 1 in
  List.iter
    (function
      | Accept (id, s) when not (Hashtbl.mem accepted id) ->
          Hashtbl.replace accepted id s;
          order := id :: !order;
          if id >= !next then next := id + 1
      | Term (id, st) when Hashtbl.mem accepted id && not (Hashtbl.mem finished id)
        ->
          Hashtbl.replace finished id st;
          forder := id :: !forder
      | _ -> ())
    events;
  let completed = List.rev_map (fun id -> (id, Hashtbl.find finished id)) !forder in
  let pending =
    List.rev !order
    |> List.filter (fun id -> not (Hashtbl.mem finished id))
    |> List.map (fun id -> (id, Job.canonical pool_specs.(Hashtbl.find accepted id)))
  in
  (completed, pending, !next)

let gen_jevent =
  QCheck.Gen.(
    let* id = int_range 1 6 in
    oneof
      [
        map (fun s -> Accept (id, s)) (int_range 0 2);
        map
          (fun st -> Term (id, st))
          (oneofl [ "done"; "cancelled"; "poisoned"; "rejected" ]);
        oneofl [ Noise 0; Noise 1; Noise 2 ];
      ])

(* The recovery invariant the restart path rests on: however the journal
   is cut (a crash can stop a write at any byte), the replayed view is
   exactly the reference fold over the surviving complete lines — no
   duplicated terminal records, no resurrected jobs, no exception. *)
let qcheck_recovery_replay =
  QCheck.Test.make ~count:60
    ~name:"Recovery: truncated journal replays a consistent prefix"
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 0 30) gen_jevent) (int_range 0 max_int)))
    (fun (events, cutraw) ->
      let dir = tmpdir "recovery_qc" in
      let jpath = Serve.journal_path dir in
      let t = Journal.append_open ~fsync:false jpath in
      List.iter (fun e -> Journal.append t (jevent_entry e)) events;
      Journal.close t;
      let contents = In_channel.with_open_bin jpath In_channel.input_all in
      let size = String.length contents in
      let cut = cutraw mod (size + 1) in
      let lines = ref 0 in
      String.iteri (fun i c -> if i < cut && c = '\n' then incr lines) contents;
      let surviving = max 0 (!lines - 1) in
      let fd = Unix.openfile jpath [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let r = Serve.Recovery.load jpath in
      let ecompleted, epending, enext =
        expected_replay (List.filteri (fun i _ -> i < surviving) events)
      in
      let got_completed =
        List.map
          (fun (f : Serve.Recovery.completed) ->
            (f.Serve.Recovery.f_id, Serve.state_to_string f.f_state))
          r.Serve.Recovery.completed
      in
      let got_pending =
        List.map
          (fun (p : Serve.Recovery.pending) ->
            (p.Serve.Recovery.p_id, Job.canonical p.p_spec))
          r.Serve.Recovery.pending
      in
      let ok =
        got_completed = ecompleted && got_pending = epending
        && r.Serve.Recovery.next_id = enext
      in
      rm_rf dir;
      ok)

(* The bounded FIFO: a second spec queues behind the running job, the
   same spec attaches instead of duplicating, a third spec is shed with
   an explicit queue-full rejection, and a queued job cancels
   immediately. *)
let test_daemon_queue_full_dedup_cancel () =
  let dir = tmpdir "queue" in
  let config =
    { (daemon_config dir ~cache:false) with Serve.queue_depth = 1; jobs = Some 1 }
  in
  let d = start_daemon config in
  let conn1 = connect config in
  let spec_a =
    Job.of_flags ~kind:`Campaign ~seeds:40 ~protocol:"kset" Protocol.default
  in
  let spec_b =
    Job.of_flags ~kind:`Campaign ~seeds:41 ~protocol:"kset" Protocol.default
  in
  let spec_c =
    Job.of_flags ~kind:`Campaign ~seeds:42 ~protocol:"kset" Protocol.default
  in
  let submit_raw conn spec =
    expect
      (Serve.Client.request conn
         (Json.Obj [ ("op", Json.String "submit"); ("spec", Job.to_json spec) ]))
  in
  let ack_a = submit_raw conn1 spec_a in
  check "A accepted" true (Json.member "accepted" ack_a = Some (Json.Bool true));
  (* Wait until A occupies the executor so B lands in the queue. *)
  let conn2 = connect config in
  let rec wait_running n =
    if n = 0 then Alcotest.fail "job A never started running";
    match Json.member "running" (expect (Serve.Client.status conn2)) with
    | Some (Json.Int _) -> ()
    | _ ->
        Unix.sleepf 0.02;
        wait_running (n - 1)
  in
  wait_running 200;
  let ack_b = submit_raw conn2 spec_b in
  check "B accepted" true (Json.member "accepted" ack_b = Some (Json.Bool true));
  check "B queued at position 1" true
    (Json.member "position" ack_b = Some (Json.Int 1));
  let b_id = match Json.member "id" ack_b with Some (Json.Int i) -> i | _ -> -1 in
  let conn3 = connect config in
  (* Same canonical spec: attach to B's record, no duplicate execution. *)
  let ack_b2 = submit_raw conn3 spec_b in
  check "resubmit attached" true
    (Json.member "attached" ack_b2 = Some (Json.Bool true));
  check "attached to the same id" true
    (Json.member "id" ack_b2 = Some (Json.Int b_id));
  (* Queue full (depth 1, B holds the slot): explicit shed, no record. *)
  let ack_c = submit_raw conn3 spec_c in
  check "C rejected" true
    (Json.member "accepted" ack_c = Some (Json.Bool false));
  check "C rejection names the queue" true
    (Json.member "rejected" ack_c = Some (Json.String "queue full"));
  (match Json.member "jobs" (expect (Serve.Client.status conn3)) with
  | Some (Json.List records) ->
      check_int "shed submission left no record" 2 (List.length records)
  | _ -> Alcotest.fail "status has no jobs list");
  (* Cancel B while queued: immediate done frame, state cancelled. *)
  Serve.Client.cancel conn2;
  let rec drain_done conn =
    let v = expect (Serve.Client.next_frame conn) in
    if frame_type v = "done" then v else drain_done conn
  in
  let v = drain_done conn2 in
  check "cancelled B" true (Json.member "id" v = Some (Json.Int b_id));
  check "queued cancel is immediate" true
    (Json.member "state" v = Some (Json.String "cancelled"));
  check "cancelled exit code" true (Json.member "exit" v = Some (Json.Int 4));
  (* A still runs to completion on conn1. *)
  let v = drain_done conn1 in
  check "A finished" true (Json.member "state" v = Some (Json.String "done"));
  ignore (expect (Serve.Client.shutdown conn3));
  Serve.Client.close conn1;
  Serve.Client.close conn2;
  Serve.Client.close conn3;
  Domain.join d;
  rm_rf dir

(* Restart resumes: a finished job is replayed into [status] from the
   journal; an interrupted (accepted+running, no terminal entry) job is
   re-enqueued and — with the cache intact — re-resolves to the same
   signature without executing anything; a stale socket file left by a
   crash is swept; a second daemon on a live socket is refused. *)
let test_daemon_restart_resume () =
  let dir = tmpdir "restart" in
  let config = daemon_config dir ~cache:true in
  let d = start_daemon config in
  let conn = connect config in
  let v = expect (Serve.Client.submit conn small_spec) in
  check "cold run done" true (frame_type v = "done");
  let sig_cold = Json.member "signature" v in
  (* A second daemon pointed at the live socket must refuse, not steal. *)
  (try
     Serve.serve
       ~config:{ config with Serve.out_dir = Filename.concat dir "other" }
       ();
     Alcotest.fail "second daemon bound a live socket"
   with Failure e -> check "live socket refused" true (e <> ""));
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  (* Restart on the same journal: the finished job is replayed. *)
  let d = start_daemon config in
  let conn = connect config in
  let v = expect (Serve.Client.status conn) in
  (match Json.member "jobs" v with
  | Some (Json.List [ r ]) ->
      check "replayed record is done" true
        (Json.member "state" r = Some (Json.String "done"));
      check "replayed record keeps its signature" true
        (Json.member "signature" r = sig_cold)
  | _ -> Alcotest.fail "restart did not replay exactly one record");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  (* Crash scenario: fabricate the journal a kill -9 would leave —
     accepted + running, no terminal entry — plus a stale socket file,
     against the warm cache.  The restart must sweep the socket, requeue
     the job and resolve it entirely from the cache. *)
  let dir2 = Filename.concat dir "after_crash" in
  let config2 =
    {
      config with
      Serve.out_dir = dir2;
      socket_path = Filename.concat dir "fdkit2.sock";
    }
  in
  let t = Journal.append_open (Serve.journal_path dir2) in
  Journal.append t (Serve.Recovery.accepted_entry ~id:7 small_spec);
  Journal.append t (Serve.Recovery.state_entry ~id:7 "running");
  Journal.close t;
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX config2.Serve.socket_path);
  Unix.close stale;
  check "stale socket file present" true
    (Sys.file_exists config2.Serve.socket_path);
  let d = Domain.spawn (fun () -> Serve.serve ~config:config2 ()) in
  let conn =
    match
      Serve.Client.connect_retry ~attempts:8 ~backoff_s:0.05
        config2.Serve.socket_path
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let rec wait_done n =
    if n = 0 then Alcotest.fail "resumed job never finished";
    match Json.member "jobs" (expect (Serve.Client.status conn)) with
    | Some (Json.List [ r ]) when Json.member "state" r = Some (Json.String "done")
      ->
        r
    | _ ->
        Unix.sleepf 0.05;
        wait_done (n - 1)
  in
  let r = wait_done 200 in
  check "resumed job kept its id" true (Json.member "id" r = Some (Json.Int 7));
  check "resumed flag set" true
    (Json.member "resumed" r = Some (Json.Bool true));
  check "resumed entirely from cache" true
    (Json.member "executed" r = Some (Json.Int 0));
  check "every seed was a cache hit" true
    (Json.member "cache_hits" r = Some (Json.Int seeds));
  check "resumed signature = cold signature" true
    (Json.member "signature" r = sig_cold);
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* The watchdog: a job that blows its per-attempt deadline is retried
   with backoff (announced with a retry frame) and, once the budget is
   spent, poisoned — exit 6, counted, and quarantined with a
   ready-to-paste resubmission spec on disk. *)
let test_daemon_deadline_retry_poison () =
  let dir = tmpdir "poison" in
  let config =
    {
      (daemon_config dir ~cache:false) with
      Serve.default_deadline_s = 0.05;
      retry_budget = 1;
      retry_backoff_s = 0.01;
    }
  in
  let d = start_daemon config in
  let conn = connect config in
  let spec =
    Job.of_flags ~kind:`Campaign ~seeds:200 ~protocol:"kset" Protocol.default
  in
  let retries = ref 0 in
  let on_event v = if frame_type v = "retry" then incr retries in
  let v = expect (Serve.Client.submit ~on_event conn spec) in
  check "terminal frame is done" true (frame_type v = "done");
  check "poisoned" true (Json.member "state" v = Some (Json.String "poisoned"));
  check "poison exit code" true (Json.member "exit" v = Some (Json.Int 6));
  check_int "one retry before poisoning" 1 !retries;
  check "deadline named as the reason" true
    (match Json.member "reason" v with
    | Some (Json.String r) -> String.length r > 0
    | _ -> false);
  (match Json.member "replay" v with
  | Some (Json.String cmd) ->
      check "replay command present" true
        (String.length cmd > 0
        && String.length cmd > 13
        && String.sub cmd 0 13 = "fdkit submit ");
      (* the quarantined spec on disk round-trips to the original *)
      let path = String.sub cmd 20 (String.length cmd - 20) in
      check "poison spec round-trips" true
        (match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
        | Ok j -> (
            match Job.of_json j with
            | Ok s -> Job.equal s spec
            | Error _ -> false)
        | Error _ -> false)
  | _ -> Alcotest.fail "done frame has no replay command");
  let v = expect (Serve.Client.status conn) in
  (match Json.member "counters" v with
  | Some counters ->
      check "retry counted" true
        (Json.member "jobs_retried" counters = Some (Json.Int 1));
      check "poison counted" true
        (Json.member "jobs_poisoned" counters = Some (Json.Int 1))
  | None -> Alcotest.fail "status has no counters");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Hardening: slow consumers, the connection cap, a second daemon      *)
(* ------------------------------------------------------------------ *)

(* A client that floods [status] ops and never reads a reply is shed
   once its unread backlog passes the daemon's outbound cap (8 MiB); all
   the while another connection's ping is answered promptly. *)
let test_daemon_slow_consumer_shed () =
  let dir = tmpdir "flood" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  let flood = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect flood (Unix.ADDR_UNIX config.Serve.socket_path);
  (* A daemon that stopped reading would block the flood forever. *)
  Unix.setsockopt_float flood Unix.SO_SNDTIMEO 10.;
  let chunk =
    String.concat "" (List.init 1024 (fun _ -> "{\"op\":\"status\"}\n"))
  in
  let rec pump sent =
    if sent > 64 * 1024 * 1024 then Alcotest.fail "flooding client never shed";
    match Unix.write_substring flood chunk 0 (String.length chunk) with
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ()
    | n ->
        let t0 = Unix.gettimeofday () in
        check "pong while another client floods" true
          (frame_type (expect (Serve.Client.ping conn)) = "pong");
        check "ping answered promptly" true (Unix.gettimeofday () -. t0 < 2.0);
        pump (sent + n)
  in
  pump 0;
  Unix.close flood;
  check "daemon still serves after the shed" true
    (frame_type (expect (Serve.Client.status conn)) = "status");
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

(* Connections beyond the daemon's cap get an [error] frame instead of
   a session; the connections already open keep being served, and a
   slot freed by a hang-up is reusable. *)
let test_daemon_connection_cap () =
  let dir = tmpdir "cap" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  (* A refused connection may already be closed when the ping goes out;
     its error frame is still waiting in the receive buffer. *)
  let hello c =
    match Serve.Client.ping c with
    | Ok v -> frame_type v
    | Error _ -> (
        match Serve.Client.next_frame c with Ok v -> frame_type v | Error _ -> "?")
  in
  let rec open_until_refused kept =
    if List.length kept > 1000 then Alcotest.fail "no connection cap";
    let c = connect config in
    match hello c with
    | "pong" -> open_until_refused (c :: kept)
    | "error" ->
        Serve.Client.close c;
        kept
    | other -> Alcotest.fail ("unexpected first frame " ^ other)
  in
  let kept = open_until_refused [] in
  check "some connections admitted" true (kept <> []);
  List.iter
    (fun c ->
      check "admitted connection still served" true
        (frame_type (expect (Serve.Client.ping c)) = "pong"))
    kept;
  let last = List.hd kept and kept = List.tl kept in
  Serve.Client.close last;
  let rec reuse n =
    if n = 0 then Alcotest.fail "freed slot never reusable";
    let c = connect config in
    if hello c = "pong" then c
    else begin
      Serve.Client.close c;
      Unix.sleepf 0.02;
      reuse (n - 1)
    end
  in
  let c = reuse 200 in
  ignore (expect (Serve.Client.shutdown c));
  Serve.Client.close c;
  List.iter Serve.Client.close kept;
  Domain.join d;
  rm_rf dir

(* The daemon lock is an fcntl lock, which is per process: the second
   daemon has to be another process.  [test_job.exe second-daemon DIR
   SOCKET] runs [Serve.serve] on DIR and exits 3 if it raises
   [Failure]. *)
let second_daemon_main out_dir socket_path =
  let config =
    { Serve.default_config with out_dir; socket_path; cache_dir = None }
  in
  match Serve.serve ~config () with
  | () -> exit 0
  | exception Failure _ -> exit 3

(* A second daemon on the same out_dir (on another socket, so only the
   lock can stop it) must refuse to start without touching the
   incumbent's journal: same inode, same bytes, and the incumbent keeps
   appending to it. *)
let test_daemon_second_start_refused () =
  let dir = tmpdir "second" in
  let config = daemon_config dir ~cache:false in
  let d = start_daemon config in
  let conn = connect config in
  ignore (expect (Serve.Client.submit conn small_spec));
  let jpath = Serve.journal_path dir in
  let snapshot () =
    ((Unix.stat jpath).Unix.st_ino, In_channel.with_open_bin jpath In_channel.input_all)
  in
  let ino, bytes = snapshot () in
  let other_sock = Filename.concat dir "second.sock" in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "second-daemon"; dir; other_sock |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let rec wait n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when n = 0 ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "second daemon started on a locked out_dir"
    | 0, _ ->
        Unix.sleepf 0.05;
        wait (n - 1)
    | _, status -> status
  in
  check "second daemon raised Failure" true (wait 400 = Unix.WEXITED 3);
  check "second daemon never bound its socket" false (Sys.file_exists other_sock);
  let ino', bytes' = snapshot () in
  check "journal keeps its inode" true (ino = ino');
  check "journal keeps its bytes" true (bytes = bytes');
  let other = Job.of_flags ~kind:`Campaign ~seeds:2 ~protocol:"kset" Protocol.default in
  ignore (expect (Serve.Client.submit conn other));
  let ino'', bytes'' = snapshot () in
  check "incumbent still journals into the same file" true
    (ino'' = ino && String.length bytes'' > String.length bytes);
  ignore (expect (Serve.Client.shutdown conn));
  Serve.Client.close conn;
  Domain.join d;
  rm_rf dir

let () =
  (match Sys.argv with
  | [| _; "second-daemon"; out_dir; socket_path |] ->
      second_daemon_main out_dir socket_path
  | _ -> ());
  let qc =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]))
      [ qcheck_spec_roundtrip; qcheck_canonical_text_roundtrip ]
  in
  Alcotest.run "job"
    [
      ( "spec",
        [
          Alcotest.test_case "canonical pinned" `Quick test_canonical_pinned;
          Alcotest.test_case "of_flags defaults" `Quick test_of_flags_defaults;
          Alcotest.test_case "validate" `Quick test_validate;
        ]
        @ qc );
      ( "cache",
        [
          Alcotest.test_case "cold/warm byte-identical" `Quick
            test_cache_cold_warm_identical;
          Alcotest.test_case "-j1 = -jN warm" `Quick test_cache_j1_equals_jn;
          Alcotest.test_case "fingerprint invalidation" `Quick
            test_cache_fingerprint_invalidation;
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "rt never cached" `Quick test_rt_jobs_never_cached;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit/stream/status/shutdown" `Quick
            test_daemon_submit_stream_status_shutdown;
          Alcotest.test_case "cancel" `Quick test_daemon_cancel;
          Alcotest.test_case "eof cancels" `Quick test_daemon_eof_cancels;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "subscribe/unsubscribe + inertness" `Quick
            test_daemon_telemetry_subscription;
          Alcotest.test_case "mid-run toggle races" `Quick
            test_daemon_subscription_races;
          Alcotest.test_case "disconnect mid-stream" `Quick
            test_daemon_disconnect_mid_stream;
          Alcotest.test_case "decoder survives mid-frame cut" `Quick
            test_stream_decoder_mid_telemetry_cut;
        ] );
      ( "recovery",
        [
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 42 |])
            qcheck_recovery_replay;
          Alcotest.test_case "queue full / dedup attach / cancel queued" `Quick
            test_daemon_queue_full_dedup_cancel;
          Alcotest.test_case "restart replay + crash resume" `Quick
            test_daemon_restart_resume;
          Alcotest.test_case "deadline retry then poison" `Quick
            test_daemon_deadline_retry_poison;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "slow consumer shed, others served" `Quick
            test_daemon_slow_consumer_shed;
          Alcotest.test_case "connection cap answers with an error" `Quick
            test_daemon_connection_cap;
          Alcotest.test_case "second daemon refused, journal untouched" `Quick
            test_daemon_second_start_refused;
        ] );
    ]
