(* Tests for the event-driven scheduler (Sim.Cond): condition mechanics,
   observability counters, golden execution fingerprints and the
   allocation profile.

   The golden rows pin the engine's executions — decisions with times,
   rounds, stop reason, event count, end time and the checker's verdict —
   over the cases the differential suite used to run against the two
   engines this one replaced: a scheduler that re-evaluated every blocked
   predicate after every event, and a closure-per-event queue without
   delivery batching.  Every row was generated with the compared engines
   agreeing (see each table), so a row still pins down the
   signal-completeness of the substrates: a state change a predicate
   reads that fails to signal its condition leaves asleep a fiber the
   re-poll scheduler would have woken, and the fingerprint moves.  An
   allocation suite asserts the steady state promotes nothing. *)

open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd
open Setagree_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Condition mechanics --- *)

let test_signal_wakes_when_pred_holds () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let c = Sim.Cond.create sim in
  let flag = ref false in
  let woke_at = ref (-1.0) in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ] (fun () -> !flag);
      woke_at := Sim.now sim);
  Sim.schedule sim ~delay:3.0 (fun () ->
      flag := true;
      Sim.Cond.signal c);
  ignore (Sim.run sim);
  Alcotest.(check (float 1e-9)) "woken at the signalling event" 3.0 !woke_at

let test_signal_with_false_pred_keeps_blocked () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let c = Sim.Cond.create sim in
  let woke = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ] (fun () -> false);
      woke := true);
  Sim.schedule sim ~delay:1.0 (fun () -> Sim.Cond.signal c);
  ignore (Sim.run sim);
  check "spurious signal did not wake" false !woke

let test_no_signal_no_reevaluation () =
  (* The whole point: a condition waiter's predicate is NOT re-evaluated by
     unrelated events. *)
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let c = Sim.Cond.create sim in
  let evals = ref 0 in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ]
        (fun () ->
          incr evals;
          false));
  for i = 1 to 50 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> ())
  done;
  ignore (Sim.run sim);
  check_int "evaluated once, at block time" 1 !evals

let test_poll_cond_reevaluated_every_event () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let evals = ref 0 in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await
        [ Sim.Cond.poll sim ]
        (fun () ->
          incr evals;
          false));
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> ())
  done;
  ignore (Sim.run sim);
  (* Block-time evaluation + one per subsequent event. *)
  check "re-evaluated at each event" true (!evals >= 10)

let test_any_of_several_conds_wakes () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let a = Sim.Cond.create sim and b = Sim.Cond.create sim in
  let flag = ref false in
  let woke = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ a; b ] (fun () -> !flag);
      woke := true);
  Sim.schedule sim ~delay:2.0 (fun () ->
      flag := true;
      Sim.Cond.signal b);
  ignore (Sim.run sim);
  check "second condition suffices" true !woke

let test_foreign_cond_rejected () =
  let sim = Sim.create ~n:2 ~t:0 ~seed:1 () in
  let other = Sim.create ~n:2 ~t:0 ~seed:2 () in
  let c = Sim.Cond.create other in
  Sim.spawn sim ~pid:0 (fun () -> Sim.Cond.await [ c ] (fun () -> true));
  check "foreign condition rejected" true
    (try
       ignore (Sim.run sim);
       false
     with Invalid_argument _ -> true)

let test_crashed_waiter_dropped_not_resumed () =
  let sim = Sim.create ~n:3 ~t:1 ~seed:1 () in
  Sim.install_crashes sim [ (0, 5.0) ];
  let c = Sim.Cond.create sim in
  let flag = ref false in
  let woke = ref false in
  Sim.spawn sim ~pid:0 (fun () ->
      Sim.Cond.await [ c ] (fun () -> !flag);
      woke := true);
  Sim.schedule sim ~delay:10.0 (fun () ->
      flag := true;
      Sim.Cond.signal c);
  ignore (Sim.run sim);
  check "crashed fiber never resumed" false !woke

let test_zero_time_wakeup_chain () =
  (* Waking one fiber signals the next at the same instant: the drain must
     iterate to a fixpoint within the event. *)
  let sim = Sim.create ~n:4 ~t:0 ~seed:1 () in
  let conds = Array.init 3 (fun _ -> Sim.Cond.create sim) in
  let stage = ref 0 in
  let done_at = ref (-1.0) in
  for i = 0 to 2 do
    Sim.spawn sim ~pid:i (fun () ->
        Sim.Cond.await [ conds.(i) ] (fun () -> !stage >= i + 1);
        if i < 2 then begin
          stage := i + 2;
          Sim.Cond.signal conds.(i + 1)
        end
        else done_at := Sim.now sim)
  done;
  Sim.schedule sim ~delay:1.0 (fun () ->
      stage := 1;
      Sim.Cond.signal conds.(0));
  ignore (Sim.run sim);
  Alcotest.(check (float 1e-9)) "whole chain fired in one instant" 1.0 !done_at


(* --- Observability --- *)

let run_kset_mode ~seed ~n ~t ~z ~crashes () =
  let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 30.0) }) ~n ~t rng);
  let omega, _ = Oracle.omega_z sim ~z ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Kset.install sim ~omega ~proposals () in
  let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  (sim, h, o)

let test_counters_populated_and_flushed () =
  let sim, _, o = run_kset_mode ~seed:3 ~n:7 ~t:3 ~z:2 ~crashes:2 () in
  check "pred evals counted" true (Sim.pred_evals sim > 0);
  check "signals counted" true (Sim.cond_signals sim > 0);
  check "wakeups counted" true (Sim.wakeups sim > 0);
  let tr = Sim.trace sim in
  check_int "pred_evals flushed to trace" (Sim.pred_evals sim)
    (Trace.counter tr "sched.pred_evals");
  check_int "signals flushed to trace" (Sim.cond_signals sim)
    (Trace.counter tr "sched.signals");
  check_int "wakeups flushed to trace" (Sim.wakeups sim)
    (Trace.counter tr "sched.wakeups");
  check_int "events flushed to trace" o.Sim.events (Trace.counter tr "sched.events")

(* Predicate evaluations of the run below under the retired scheduler that
   re-evaluated every blocked predicate after every event, recorded from
   that engine on the same execution. *)
let all_waiter_pred_evals = 25_194

let test_cond_mode_evaluates_fewer_predicates () =
  let sim, _, _ = run_kset_mode ~seed:3 ~n:9 ~t:4 ~z:2 ~crashes:2 () in
  check_int "condition scheduler pred evals" 860 (Sim.pred_evals sim);
  check "strictly fewer than the all-waiter scan" true
    (Sim.pred_evals sim < all_waiter_pred_evals)

(* --- Golden fingerprints --- *)

type fingerprint = {
  decisions : (Pid.t * int * int * float) list;
  rounds : int;
  reason : Sim.stop_reason;
  events : int;
  end_time : float;
  verdict_ok : bool;
}

(* The whole fingerprint as text, times printed exactly (%h); a golden
   row stores its MD5. *)
let fingerprint_text fp =
  let b = Buffer.create 256 in
  List.iter (fun (p, v, r, tm) -> Printf.bprintf b "%d:%d:%d:%h;" p v r tm) fp.decisions;
  Printf.bprintf b "|rounds=%d|reason=%s|events=%d|end=%h|ok=%b" fp.rounds
    (Format.asprintf "%a" Sim.pp_stop_reason fp.reason)
    fp.events fp.end_time fp.verdict_ok;
  Buffer.contents b

let fingerprint_kset ~seed ~z ~crashes =
  let n = 7 in
  let sim, h, o = run_kset_mode ~seed ~n ~t:3 ~z ~crashes () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let v = Check.k_set_agreement sim ~k:z ~proposals ~decisions:(Kset.decisions h) in
  {
    decisions = Kset.decisions h;
    rounds = Kset.max_round h;
    reason = o.Sim.reason;
    events = o.Sim.events;
    end_time = o.Sim.end_time;
    verdict_ok = Check.verdict_ok v;
  }

let fingerprint_cons_s ~seed ~crashes =
  let n = 7 and t = 3 in
  let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes; window = (0.0, 25.0) }) ~n ~t rng);
  let suspector, _ = Oracle.es_x sim ~x:n ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Consensus_s.install sim ~suspector ~proposals () in
  let o = Sim.run ~stop_when:(fun () -> Consensus_s.all_correct_decided h) sim in
  let v = Check.k_set_agreement sim ~k:1 ~proposals ~decisions:(Consensus_s.decisions h) in
  {
    decisions = Consensus_s.decisions h;
    rounds = Consensus_s.max_round h;
    reason = o.Sim.reason;
    events = o.Sim.events;
    end_time = o.Sim.end_time;
    verdict_ok = Check.verdict_ok v;
  }

(* Adversarial transports: heavy-tailed delays, partial synchrony with a
   late GST, fair-lossy links.  Loss can leave the run undecided at the
   horizon (liveness is forfeit without retransmission), so the verdict
   is only required loss-free. *)

let adv_delays =
  [|
    Delay.Exponential 1.0;
    Delay.Psync { gst = 30.0; bound = 2.0; pre_spread = 25.0 };
  |]

let adv_losses = [| None; Some 0.2 |]

let fingerprint_kset_adv ~seed ~delay ~loss =
  let n = 7 and t = 3 and z = 2 in
  let sim = Sim.create ~horizon:3000.0 ~n ~t ~seed () in
  let rng = Rng.split_named (Sim.rng sim) "crash" in
  Sim.install_crashes sim
    (Crash.generate (Crash.Exactly { crashes = 2; window = (0.0, 30.0) }) ~n ~t rng);
  let omega, _ = Oracle.omega_z sim ~z ~behavior:(Behavior.stormy ~gst:40.0) () in
  let proposals = Array.init n (fun i -> 100 + i) in
  let h = Kset.install sim ~omega ~proposals ~delay:adv_delays.(delay) ?loss:adv_losses.(loss) () in
  let o = Sim.run ~stop_when:(fun () -> Kset.all_correct_decided h) sim in
  let v = Check.k_set_agreement sim ~k:z ~proposals ~decisions:(Kset.decisions h) in
  {
    decisions = Kset.decisions h;
    rounds = Kset.max_round h;
    reason = o.Sim.reason;
    events = o.Sim.events;
    end_time = o.Sim.end_time;
    verdict_ok = Check.verdict_ok v;
  }

(* A case: kset n=7 t=3 (crash window [0,30], stormy Ω_z gst 40);
   consensus_s n=7 t=3 (crash window [0,25], stormy ◇S_n gst 40); the
   adversarial kset with z=2, 2 crashes and [delay] indexing
   exp(1) / psync(gst=30), [loss] indexing none / 0.2. *)
type case =
  | Kset of { seed : int; z : int; crashes : int }
  | Cons_s of { seed : int; crashes : int }
  | Kset_adv of { seed : int; delay : int; loss : int }

let case_label = function
  | Kset { seed; z; crashes } -> Printf.sprintf "kset seed=%d z=%d crashes=%d" seed z crashes
  | Cons_s { seed; crashes } -> Printf.sprintf "cons_s seed=%d crashes=%d" seed crashes
  | Kset_adv { seed; delay; loss } ->
      Printf.sprintf "adversarial kset seed=%d delay=%d loss=%d" seed delay loss

let run_case = function
  | Kset { seed; z; crashes } -> fingerprint_kset ~seed ~z ~crashes
  | Cons_s { seed; crashes } -> fingerprint_cons_s ~seed ~crashes
  | Kset_adv { seed; delay; loss } -> fingerprint_kset_adv ~seed ~delay ~loss

let must_decide = function Kset_adv { loss; _ } -> loss = 0 | Kset _ | Cons_s _ -> true

(* Each row: (case, events, rounds, MD5 of [fingerprint_text]). *)
let check_golden rows () =
  List.iter
    (fun (case, events, rounds, md5) ->
      let label = case_label case in
      let fp = run_case case in
      check_int (label ^ ": events") events fp.events;
      check_int (label ^ ": rounds") rounds fp.rounds;
      Alcotest.(check string)
        (label ^ ": fingerprint MD5") md5
        (Digest.to_hex (Digest.string (fingerprint_text fp)));
      if must_decide case then check (label ^ ": verdict ok") true fp.verdict_ok)
    rows

(* Seeds 1-10, all three engines agreeing. *)
let kset_seed_rows =
  [
    (Kset { seed = 1; z = 2; crashes = 2 }, 1512, 18, "b250382f8ecddc6125a62e2fd3bb26a0");
    (Kset { seed = 2; z = 2; crashes = 2 }, 1607, 19, "ee465bf031bd14061d5cc78a54e976aa");
    (Kset { seed = 3; z = 2; crashes = 2 }, 1691, 19, "683f44922ce7454df67feb4cc31d934b");
    (Kset { seed = 4; z = 2; crashes = 2 }, 1678, 19, "fe96764bfacea98f596ffd64ef122375");
    (Kset { seed = 5; z = 2; crashes = 2 }, 1629, 19, "2573184c258ea27cc129b05298bdd936");
    (Kset { seed = 6; z = 2; crashes = 2 }, 1630, 19, "cc785335817ed795c2df9dc745dd14e8");
    (Kset { seed = 7; z = 2; crashes = 2 }, 1709, 19, "ce272811341fa6124d519592304cb89c");
    (Kset { seed = 8; z = 2; crashes = 2 }, 1702, 19, "dc1f994262cbb1aa7dc3df7f238588f1");
    (Kset { seed = 9; z = 2; crashes = 2 }, 1754, 20, "a0dc4598ba82b5ab79807080b626b6a0");
    (Kset { seed = 10; z = 2; crashes = 2 }, 1843, 20, "c0a48630f5777bc7a2b19b032eef3c70");
  ]

let cons_s_seed_rows =
  [
    (Cons_s { seed = 1; crashes = 2 }, 64, 2, "9b26a2d051aba450669507ffbcaf3c2d");
    (Cons_s { seed = 2; crashes = 2 }, 71, 2, "0b0d61ee07d439de3e82a3b034e8f0b8");
    (Cons_s { seed = 3; crashes = 2 }, 95, 2, "2a91c662df93e0e6e408276bc40cd8f3");
    (Cons_s { seed = 4; crashes = 2 }, 1012, 21, "2c773c2fb0e33e3d9bd79d791b97a6ce");
    (Cons_s { seed = 5; crashes = 2 }, 80, 2, "a853a7f995c39f5f4dbda21fcd2426f4");
    (Cons_s { seed = 6; crashes = 2 }, 82, 2, "74fbc3e53a38c573275d0468d7423b60");
    (Cons_s { seed = 7; crashes = 2 }, 503, 9, "1dcd0d9582b50bd780c23e13b379d735");
    (Cons_s { seed = 8; crashes = 2 }, 84, 2, "7804e85c35966dea3601c46c5a8d0f1b");
    (Cons_s { seed = 9; crashes = 2 }, 172, 4, "52f77ea9ab0e669d2146e38387269a4d");
    (Cons_s { seed = 10; crashes = 2 }, 194, 4, "c1b6fc227ee4d75408d987c63ca70f65");
  ]

(* The inputs the seeded qcheck properties drew (Random.State.make [|42|],
   shared across the four properties in this order).  The first table was
   checked against the re-poll scheduler, the second against the closure
   queue; the adversarial and cons_s tables against the re-poll
   scheduler. *)
let kset_draw_rows_a =
  [
    (Kset { seed = 10011; z = 2; crashes = 0 }, 2235, 21, "76210664a5df068cbfc8da6fba13199b");
    (Kset { seed = 830; z = 1; crashes = 0 }, 2228, 21, "2917047683d87ff15110199fc52a8f33");
    (Kset { seed = 8489; z = 2; crashes = 2 }, 1806, 20, "7afeeead767b928a7b3673e099fe6430");
    (Kset { seed = 2676; z = 3; crashes = 2 }, 1652, 19, "f9b2a2ff766c807d84d8cad89dcca38e");
    (Kset { seed = 44548; z = 1; crashes = 3 }, 1654, 19, "cdbb51fb5695450864de62cf00516122");
    (Kset { seed = 8512; z = 2; crashes = 1 }, 2102, 21, "63fa531ba50a96609dfb71581a64e10b");
    (Kset { seed = 16892; z = 1; crashes = 3 }, 1360, 18, "bbd519df80f033d6121fa77a11965bd0");
    (Kset { seed = 38997; z = 2; crashes = 2 }, 1688, 19, "8bf9afa74c051c029a4056f4aefd98e5");
    (Kset { seed = 5521; z = 1; crashes = 2 }, 1602, 19, "14a40d42d10a172b016f55d54ba3b3c0");
    (Kset { seed = 40822; z = 3; crashes = 3 }, 1502, 18, "be7f847718f8ce52f1a7bb8266dcfe98");
    (Kset { seed = 3646; z = 2; crashes = 0 }, 2236, 21, "44d4d2d912229b78cc7134552811fb83");
    (Kset { seed = 27040; z = 1; crashes = 3 }, 1411, 18, "c50dab213009d02c378602c04acf284a");
    (Kset { seed = 37764; z = 1; crashes = 3 }, 1306, 17, "bc952cefcbb5f516dc75948ec9d2b361");
    (Kset { seed = 38435; z = 2; crashes = 2 }, 1766, 19, "3e796d3bf3912607982c7aa0a3b8603d");
    (Kset { seed = 37653; z = 2; crashes = 2 }, 1635, 19, "b2020bdbabc0a0ab2f35a3fda23a3ee0");
    (Kset { seed = 10123; z = 2; crashes = 3 }, 1433, 18, "d00d56430ce792c655f449aa88b93e24");
    (Kset { seed = 34681; z = 1; crashes = 2 }, 1630, 19, "63f832c87daa821f0f4575fe83d91848");
    (Kset { seed = 13079; z = 2; crashes = 3 }, 1649, 19, "939e4d96d473093cf8d7b5e3bdee72a7");
    (Kset { seed = 32085; z = 2; crashes = 1 }, 1933, 20, "1928944afadca7c1bd1fb83687563bd3");
    (Kset { seed = 42170; z = 3; crashes = 3 }, 1496, 18, "151d710233329c88dbb20ad2009d6b87");
  ]

let kset_draw_rows_b =
  [
    (Kset { seed = 45266; z = 3; crashes = 0 }, 2236, 21, "820a931eb139b2fa34cd389abd7df09e");
    (Kset { seed = 27736; z = 3; crashes = 2 }, 1668, 19, "5b2cf9a0d4c822660c837bfb6fd0c9d5");
    (Kset { seed = 31008; z = 1; crashes = 0 }, 2229, 21, "29beed633ccf124160dc554bd6b738e9");
    (Kset { seed = 5496; z = 1; crashes = 1 }, 1960, 20, "e92384a1c8ca9f6db58a31500cc20990");
    (Kset { seed = 26476; z = 1; crashes = 3 }, 1204, 17, "4055c8ab0613e583057c11d6a3476151");
    (Kset { seed = 7479; z = 2; crashes = 1 }, 1944, 20, "349eface668ff3582df0d3ca7b5ab979");
    (Kset { seed = 16415; z = 2; crashes = 3 }, 1442, 18, "7cc7c898450c70957deaa5cb6b6fc3b5");
    (Kset { seed = 39519; z = 2; crashes = 0 }, 2232, 21, "7e445faa9f5e86536cd00e1a657ff73b");
    (Kset { seed = 29141; z = 1; crashes = 1 }, 1875, 20, "7cb5e75725a9686978589f93e678ef58");
    (Kset { seed = 34930; z = 2; crashes = 0 }, 2234, 21, "6022aa9feb7de07f5bb2634b2b0dd426");
    (Kset { seed = 36978; z = 2; crashes = 1 }, 1939, 20, "e5021f97e3febd17e7cab2447b3a63b4");
    (Kset { seed = 8349; z = 3; crashes = 3 }, 1182, 17, "b18c424c938de131b487b1fcd3a9a328");
    (Kset { seed = 34390; z = 2; crashes = 1 }, 2084, 21, "9b91eb8ebae91dc724e4829190c89f5c");
    (Kset { seed = 6756; z = 1; crashes = 3 }, 1578, 19, "61eb01ecd6162ddbd0dd487db89b30b2");
    (Kset { seed = 4313; z = 1; crashes = 3 }, 1553, 18, "0f8c46b80a9ee1e4320b6ea45065cc49");
    (Kset { seed = 2902; z = 3; crashes = 0 }, 2234, 21, "a3fec336d499be1515abb6894aec9671");
    (Kset { seed = 29258; z = 2; crashes = 1 }, 2141, 21, "fba2f1cf0a2a60ff1c4787796794aeb6");
    (Kset { seed = 19321; z = 3; crashes = 3 }, 1158, 17, "aa28a9caa58991f2faf715d52e4d635f");
    (Kset { seed = 46432; z = 1; crashes = 2 }, 1932, 20, "0ce1168f919f55f7865142f58572deae");
    (Kset { seed = 39823; z = 3; crashes = 3 }, 1622, 19, "0b4ad19eaecc1acfca1e857d65f78f0f");
  ]

let kset_adv_draw_rows =
  [
    (Kset_adv { seed = 31536; delay = 1; loss = 1 }, 3698, 6, "136dbfc58966297eb92425037f1b2550");
    (Kset_adv { seed = 9195; delay = 1; loss = 1 }, 3610, 6, "5e0709254f5e61235267a86df1867da9");
    (Kset_adv { seed = 41300; delay = 0; loss = 1 }, 6380, 14, "b3aadba5976b69cf7fb718e0e1a5e75a");
    (Kset_adv { seed = 13228; delay = 1; loss = 0 }, 514, 6, "7b0ea418398c9150444f83ac8e5c400e");
    (Kset_adv { seed = 44923; delay = 1; loss = 0 }, 503, 6, "b3e7358193dcbe9d8d78743f0344e417");
    (Kset_adv { seed = 42566; delay = 0; loss = 1 }, 8269, 17, "13ae9aff29e81a697a69fc54119d7358");
    (Kset_adv { seed = 37659; delay = 0; loss = 0 }, 1313, 16, "39ee943170743982599fa5831ddaf491");
    (Kset_adv { seed = 45101; delay = 1; loss = 0 }, 506, 6, "6d7b60feaaa87008efdcd396bc221845");
    (Kset_adv { seed = 18267; delay = 0; loss = 1 }, 6153, 14, "eb20289f652e8d7f2ab52c1c70adc9a9");
    (Kset_adv { seed = 13976; delay = 1; loss = 1 }, 3431, 6, "25fdf3d75bd1e3c543bf59b7e571fe80");
    (Kset_adv { seed = 45446; delay = 1; loss = 1 }, 3096, 6, "0417c21c249f18c7ea9c63573ffe221c");
    (Kset_adv { seed = 44687; delay = 0; loss = 0 }, 2033, 21, "5edd3b7f4c330c8df8d7b3c18736b002");
    (Kset_adv { seed = 21635; delay = 1; loss = 0 }, 497, 6, "1e9243133cc8db367b6a74810c90064a");
    (Kset_adv { seed = 46573; delay = 1; loss = 1 }, 3244, 6, "3a473a0c0f2f8cd321d5db8430085770");
    (Kset_adv { seed = 47098; delay = 0; loss = 1 }, 8123, 17, "feca59fad81c62b42041bab31792795a");
    (Kset_adv { seed = 9347; delay = 1; loss = 0 }, 505, 6, "dc4276d5b3506167d8ce1e51cc7020d5");
  ]

let cons_s_draw_rows =
  [
    (Cons_s { seed = 19719; crashes = 3 }, 77, 2, "dda4c2e025915e1f4a907b544e9686a7");
    (Cons_s { seed = 10132; crashes = 2 }, 81, 2, "09ce54c2e9a2d363f8323c78b301a65f");
    (Cons_s { seed = 28051; crashes = 0 }, 103, 3, "5545ba7a660dcbf1a3636ccebcac0341");
    (Cons_s { seed = 49903; crashes = 3 }, 83, 2, "9a0107a1375c5aa31d3f60814c6330fd");
    (Cons_s { seed = 19113; crashes = 3 }, 520, 11, "1bbbb4c460ae3cd85e3349449f376e17");
    (Cons_s { seed = 27511; crashes = 3 }, 624, 14, "b4ad26bb6bbd3b5835a88bc53ebdb48c");
    (Cons_s { seed = 21876; crashes = 3 }, 89, 2, "38c6a33e2089cdc5e36f40325b3af2eb");
    (Cons_s { seed = 40926; crashes = 0 }, 98, 2, "fc1acf765041f12c5d4d82f78d2ad37a");
    (Cons_s { seed = 49896; crashes = 2 }, 44, 2, "4466bf8f342e261dfe8e690564e3dee7");
    (Cons_s { seed = 23932; crashes = 2 }, 208, 4, "3663cfeef5c1410b58f2431d2e3f2512");
  ]

(* --- Allocation profile: the steady state promotes nothing --- *)

let test_steady_state_promotes_nothing () =
  (* A warmed-up simulator running only its self-re-arming ticker: 10k
     events through the arena must not promote a single word — the
     allocation-free steady state the flat-arena engine guarantees. *)
  let sim = Sim.create ~horizon:11_000.0 ~n:8 ~t:3 ~seed:1 () in
  Sim.ticker sim ~every:1.0;
  let warm = ref 0 in
  let _ = Sim.run ~stop_when:(fun () -> incr warm; !warm >= 500) sim in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let o = Sim.run sim in
  let g1 = Gc.quick_stat () in
  check "ran >= 10k steady-state events" true (o.Sim.events >= 10_000);
  Alcotest.(check (float 0.0))
    "zero promoted words across steady-state events" 0.0
    (g1.Gc.promoted_words -. g0.Gc.promoted_words)


let () =
  Alcotest.run "sched"
    [
      ( "cond",
        [
          Alcotest.test_case "signal wakes" `Quick test_signal_wakes_when_pred_holds;
          Alcotest.test_case "spurious signal" `Quick test_signal_with_false_pred_keeps_blocked;
          Alcotest.test_case "no signal, no re-eval" `Quick test_no_signal_no_reevaluation;
          Alcotest.test_case "poll cadence" `Quick test_poll_cond_reevaluated_every_event;
          Alcotest.test_case "any-of wakes" `Quick test_any_of_several_conds_wakes;
          Alcotest.test_case "foreign cond" `Quick test_foreign_cond_rejected;
          Alcotest.test_case "crashed waiter dropped" `Quick test_crashed_waiter_dropped_not_resumed;
          Alcotest.test_case "zero-time chain" `Quick test_zero_time_wakeup_chain;
        ] );
      ( "observability",
        [
          Alcotest.test_case "counters flushed" `Quick test_counters_populated_and_flushed;
          Alcotest.test_case "fewer pred evals" `Quick test_cond_mode_evaluates_fewer_predicates;
        ] );
      ( "differential",
        [
          Alcotest.test_case "kset across seeds" `Quick (check_golden kset_seed_rows);
          Alcotest.test_case "cons_s across seeds" `Quick (check_golden cons_s_seed_rows);
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state promotes nothing" `Quick
            test_steady_state_promotes_nothing;
        ] );
      ( "properties",
        [
          Alcotest.test_case "random (seed, z, crashes): cond == golden, first draws" `Quick
            (check_golden kset_draw_rows_a);
          Alcotest.test_case "random (seed, z, crashes): cond == golden, second draws"
            `Quick (check_golden kset_draw_rows_b);
          Alcotest.test_case "random (seed, delay, loss): adversarial kset cond == golden"
            `Quick (check_golden kset_adv_draw_rows);
          Alcotest.test_case "random (seed, crashes): cons_s cond == golden" `Quick
            (check_golden cons_s_draw_rows);
        ] );
    ]
