(* Tests for the network substrate: channels, delay models, broadcast and
   the reliable-broadcast implementation (validity, integrity, termination —
   including crash-interrupted partial broadcasts, the case the echo relay
   exists for). *)

open Setagree_util
open Setagree_dsys
open Setagree_net

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk ?(horizon = 1000.0) ?(n = 5) ?(t = 2) ?(seed = 1) () =
  Sim.create ~horizon ~n ~t ~seed ()

(* The substrates keep no delivered messages, so these tests read them
   the way protocols do: through a delivery handler.  A recorder is that
   handler, keeping each delivery with its time; register it before the
   sends it should see. *)
type 'm delivery = { at : float; src : Pid.t; dst : Pid.t; msg : 'm }

let recorder sim subscribe =
  let log = ref [] in
  subscribe (fun ~src ~dst msg -> log := { at = Sim.now sim; src; dst; msg } :: !log);
  log

let net_recorder sim net =
  recorder sim (fun record ->
      Net.on_deliver net (fun (e : _ Net.envelope) -> record ~src:e.src ~dst:e.dst e.payload))

(* An R-delivery's [src] is the message's origin. *)
let rb_recorder sim rb =
  recorder sim (fun record ->
      Rbcast.on_deliver rb (fun dst (d : _ Rbcast.delivery) -> record ~src:d.origin ~dst d.body))

let transport_recorder sim tr = recorder sim (Lossy.Transport.on_deliver tr)

(* Deliveries to [dst] so far, in delivery order. *)
let got log dst = List.rev (List.filter (fun d -> d.dst = dst) !log)
let got_msgs log dst = List.map (fun d -> d.msg) (got log dst)

(* Delay models *)

let test_delay_constant () =
  let rng = Rng.create 1 in
  Alcotest.(check (float 0.0)) "constant" 2.5
    (Delay.sample (Delay.Constant 2.5) ~rng ~src:0 ~dst:1 ~now:0.0)

let test_delay_uniform_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 200 do
    let d = Delay.sample (Delay.Uniform (1.0, 2.0)) ~rng ~src:0 ~dst:1 ~now:0.0 in
    check "uniform range" true (d >= 1.0 && d < 2.0)
  done

let test_delay_exponential_nonneg () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    check "exp >= 0" true
      (Delay.sample (Delay.Exponential 1.0) ~rng ~src:0 ~dst:1 ~now:0.0 >= 0.0)
  done

let test_delay_fn_adversary () =
  let rng = Rng.create 4 in
  let adv = Delay.Fn (fun ~rng:_ ~src ~dst ~now:_ -> float_of_int ((src * 10) + dst)) in
  Alcotest.(check (float 0.0)) "fn" 12.0 (Delay.sample adv ~rng ~src:1 ~dst:2 ~now:0.0)

let test_delay_clamped () =
  let rng = Rng.create 5 in
  let neg = Delay.Fn (fun ~rng:_ ~src:_ ~dst:_ ~now:_ -> -5.0) in
  Alcotest.(check (float 0.0)) "clamped to 0" 0.0 (Delay.sample neg ~rng ~src:0 ~dst:1 ~now:0.0)

(* Channels *)

let test_send_delivers () =
  let sim = mk () in
  let net : string Net.t = Net.create sim ~delay:(Delay.Constant 1.0) () in
  let log = net_recorder sim net in
  Net.send net ~src:0 ~dst:1 "hello";
  ignore (Sim.run sim);
  match got log 1 with
  | [ d ] ->
      check "payload" true (d.msg = "hello");
      check_int "src" 0 d.src;
      Alcotest.(check (float 0.001)) "delivered at" 1.0 d.at
  | l -> Alcotest.failf "expected 1 message, got %d" (List.length l)

let test_no_loss_no_dup () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let log = net_recorder sim net in
  for i = 1 to 100 do
    Net.send net ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "all delivered exactly once" (List.init 100 (fun i -> i + 1))
    (List.sort compare (got_msgs log 1))

let test_non_fifo_possible () =
  (* With spread-out delays, some pair of messages is reordered. *)
  let sim = mk ~seed:3 () in
  let net : int Net.t = Net.create sim ~delay:(Delay.Uniform (0.1, 10.0)) () in
  let log = net_recorder sim net in
  for i = 1 to 50 do
    Net.send net ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  let order = got_msgs log 1 in
  check "reordering observed" true (order <> List.sort compare order)

let test_send_from_crashed_dropped () =
  let sim = mk () in
  Sim.install_crashes sim [ (0, 1.0) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 1.0) () in
  let log = net_recorder sim net in
  Sim.schedule sim ~delay:5.0 (fun () -> Net.send net ~src:0 ~dst:1 99);
  ignore (Sim.run sim);
  check_int "dead senders send nothing" 0 (List.length (got log 1))

let test_send_to_crashed_dropped () =
  let sim = mk () in
  Sim.install_crashes sim [ (1, 0.5) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 2.0) () in
  let log = net_recorder sim net in
  Net.send net ~src:0 ~dst:1 7;
  ignore (Sim.run sim);
  check_int "no delivery to the dead" 0 (List.length (got log 1))

let test_in_flight_survives_sender_crash () =
  let sim = mk () in
  Sim.install_crashes sim [ (0, 1.0) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 5.0) () in
  let log = net_recorder sim net in
  Net.send net ~src:0 ~dst:1 42;
  ignore (Sim.run sim);
  check_int "in-flight delivered" 1 (List.length (got log 1))

let test_send_at_adversarial () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let log = net_recorder sim net in
  Net.send_at net ~src:0 ~dst:1 ~deliver_at:33.25 5;
  ignore (Sim.run sim);
  match got log 1 with
  | [ d ] -> Alcotest.(check (float 0.001)) "exact time" 33.25 d.at
  | _ -> Alcotest.fail "one message expected"

let test_broadcast_reaches_all () =
  let sim = mk ~n:5 () in
  let net : string Net.t = Net.create sim () in
  let log = net_recorder sim net in
  Net.broadcast net ~src:2 "b";
  ignore (Sim.run sim);
  for i = 0 to 4 do
    check_int "everyone got it (incl. sender)" 1 (List.length (got log i))
  done

let test_broadcast_staggered_partial_on_crash () =
  let sim = mk ~n:5 ~t:1 () in
  Sim.install_crashes sim [ (0, 1.0) ];
  let net : int Net.t = Net.create sim ~delay:(Delay.Constant 0.1) () in
  let log = net_recorder sim net in
  (* Sender p0 crashes at 1.0; with step 0.4 it reaches only destinations
     0, 1, 2 (sent at 0.0, 0.4, 0.8). *)
  Net.broadcast_staggered net ~src:0 ~step:0.4 7;
  ignore (Sim.run sim);
  let receivers = List.filter (fun i -> got log i <> []) (List.init 5 Fun.id) in
  Alcotest.(check (list int)) "prefix only" [ 0; 1; 2 ] receivers

let test_on_deliver_callbacks () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let seen = ref [] in
  Net.on_deliver net (fun e -> seen := (e.dst, e.payload) :: !seen);
  Net.send net ~src:0 ~dst:2 9;
  ignore (Sim.run sim);
  Alcotest.(check (list (pair int int))) "callback fired" [ (2, 9) ] !seen

let test_counters () =
  let sim = mk ~n:5 () in
  let net : unit Net.t = Net.create sim () in
  Net.broadcast net ~src:0 ();
  ignore (Sim.run sim);
  check_int "sent" 5 (Net.sent_count net);
  check_int "delivered" 5 (Trace.counter (Sim.trace sim) "net.delivered")

(* The sender set behind [keyed_nsenders]/[keyed_meets], checked member
   by member against [expected]. *)
let check_senders net ~dst key expected =
  check_int "nsenders" (Pidset.cardinal expected) (Net.keyed_nsenders net dst key);
  for p = 0 to 4 do
    check (Printf.sprintf "meets p%d" p) (Pidset.mem p expected)
      (Net.keyed_meets net dst key (Pidset.singleton p))
  done

let test_keyed_index_matches_handlers () =
  (* The delivery-time keyed index must agree with a fold over the
     recorded deliveries: distinct senders and summary, with every copy
     duplicated by a fault spec (both must ignore the copies). *)
  let sim = mk ~seed:9 () in
  Sim.set_faults sim
    { Faults.none with Faults.links = [ Faults.link ~dup:1.0 ~from:0.0 ~until:1000.0 () ] };
  let firsts =
    {
      Net.empty = (fun () -> []);
      add = (fun acc ~src m -> List.sort compare ((src, m) :: acc));
    }
  in
  let net : (int, (Pid.t * int) list) Net.net =
    Net.create_keyed sim ~delay:(Delay.Uniform (0.1, 3.0)) ~classify:(fun m -> m mod 2)
      ~summary:firsts ()
  in
  let log = net_recorder sim net in
  (* One payload per sender and key, as round-based protocols send. *)
  for src = 0 to 3 do
    Net.send net ~src ~dst:4 (10 * src);
    Net.send net ~src ~dst:4 ((10 * src) + 1)
  done;
  ignore (Sim.run sim);
  let delivered = got log 4 in
  check_int "every copy duplicated" 16 (List.length delivered);
  List.iter
    (fun key ->
      let mine = List.filter (fun d -> d.msg mod 2 = key) delivered in
      let senders = List.fold_left (fun acc d -> Pidset.add d.src acc) Pidset.empty mine in
      check_senders net ~dst:4 key senders;
      Alcotest.(check (list (pair int int)))
        "summary = first payload per sender"
        (List.sort_uniq compare (List.map (fun d -> (d.src, d.msg)) mine))
        (Net.keyed_summary net 4 key))
    [ 0; 1 ];
  check_senders net ~dst:4 7 Pidset.empty;
  check_int "absent key summary" 0 (List.length (Net.keyed_summary net 4 7));
  (* Retiring key 0: it reads empty, and a late delivery skips the index
     while still reaching the handlers. *)
  Net.retire net 4 ~below:1;
  Net.send net ~src:4 ~dst:4 40;
  ignore (Sim.run sim);
  check_int "late copies delivered" 18 (List.length (got log 4));
  check_senders net ~dst:4 0 Pidset.empty;
  check_int "retired summary" 0 (List.length (Net.keyed_summary net 4 0));
  check_senders net ~dst:4 1 (Pidset.of_list [ 0; 1; 2; 3 ]);
  check_int "live key untouched" 4 (List.length (Net.keyed_summary net 4 1))

(* The index stands on its own: a counts-only keyed net, read with no
   handler registered and no message retained. *)
let test_keyed_index_counts_only () =
  let sim = mk () in
  let net : int Net.t = Net.create_keyed sim ~classify:(fun m -> m) ~summary:Net.counts_only () in
  Net.send net ~src:0 ~dst:1 5;
  Net.send net ~src:2 ~dst:1 5;
  ignore (Sim.run sim);
  check_senders net ~dst:1 5 (Pidset.of_list [ 0; 2 ])

let test_handlers_run_in_registration_order () =
  let sim = mk () in
  let net : int Net.t = Net.create sim () in
  let order = ref [] in
  Net.on_deliver net (fun _ -> order := 1 :: !order);
  Net.on_deliver net (fun _ -> order := 2 :: !order);
  Net.send net ~src:0 ~dst:1 0;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !order)

(* Reliable broadcast *)

let test_rb_basic_delivery () =
  let sim = mk ~n:5 () in
  let rb : string Rbcast.t = Rbcast.create sim () in
  let log = rb_recorder sim rb in
  Rbcast.broadcast rb ~src:1 "m";
  ignore (Sim.run sim);
  for i = 0 to 4 do
    match got log i with
    | [ d ] ->
        check "payload" true (d.msg = "m");
        check_int "origin" 1 d.src
    | l -> Alcotest.failf "p%d delivered %d times" (i + 1) (List.length l)
  done

let test_rb_integrity_no_duplicates () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let log = rb_recorder sim rb in
  for k = 1 to 20 do
    Rbcast.broadcast rb ~src:(k mod 5) k
  done;
  ignore (Sim.run sim);
  for i = 0 to 4 do
    Alcotest.(check (list int)) "each message once" (List.init 20 (fun k -> k + 1))
      (List.sort compare (got_msgs log i))
  done

let test_rb_termination_under_origin_crash () =
  (* Origin crashes mid-staggered-broadcast: having reached one process, the
     relay must spread the message to every correct process. *)
  let sim = mk ~n:5 ~t:1 ~seed:7 () in
  Sim.install_crashes sim [ (0, 0.5) ];
  let rb : int Rbcast.t =
    Rbcast.create sim ~delay:(Delay.Constant 0.1) ~stagger:0.3 ()
  in
  let log = rb_recorder sim rb in
  Rbcast.broadcast rb ~src:0 99;
  ignore (Sim.run sim);
  (* p0 reached destinations 0 and 1 before dying (sends at 0.0 and 0.3);
     p1 must have relayed to everyone. *)
  for i = 1 to 4 do
    check_int "correct process delivered" 1 (List.length (got log i))
  done

let test_rb_all_or_nothing_when_unreached () =
  (* If the origin crashes before any send, nobody delivers. *)
  let sim = mk ~n:5 ~t:1 () in
  Sim.install_crashes sim [ (0, 0.0) ];
  let rb : int Rbcast.t = Rbcast.create sim () in
  let log = rb_recorder sim rb in
  Sim.schedule sim ~delay:1.0 (fun () -> Rbcast.broadcast rb ~src:0 1);
  ignore (Sim.run sim);
  for i = 0 to 4 do
    check_int "nobody delivered" 0 (List.length (got log i))
  done

let test_rb_validity_no_spurious () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let log = rb_recorder sim rb in
  Rbcast.broadcast rb ~src:2 5;
  ignore (Sim.run sim);
  for i = 0 to 4 do
    List.iter (fun d -> check "only the sent message" true (d.msg = 5 && d.src = 2)) (got log i)
  done

let test_rb_agreement_same_set_everywhere () =
  (* All correct processes deliver the same multiset, across random delays
     and crashes. *)
  for seed = 1 to 10 do
    let sim = mk ~n:6 ~t:2 ~seed () in
    let rng = Rng.split_named (Sim.rng sim) "crash" in
    Sim.install_crashes sim
      (Crash.generate (Crash.Exactly { crashes = 2; window = (0.0, 3.0) }) ~n:6 ~t:2 rng);
    let rb : int Rbcast.t =
      Rbcast.create sim ~delay:(Delay.Uniform (0.1, 2.0)) ~stagger:0.2 ()
    in
    let log = rb_recorder sim rb in
    for k = 0 to 5 do
      Sim.schedule sim ~delay:(float_of_int k) (fun () -> Rbcast.broadcast rb ~src:k (100 + k))
    done;
    ignore (Sim.run sim);
    let correct = Pidset.to_list (Sim.correct_set sim) in
    let sets =
      List.map (fun i -> List.sort compare (List.map (fun d -> (d.src, d.msg)) (got log i))) correct
    in
    match sets with
    | [] -> Alcotest.fail "no correct process"
    | first :: rest ->
        List.iter (fun s -> check "same delivered multiset" true (s = first)) rest
  done

let test_rb_on_deliver_callback () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let count = ref 0 in
  Rbcast.on_deliver rb (fun _pid _d -> incr count);
  Rbcast.broadcast rb ~src:0 1;
  ignore (Sim.run sim);
  check_int "one callback per process" 5 !count

let test_rb_cond_signalled_on_rdelivery () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let decided = ref false in
  Rbcast.on_deliver rb (fun pid _ -> if pid = 3 then decided := true);
  let woke = ref false in
  Sim.spawn sim ~pid:3 (fun () ->
      Sim.Cond.await [ Rbcast.cond rb 3 ] (fun () -> !decided);
      woke := true);
  Sim.schedule sim ~delay:1.0 (fun () -> Rbcast.broadcast rb ~src:0 9);
  ignore (Sim.run sim);
  check "R-delivery woke the waiter" true !woke

let test_rb_handlers_registration_order () =
  let sim = mk ~n:5 () in
  let rb : int Rbcast.t = Rbcast.create sim () in
  let order = ref [] in
  Rbcast.on_deliver rb (fun pid _ -> if pid = 0 then order := 1 :: !order);
  Rbcast.on_deliver rb (fun pid _ -> if pid = 0 then order := 2 :: !order);
  Rbcast.broadcast rb ~src:0 1;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !order)

let test_rb_delivery_order_can_differ () =
  (* Non-FIFO: two messages R-broadcast close together can be R-delivered in
     different orders at different processes, for some seed. *)
  let differs = ref false in
  for seed = 1 to 30 do
    if not !differs then begin
      let sim = mk ~n:5 ~seed () in
      let rb : int Rbcast.t = Rbcast.create sim ~delay:(Delay.Uniform (0.1, 5.0)) () in
      let log = rb_recorder sim rb in
      Rbcast.broadcast rb ~src:0 1;
      Rbcast.broadcast rb ~src:1 2;
      ignore (Sim.run sim);
      let order i = got_msgs log i in
      for i = 0 to 4 do
        if order i <> order 0 then differs := true
      done
    end
  done;
  check "some seed shows divergent delivery order" true !differs

(* Fair-lossy links and the reliable transport over them *)

let test_lossy_drops_statistically () =
  let sim = mk ~seed:21 () in
  let link : int Lossy.Link.t = Lossy.Link.create sim ~loss:0.5 () in
  for i = 1 to 1000 do
    Lossy.Link.send link ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  let d = Lossy.Link.delivered link in
  check "about half delivered" true (d > 400 && d < 600);
  check_int "sent counted" 1000 (Lossy.Link.sent link);
  check_int "drop + deliver = sent" 1000 (Lossy.Link.dropped link + d)

let test_lossy_zero_loss_delivers_all () =
  let sim = mk ~seed:22 () in
  let link : int Lossy.Link.t = Lossy.Link.create sim ~loss:0.0 () in
  for i = 1 to 50 do
    Lossy.Link.send link ~src:0 ~dst:1 i
  done;
  ignore (Sim.run sim);
  check_int "all delivered" 50 (Lossy.Link.delivered link)

let test_lossy_bad_loss_rejected () =
  let sim = mk ~seed:23 () in
  check "loss = 1 rejected" true
    (try
       ignore (Lossy.Link.create sim ~loss:1.0 () : int Lossy.Link.t);
       false
     with Invalid_argument _ -> true)

let test_transport_reliable_over_heavy_loss () =
  let sim = Sim.create ~horizon:500.0 ~n:5 ~t:2 ~seed:24 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.6 () in
  let log = transport_recorder sim tr in
  for i = 1 to 30 do
    Lossy.Transport.send tr ~src:0 ~dst:1 i
  done;
  let all_in () = List.length (got log 1) >= 30 in
  let o = Sim.run ~stop_when:all_in sim in
  check "stopped on completion" true (o.reason = Sim.Stopped);
  Alcotest.(check (list int)) "every message exactly once (60% loss)"
    (List.init 30 (fun i -> i + 1))
    (List.sort compare (got_msgs log 1));
  check "retransmissions happened" true (Lossy.Transport.link_sent tr > 60)

let test_transport_acks_clear_pending () =
  let sim = Sim.create ~horizon:500.0 ~n:5 ~t:2 ~seed:25 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.3 () in
  Lossy.Transport.send tr ~src:0 ~dst:1 7;
  Lossy.Transport.send tr ~src:0 ~dst:2 8;
  ignore (Sim.run ~stop_when:(fun () -> Lossy.Transport.pending tr 0 = 0) sim);
  check_int "nothing pending" 0 (Lossy.Transport.pending tr 0)

let test_transport_sender_crash_stops_retransmission () =
  let sim = Sim.create ~horizon:100.0 ~n:5 ~t:2 ~seed:26 () in
  Sim.install_crashes sim [ (0, 5.0) ];
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.99 () in
  ignore tr;
  (* With 99% loss the first copies almost surely vanish; after the crash
     nobody retransmits, so the message may never arrive — and the run must
     still terminate cleanly at the horizon. *)
  Lossy.Transport.send tr ~src:0 ~dst:1 1;
  let o = Sim.run sim in
  check "run ends" true (o.reason = Sim.Horizon || o.reason = Sim.Quiescent)

let test_transport_no_duplicates_in_callbacks () =
  let sim = Sim.create ~horizon:500.0 ~n:5 ~t:2 ~seed:27 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.5 () in
  let count = ref 0 in
  Lossy.Transport.on_deliver tr (fun ~src:_ ~dst:_ _ -> incr count);
  for i = 1 to 10 do
    Lossy.Transport.send tr ~src:2 ~dst:3 i
  done;
  ignore (Sim.run ~stop_when:(fun () -> !count >= 10 && Lossy.Transport.pending tr 2 = 0) sim);
  check_int "exactly one callback per message" 10 !count

(* Backoff policy *)

let test_backoff_interval_capped () =
  let rng = Rng.create 6 in
  let prev = ref 0.0 in
  for attempt = 0 to 20 do
    let v =
      Delay.backoff_interval ~base:1.0 ~factor:2.0 ~cap:8.0 ~jitter:0.0 ~rng ~attempt
    in
    check "within cap" true (v <= 8.0 +. 1e-9);
    check "monotone until cap" true (v >= !prev || v >= 8.0 -. 1e-9);
    prev := v
  done;
  for attempt = 0 to 10 do
    let v =
      Delay.backoff_interval ~base:1.0 ~factor:2.0 ~cap:8.0 ~jitter:0.3 ~rng ~attempt
    in
    check "positive under jitter" true (v > 0.0)
  done

let test_transport_backoff_metrics () =
  let sim = Sim.create ~horizon:2000.0 ~n:3 ~t:1 ~seed:26 () in
  let tr : int Lossy.Transport.t = Lossy.Transport.create sim ~loss:0.5 () in
  let log = transport_recorder sim tr in
  for i = 1 to 20 do
    Lossy.Transport.send tr ~src:0 ~dst:1 i
  done;
  ignore (Sim.run ~stop_when:(fun () -> Lossy.Transport.pending tr 0 = 0) sim);
  let counter = Trace.counter (Sim.trace sim) in
  check_int "all delivered" 20 (List.length (got log 1));
  check "retransmits recorded" true (counter "net.retransmits" > 0);
  check "backoff resets recorded" true (counter "net.backoff_resets" > 0)

(* qcheck: a sender crashing mid-staggered-broadcast reaches exactly a
   prefix of the destination order — and the reliable broadcast's echo
   relay masks exactly this partiality (all correct or none). *)

let gen_partial_broadcast =
  QCheck.make
    ~print:(fun (seed, n, step10, ct10) ->
      Printf.sprintf "seed=%d n=%d step=%.1f crash_at=%.1f" seed n
        (float_of_int step10 /. 10.0)
        (float_of_int ct10 /. 10.0))
    QCheck.Gen.(
      quad (int_range 1 5000) (int_range 3 9) (int_range 1 10) (int_range 0 40))

let qcheck_staggered_prefix =
  QCheck.Test.make
    ~name:"crash mid-staggered broadcast reaches exactly a prefix" ~count:60
    gen_partial_broadcast
    (fun (seed, n, step10, ct10) ->
      let step = float_of_int step10 /. 10.0
      and ct = float_of_int ct10 /. 10.0 in
      let sim = Sim.create ~horizon:100.0 ~n ~t:1 ~seed () in
      Sim.install_crashes sim [ (0, ct) ];
      let net : int Net.t = Net.create sim ~delay:(Delay.Constant 0.05) () in
      let log = net_recorder sim net in
      Net.broadcast_staggered net ~src:0 ~step 99;
      ignore (Sim.run sim);
      (* Only the surviving destinations witness the prefix property —
         p0's own copy can be dropped by its crash. *)
      let live = List.init (n - 1) (fun i -> i + 1) in
      let reached = List.map (fun i -> got log i <> []) live in
      let rec is_prefix = function
        | true :: rest -> is_prefix rest
        | rest -> List.for_all not rest
      in
      is_prefix reached)

let qcheck_rbcast_masks_partial =
  QCheck.Test.make
    ~name:"rbcast masks crash-interrupted partial broadcast" ~count:40
    gen_partial_broadcast
    (fun (seed, n, step10, ct10) ->
      let step = float_of_int step10 /. 10.0
      and ct = float_of_int ct10 /. 10.0 in
      let sim = Sim.create ~horizon:200.0 ~n ~t:1 ~seed () in
      Sim.install_crashes sim [ (0, ct) ];
      let rb : int Rbcast.t =
        Rbcast.create sim ~delay:(Delay.Constant 0.05) ~stagger:step ()
      in
      let log = rb_recorder sim rb in
      Rbcast.broadcast rb ~src:0 42;
      ignore (Sim.run sim);
      let correct = List.init (n - 1) (fun i -> i + 1) in
      let cnt =
        List.length (List.filter (fun i -> got log i <> []) correct)
      in
      cnt = 0 || cnt = List.length correct)

let () =
  Alcotest.run "net"
    [
      ( "delay",
        [
          Alcotest.test_case "constant" `Quick test_delay_constant;
          Alcotest.test_case "uniform range" `Quick test_delay_uniform_range;
          Alcotest.test_case "exponential" `Quick test_delay_exponential_nonneg;
          Alcotest.test_case "fn adversary" `Quick test_delay_fn_adversary;
          Alcotest.test_case "clamped" `Quick test_delay_clamped;
        ] );
      ( "channels",
        [
          Alcotest.test_case "send delivers" `Quick test_send_delivers;
          Alcotest.test_case "no loss no dup" `Quick test_no_loss_no_dup;
          Alcotest.test_case "non-fifo" `Quick test_non_fifo_possible;
          Alcotest.test_case "dead sender" `Quick test_send_from_crashed_dropped;
          Alcotest.test_case "dead receiver" `Quick test_send_to_crashed_dropped;
          Alcotest.test_case "in-flight survives" `Quick test_in_flight_survives_sender_crash;
          Alcotest.test_case "send_at" `Quick test_send_at_adversarial;
          Alcotest.test_case "broadcast" `Quick test_broadcast_reaches_all;
          Alcotest.test_case "staggered partial" `Quick test_broadcast_staggered_partial_on_crash;
          Alcotest.test_case "on_deliver" `Quick test_on_deliver_callbacks;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "keyed index" `Quick test_keyed_index_matches_handlers;
          Alcotest.test_case "keyed w/o retain" `Quick test_keyed_index_counts_only;
          Alcotest.test_case "handler order" `Quick test_handlers_run_in_registration_order;
        ] );
      ( "rbcast",
        [
          Alcotest.test_case "basic delivery" `Quick test_rb_basic_delivery;
          Alcotest.test_case "integrity" `Quick test_rb_integrity_no_duplicates;
          Alcotest.test_case "termination under crash" `Quick test_rb_termination_under_origin_crash;
          Alcotest.test_case "unreached = silent" `Quick test_rb_all_or_nothing_when_unreached;
          Alcotest.test_case "validity" `Quick test_rb_validity_no_spurious;
          Alcotest.test_case "uniform delivery" `Quick test_rb_agreement_same_set_everywhere;
          Alcotest.test_case "callbacks" `Quick test_rb_on_deliver_callback;
          Alcotest.test_case "cond on R-delivery" `Quick test_rb_cond_signalled_on_rdelivery;
          Alcotest.test_case "handler order" `Quick test_rb_handlers_registration_order;
          Alcotest.test_case "order can differ" `Quick test_rb_delivery_order_can_differ;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "statistical drops" `Quick test_lossy_drops_statistically;
          Alcotest.test_case "zero loss" `Quick test_lossy_zero_loss_delivers_all;
          Alcotest.test_case "bad loss" `Quick test_lossy_bad_loss_rejected;
          Alcotest.test_case "reliable over 60% loss" `Quick test_transport_reliable_over_heavy_loss;
          Alcotest.test_case "acks clear pending" `Quick test_transport_acks_clear_pending;
          Alcotest.test_case "sender crash" `Quick test_transport_sender_crash_stops_retransmission;
          Alcotest.test_case "no duplicate callbacks" `Quick test_transport_no_duplicates_in_callbacks;
          Alcotest.test_case "backoff interval capped" `Quick test_backoff_interval_capped;
          Alcotest.test_case "backoff metrics" `Quick test_transport_backoff_metrics;
        ] );
      ( "partial-broadcast",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |]))
          [ qcheck_staggered_prefix; qcheck_rbcast_masks_partial ] );
    ]
