open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd

(* The upper wheel (paper Figure 6).  Processes scan the ring of all (L, Y)
   pairs — Y of size t-y+1 (the smallest size in ◇φ_y's meaningful window),
   L a z-subset of Y — and stop on a pair such that responses from Y's live
   members keep carrying representatives that belong to L.  The stabilizing
   configuration (paper Figure 7) is Y ⊇ X, L = {lx} ∪ (Y \ X) where (lx, X)
   is the lower wheel's limit: |Y \ X| = (t-y+1) - x = z - 1, so such an L
   exists in the ring exactly when z = t+2-x-y. *)

type ir = Inquiry of int | Response of { seq : int; repr : Pid.t }

type t = {
  sim : Sim.t;
  ring : Ring.Upper.t;
  net : ir Net.t;
  rb : int Rbcast.t; (* l_move(position) *)
  querier : Iface.querier;
  pos : int array;
  pending : (int, int) Hashtbl.t array;
  (* Per process: inquiry seq -> (responder, announced repr) list.  Indexed
     so that wait predicates need not rescan the whole mailbox. *)
  responses : (int, (Pid.t * Pid.t) list) Hashtbl.t array;
  mutable moves_broadcast : int;
  mutable last_pos_change : float;
}

let rec consume t i =
  let p = t.pos.(i) in
  match Hashtbl.find_opt t.pending.(i) p with
  | Some c when c > 0 ->
      if c = 1 then Hashtbl.remove t.pending.(i) p
      else Hashtbl.replace t.pending.(i) p (c - 1);
      let next = Ring.Upper.next t.ring p in
      t.pos.(i) <- next;
      t.last_pos_change <- Sim.now t.sim;
      let tr = Sim.trace t.sim in
      if Trace.records_entries tr then begin
        let now = Sim.now t.sim in
        Trace.end_span tr ~time:now
          (Trace.Wheel_phase { pid = i; wheel = "upper"; pos = p });
        Trace.begin_span tr ~time:now
          (Trace.Wheel_phase { pid = i; wheel = "upper"; pos = next })
      end;
      consume t i
  | _ -> ()

let install sim ~(querier : Iface.querier) ~lower ~ysize ~lsize ?(step = 1.0)
    ?(delay = Delay.default) () =
  let n = Sim.n sim in
  let ring = Ring.Upper.create ~n ~ysize ~lsize in
  let net = Net.create sim ~tag:"wheel.ir" ~delay () in
  let rb = Rbcast.create sim ~tag:"wheel.l_move" ~delay () in
  let t =
    {
      sim;
      ring;
      net;
      rb;
      querier;
      pos = Array.make n (Ring.Upper.start ring);
      pending = Array.init n (fun _ -> Hashtbl.create 32);
      responses = Array.init n (fun _ -> Hashtbl.create 32);
      moves_broadcast = 0;
      last_pos_change = 0.0;
    }
  in
  (* Task T4: buffered consumption of l_moves, same scheme as the lower
     wheel. *)
  Rbcast.on_deliver rb (fun i (d : int Rbcast.delivery) ->
      let c = Option.value ~default:0 (Hashtbl.find_opt t.pending.(i) d.body) in
      Hashtbl.replace t.pending.(i) d.body (c + 1);
      consume t i);
  (* Task T5: answer inquiries with the lower wheel's current repr. *)
  Net.on_deliver net (fun (e : ir Net.envelope) ->
      match e.payload with
      | Inquiry seq ->
          Net.send net ~src:e.dst ~dst:e.src
            (Response { seq; repr = Wheels_lower.repr lower e.dst })
      | Response { seq; repr } ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt t.responses.(e.dst) seq) in
          Hashtbl.replace t.responses.(e.dst) seq ((e.src, repr) :: cur));
  (* Task T3: the inquiry loop. *)
  let tr = Sim.trace sim in
  let body i () =
    let seq = ref 0 in
    while true do
      incr seq;
      let s = !seq in
      (* Responses to inquiries before the previous one can never be read
         again. *)
      Hashtbl.remove t.responses.(i) (s - 2);
      if Trace.records_entries tr then
        Trace.begin_span tr ~time:(Sim.now sim)
          (Trace.Query_epoch { pid = i; seq = s });
      Net.broadcast net ~src:i (Inquiry s);
      let response_y () =
        (* Representatives announced for this inquiry by members of the
           current Y_i. *)
        let _, y = Ring.Upper.decode ring t.pos.(i) in
        List.filter_map
          (fun (src, repr) -> if Pidset.mem src y then Some repr else None)
          (Option.value ~default:[] (Hashtbl.find_opt t.responses.(i) s))
      in
      let y_dead () =
        let _, y = Ring.Upper.decode ring t.pos.(i) in
        t.querier.Iface.query i y
      in
      (* [y_dead] reads the querier (clock-derived), so this wait keeps the
         poll cadence; responses arrive as deliveries to i. *)
      Sim.Cond.await
        [ Sim.Cond.poll sim ]
        (fun () -> response_y () <> [] || y_dead ());
      if Trace.records_entries tr then
        Trace.end_span tr ~time:(Sim.now sim)
          (Trace.Query_epoch { pid = i; seq = s });
      if not (y_dead ()) then begin
        let l, _y = Ring.Upper.decode ring t.pos.(i) in
        let rec_from = response_y () in
        if rec_from <> [] && not (List.exists (fun r -> Pidset.mem r l) rec_from)
        then begin
          t.moves_broadcast <- t.moves_broadcast + 1;
          Rbcast.broadcast rb ~src:i t.pos.(i)
        end
      end;
      Sim.sleep step
    done
  in
  for i = 0 to n - 1 do
    if Trace.records_entries tr then
      Trace.begin_span tr ~time:(Sim.now sim)
        (Trace.Wheel_phase { pid = i; wheel = "upper"; pos = t.pos.(i) });
    Sim.spawn sim ~pid:i (body i)
  done;
  t

(* Reading trusted_i (the paper's task T6 / line 10-11): if the whole
   current Y_i has crashed, name the smallest process outside Y_i whose
   region is not entirely dead; otherwise trust L_i. *)
let trusted t i =
  let n = Sim.n t.sim in
  let l, y = Ring.Upper.decode t.ring t.pos.(i) in
  if t.querier.Iface.query i y then begin
    let rec find j =
      if j >= n then
        (* No witness (possible only under pre-gst noise): fall back to the
           smallest process outside Y. *)
        (match Pidset.min_elt_opt (Pidset.diff (Pidset.full ~n) y) with
        | Some p -> Pidset.singleton p
        | None -> Pidset.singleton 0)
      else if (not (Pidset.mem j y)) && not (t.querier.Iface.query i (Pidset.add j y))
      then Pidset.singleton j
      else find (j + 1)
    in
    find 0
  end
  else l

let omega t = { Iface.trusted = (fun i -> trusted t i) }
let position t i = t.pos.(i)
let current_pair t i = Ring.Upper.decode t.ring t.pos.(i)
let moves_broadcast t = t.moves_broadcast
let last_pos_change t = t.last_pos_change
let underlying_sent t = Net.sent_count t.net + Rbcast.underlying_sent t.rb
