open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd

type msg =
  | Est of { r : int; v : int } (* coordinator's proposal for round r *)
  | Aux of { r : int; aux : int option }

(* What a process keeps of one round-phase's deliveries: the keyed index's
   summary, folded from the first message of each sender. *)
type tally = {
  mutable ests : (Pid.t * int) list; (* EST: (sender, value) *)
  mutable vals : int list; (* AUX: distinct non-⊥ values, ascending *)
  mutable bot : bool; (* AUX: some sender sent ⊥ *)
}

let tally =
  {
    Net.empty = (fun () -> { ests = []; vals = []; bot = false });
    add =
      (fun tl ~src m ->
        (match m with
        | Est { v; _ } -> tl.ests <- (src, v) :: tl.ests
        | Aux { aux = Some v; _ } ->
            if not (List.mem v tl.vals) then tl.vals <- List.sort Int.compare (v :: tl.vals)
        | Aux { aux = None; _ } -> tl.bot <- true);
        tl);
  }

type t = {
  sim : Sim.t;
  net : (msg, tally) Net.net;
  rb : int Rbcast.t;
  decided_at : (int * int * float) option array;
  mutable decided_set : Pidset.t; (* pids with [decided_at <> None] *)
  round_of : int array;
  mutable max_round : int;
}

let decided t pid = Option.map (fun (v, r, _) -> (v, r)) t.decided_at.(pid)

(* Per-event stop condition: word-wise subset over shared pidsets. *)
let all_correct_decided t =
  Pidset.subset (Sim.correct_set t.sim) t.decided_set

let decisions t =
  let ds = ref [] in
  Array.iteri
    (fun pid -> function Some (v, r, tm) -> ds := (pid, v, r, tm) :: !ds | None -> ())
    t.decided_at;
  List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b) !ds

let max_round t = t.max_round
let messages_sent t = Net.sent_count t.net + Rbcast.underlying_sent t.rb

let install sim ~(suspector : Iface.suspector) ~proposals ?(delay = Delay.default) () =
  let n = Sim.n sim in
  let tb = Sim.t_bound sim in
  if 2 * tb >= n then invalid_arg "Consensus_s.install: requires t < n/2";
  if Array.length proposals <> n then invalid_arg "Consensus_s.install: bad proposals";
  let key_est r = 2 * r and key_aux r = (2 * r) + 1 in
  let classify = function
    | Est { r; _ } -> key_est r
    | Aux { r; _ } -> key_aux r
  in
  let net =
    Net.create_keyed sim ~tag:"cons_s" ~delay ~retain:false ~classify ~summary:tally ()
  in
  let rb = Rbcast.create sim ~tag:"cons_s.dec" ~delay () in
  let t =
    {
      sim;
      net;
      rb;
      decided_at = Array.make n None;
      decided_set = Pidset.empty;
      round_of = Array.make n 0;
      max_round = 0;
    }
  in
  Rbcast.on_deliver rb (fun pid (d : int Rbcast.delivery) ->
      if t.decided_at.(pid) = None then begin
        let round = t.round_of.(pid) in
        t.decided_at.(pid) <- Some (d.body, round, Sim.now sim);
        t.decided_set <- Pidset.add pid t.decided_set;
        Trace.record (Sim.trace sim) ~time:(Sim.now sim)
          (Trace.Decide { pid; value = d.body; round })
      end);
  let tr = Sim.trace sim in
  let body i () =
    let est = ref proposals.(i) in
    let r = ref 0 in
    let prev_s = ref None in
    (* Match form: this runs in every blocked-predicate evaluation, where
       [<> None] would be a polymorphic-compare call. *)
    let decided_i () =
      match t.decided_at.(i) with None -> false | Some _ -> true
    in
    while not (decided_i ()) do
      incr r;
      let round = !r in
      t.round_of.(i) <- round;
      if round > t.max_round then t.max_round <- round;
      if Trace.records_entries tr then begin
        Trace.begin_span tr ~time:(Sim.now sim) (Trace.Round { pid = i; round });
        (* Suspector outputs are pure functions of virtual time, so this
           extra read is a pure trace write — it cannot perturb the run. *)
        let s_i = suspector.Iface.suspected i in
        if not (match !prev_s with Some p -> Pidset.equal p s_i | None -> false)
        then
          Trace.record tr ~time:(Sim.now sim)
            (Trace.Fd_change
               { pid = i; kind = "es"; value = Pidset.to_string s_i });
        prev_s := Some s_i
      end;
      let coord = (round - 1) mod n in
      (* Phase 1: the coordinator pushes its estimate; everyone adopts it
         as aux unless the coordinator becomes suspect first. *)
      if i = coord then Net.broadcast net ~src:i (Est { r = round; v = !est });
      (* Reads the suspector's output (clock-derived): poll cadence. *)
      Sim.Cond.await
        [ Sim.Cond.poll sim ]
        (fun () ->
          decided_i ()
          || List.mem_assoc coord (Net.keyed_summary net i (key_est round)).ests
          || Pidset.mem coord (suspector.Iface.suspected i));
      if not (decided_i ()) then begin
        let aux = List.assoc_opt coord (Net.keyed_summary net i (key_est round)).ests in
        (* Phase 2: quorum exchange of aux values.  Any two (n-t)-quorums
           intersect (t < n/2), which is what makes a decision in this
           round sticky in all later rounds. *)
        Net.broadcast net ~src:i (Aux { r = round; aux });
        (* Quorum wait: woken only at the AUX threshold crossing or by the
           R-delivery that decides i. *)
        Sim.Cond.await
          [ Net.quorum_cond net i ~key:(key_aux round) ~q:(n - tb); Rbcast.cond rb i ]
          (fun () ->
            decided_i ()
            || Net.keyed_nsenders net i (key_aux round) >= n - tb);
        if not (decided_i ()) then begin
          let tl = Net.keyed_summary net i (key_aux round) in
          match (tl.vals, tl.bot) with
          | [ v ], false -> Rbcast.broadcast rb ~src:i v
          | v :: _, _ -> est := v
          | [], _ -> ()
        end
      end;
      (* Round r's aggregates are dead once the loop advances: retire them
         so the live heap stays bounded by the round window. *)
      Net.retire net i ~below:(key_est (round + 1));
      if Trace.records_entries tr then
        Trace.end_span tr ~time:(Sim.now sim) (Trace.Round { pid = i; round })
    done;
    (* Decided: later rounds' deliveries are never read. *)
    Net.retire net i ~below:max_int
  in
  for i = 0 to n - 1 do
    Sim.spawn sim ~pid:i (body i)
  done;
  Sim.ticker sim ~every:1.0;
  t
