open Setagree_util
open Setagree_dsys
open Setagree_net
open Setagree_fd

type msg =
  | Phase1 of { r : int; lset : Pidset.t; est : int }
  | Phase2 of { r : int; aux : int option }

(* What a process keeps of one round-phase's deliveries: the keyed index's
   summary, folded from the first message of each sender. *)
type tally = {
  mutable from : msg array; (* phase 1: each sender's PHASE1, by pid; [||] until one arrives *)
  mutable vals : int list; (* phase 2: distinct non-⊥ aux values, ascending *)
  mutable bot : bool; (* phase 2: some sender sent ⊥ *)
}

(* Fills the [from] slots of senders not heard from. *)
let unheard = Phase2 { r = 0; aux = None }

let tally ~n =
  {
    Net.empty = (fun () -> { from = [||]; vals = []; bot = false });
    add =
      (fun tl ~src m ->
        (match m with
        | Phase1 _ ->
            if Array.length tl.from = 0 then tl.from <- Array.make n unheard;
            tl.from.(src) <- m
        | Phase2 { aux = Some v; _ } ->
            if not (List.mem v tl.vals) then tl.vals <- List.sort Int.compare (v :: tl.vals)
        | Phase2 { aux = None; _ } -> tl.bot <- true);
        tl);
  }

type t = {
  sim : Sim.t;
  net : (msg, tally) Net.net;
  rb : int Rbcast.t;
  decided_at : (int * int * float) option array; (* value, round, time *)
  mutable decided_set : Pidset.t; (* pids with [decided_at <> None] *)
  round_of : int array;
  mutable max_round : int;
  (* Lemma 2 witness: per round, the distinct non-⊥ aux values any process
     broadcast in phase 2. *)
  aux_per_round : (int, int list) Hashtbl.t;
}

let decided t pid =
  Option.map (fun (v, r, _) -> (v, r)) t.decided_at.(pid)

(* Evaluated after every event as a stop condition: one word-wise subset
   test over two shared pidsets, no allocation, no per-process scan. *)
let all_correct_decided t =
  Pidset.subset (Sim.correct_set t.sim) t.decided_set

let decisions t =
  let ds = ref [] in
  Array.iteri
    (fun pid -> function
      | Some (v, r, tm) -> ds := (pid, v, r, tm) :: !ds
      | None -> ())
    t.decided_at;
  List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b) !ds

let max_round t = t.max_round
let messages_sent t = Net.sent_count t.net + Rbcast.underlying_sent t.rb

(* The empirical face of the paper's Lemma 2: at the end of phase 1 of any
   round, at most |L| <= k distinct non-⊥ values survive.  We witness it on
   the phase-2 broadcasts. *)
let max_distinct_aux t =
  Hashtbl.fold (fun _ vs acc -> max acc (List.length vs)) t.aux_per_round 0

let record_aux t ~round = function
  | None -> ()
  | Some v ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt t.aux_per_round round) in
      if not (List.mem v cur) then Hashtbl.replace t.aux_per_round round (v :: cur)

(* The leader set announced (in its PHASE1 of this round) by a strict
   majority of distinct senders, if any; at most one set can qualify.  A
   Boyer–Moore vote over the senders heard from leaves the only possible
   majority as the candidate, and one counting pass confirms it. *)
let majority_leader_set (tl : tally) ~n =
  let cand = ref Pidset.empty and lead = ref 0 in
  Array.iter
    (function
      | Phase1 { lset; _ } ->
          if !lead = 0 then begin
            cand := lset;
            lead := 1
          end
          else if Pidset.equal lset !cand then incr lead
          else decr lead
      | Phase2 _ -> ())
    tl.from;
  if !lead = 0 then None
  else begin
    let votes =
      Array.fold_left
        (fun acc -> function
          | Phase1 { lset; _ } when Pidset.equal lset !cand -> acc + 1
          | _ -> acc)
        0 tl.from
    in
    if 2 * votes > n then Some !cand else None
  end

type tie_break = Smallest | By_pid

(* Resolve an "arbitrary" choice among candidates (non-empty, sorted). *)
let choose tie_break ~pid = function
  | [] -> invalid_arg "Kset.choose: empty"
  | l -> (
      match tie_break with
      | Smallest -> List.hd l
      | By_pid -> List.nth l (pid mod List.length l))

let install sim ~omega ~proposals ?(delay = Delay.default) ?(step = 0.05)
    ?(tie_break = Smallest) ?decision_stagger ?loss () =
  let n = Sim.n sim in
  let tb = Sim.t_bound sim in
  if 2 * tb >= n then invalid_arg "Kset.install: requires t < n/2";
  if Array.length proposals <> n then invalid_arg "Kset.install: bad proposals";
  (* Round/phase structure as delivery-index keys: readiness checks below
     are O(1) keyed lookups, and the waits are woken only by deliveries. *)
  let key_p1 r = 2 * r and key_p2 r = (2 * r) + 1 in
  let classify = function
    | Phase1 { r; _ } -> key_p1 r
    | Phase2 { r; _ } -> key_p2 r
  in
  let net =
    Net.create_keyed sim ~tag:"kset" ~delay ~retain:false ?loss ~classify
      ~summary:(tally ~n) ()
  in
  let rb = Rbcast.create sim ~tag:"kset.dec" ~delay ?stagger:decision_stagger ?loss () in
  let t =
    {
      sim;
      net;
      rb;
      decided_at = Array.make n None;
      decided_set = Pidset.empty;
      round_of = Array.make n 0;
      max_round = 0;
      aux_per_round = Hashtbl.create 32;
    }
  in
  (* Task T2: decide on R-delivery of a DECISION value. *)
  Rbcast.on_deliver rb (fun pid (d : int Rbcast.delivery) ->
      if t.decided_at.(pid) = None then begin
        let round = t.round_of.(pid) in
        t.decided_at.(pid) <- Some (d.body, round, Sim.now sim);
        t.decided_set <- Pidset.add pid t.decided_set;
        Trace.record (Sim.trace sim) ~time:(Sim.now sim)
          (Trace.Decide { pid; value = d.body; round })
      end);
  (* Task T1: the round loop. *)
  let tr = Sim.trace sim in
  let body i () =
    let est = ref proposals.(i) in
    let r = ref 0 in
    let prev_l = ref None in
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
      if Trace.records_entries tr then
        Trace.begin_span tr ~time:(Sim.now sim) (Trace.Round { pid = i; round });
      (* Phase 1 *)
      let l_i = omega.Iface.trusted i in
      (* The oracle read happens every round anyway: logging its changes is
         a pure trace write, no extra events or RNG draws. *)
      if
        Trace.records_entries tr
        && not (match !prev_l with Some p -> Pidset.equal p l_i | None -> false)
      then
        Trace.record tr ~time:(Sim.now sim)
          (Trace.Fd_change
             { pid = i; kind = "omega"; value = Pidset.to_string l_i });
      prev_l := Some l_i;
      Net.broadcast net ~src:i (Phase1 { r = round; lset = l_i; est = !est });
      (* Quorum wait: the predicate can only become true when the PHASE1
         distinct-sender count crosses n-t or an R-delivery decides i, so
         subscribe the threshold watch (woken once, at the crossing) and
         the rbcast condition — not the per-delivery net condition. *)
      Sim.Cond.await
        [ Net.quorum_cond net i ~key:(key_p1 round) ~q:(n - tb); Rbcast.cond rb i ]
        (fun () ->
          decided_i ()
          || Net.keyed_nsenders net i (key_p1 round) >= n - tb);
      (* This wait also reads the oracle's output, a function of the clock:
         no substrate signals it, so it keeps the poll cadence. *)
      Sim.Cond.await
        [ Sim.Cond.poll sim ]
        (fun () ->
          decided_i ()
          || Net.keyed_meets net i (key_p1 round) l_i
          || not (Pidset.equal (omega.Iface.trusted i) l_i));
      if not (decided_i ()) then begin
        let p1 = Net.keyed_summary net i (key_p1 round) in
        let aux =
          match majority_leader_set p1 ~n with
          | None -> None
          | Some lset -> (
              (* Estimates announced by members of the majority leader set,
                 as a sorted value set. *)
              let ests =
                Pidset.fold
                  (fun src acc ->
                    match p1.from.(src) with
                    | Phase1 { est; _ } -> est :: acc
                    | Phase2 _ -> acc)
                  lset []
              in
              match List.sort_uniq Int.compare ests with
              | [] -> None
              | vs -> Some (choose tie_break ~pid:i vs))
        in
        (* Phase 2 *)
        record_aux t ~round aux;
        Net.broadcast net ~src:i (Phase2 { r = round; aux });
        Sim.Cond.await
          [ Net.quorum_cond net i ~key:(key_p2 round) ~q:(n - tb); Rbcast.cond rb i ]
          (fun () ->
            decided_i ()
            || Net.keyed_nsenders net i (key_p2 round) >= n - tb);
        if not (decided_i ()) then begin
          let p2 = Net.keyed_summary net i (key_p2 round) in
          (match p2.vals with [] -> () | vs -> est := choose tie_break ~pid:i vs);
          if not p2.bot then begin
            Rbcast.broadcast rb ~src:i !est;
            (* The local R-delivery above has already recorded the decision;
               the loop guard ends the task. *)
          end
          else Sim.sleep step
        end
      end;
      (* Nothing reads round r's aggregates once the loop advances (each
         wait closes over its own round): retire them so the live heap
         stays bounded by the round window, not the whole run. *)
      Net.retire net i ~below:(key_p1 (round + 1));
      if Trace.records_entries tr then
        Trace.end_span tr ~time:(Sim.now sim) (Trace.Round { pid = i; round })
    done;
    (* Decided: later rounds' deliveries are never read. *)
    Net.retire net i ~below:max_int
  in
  for i = 0 to n - 1 do
    Sim.spawn sim ~pid:i (body i)
  done;
  (* Oracle reads are time-driven; keep predicates re-evaluated even between
     message events. *)
  Sim.ticker sim ~every:1.0;
  t
