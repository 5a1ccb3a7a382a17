open Setagree_util
open Setagree_dsys

module Link = struct
  type 'm t = {
    sim : Sim.t;
    tag : string;
    delay : Delay.t;
    rng : Rng.t;
    loss : float;
    mutable handlers : (src:Pid.t -> dst:Pid.t -> 'm -> unit) list; (* registration order *)
    mutable sent : int;
    mutable dropped : int;
    mutable delivered : int;
    h_sent : Trace.counter; (* pre-resolved [tag ^ ".link.sent"] *)
  }

  let create sim ?(tag = "lossy") ?(delay = Delay.default) ~loss () =
    if loss < 0.0 || loss >= 1.0 then invalid_arg "Lossy.Link.create: loss in [0,1)";
    {
      sim;
      tag;
      delay;
      rng = Rng.split_named (Sim.rng sim) ("lossy:" ^ tag);
      loss;
      handlers = [];
      sent = 0;
      dropped = 0;
      delivered = 0;
      h_sent = Trace.counter_handle (Sim.trace sim) (tag ^ ".link.sent");
    }

  let send t ~src ~dst payload =
    if not (Sim.is_crashed t.sim src) then begin
      t.sent <- t.sent + 1;
      Trace.bump t.h_sent 1;
      if Rng.bernoulli t.rng t.loss then t.dropped <- t.dropped + 1
      else begin
        let d = Delay.sample t.delay ~rng:t.rng ~src ~dst ~now:(Sim.now t.sim) in
        Sim.schedule t.sim ~delay:d (fun () ->
            if not (Sim.is_crashed t.sim dst) then begin
              t.delivered <- t.delivered + 1;
              List.iter (fun h -> h ~src ~dst payload) t.handlers
            end)
      end
    end

  let on_deliver t h = t.handlers <- t.handlers @ [ h ]
  let sent t = t.sent
  let dropped t = t.dropped
  let delivered t = t.delivered
end

module Transport = struct
  type 'm packet = Data of { seq : int; body : 'm } | Ack of { seq : int }

  type 'm pend = { pd_dst : Pid.t; pd_body : 'm; mutable pd_attempt : int }

  (* Backoff schedule: the first resend comes [base] after the send, each
     further one [factor] times later than the last up to [cap], each
     perturbed by ±[jitter] of deterministic jitter from [brng] so
     retransmission bursts from different senders decorrelate. *)
  let base = 1.0
  let factor = 2.0
  let cap = 8.0 *. base
  let jitter = 0.2

  type 'm t = {
    sim : Sim.t;
    link : 'm packet Link.t;
    brng : Rng.t;
    (* Per sender: next sequence number and the unacknowledged queue. *)
    next_seq : int array;
    unacked : (int, 'm pend) Hashtbl.t array;
    (* Per receiver: seen (src, seq) pairs. *)
    seen : (Pid.t * int, unit) Hashtbl.t array;
    mutable handlers : (src:Pid.t -> dst:Pid.t -> 'm -> unit) list; (* registration order *)
  }

  (* Per-message retransmission timer.  Still stubborn — a message is
     resent until acked, preserving the reliable-channel emulation — but
     the interval backs off exponentially to [cap] instead of hammering
     at a fixed period, and a successful ack from a destination pulls its
     other pending messages back to the base interval. *)
  let rec arm t ~src seq =
    match Hashtbl.find_opt t.unacked.(src) seq with
    | None -> ()
    | Some p ->
        let interval =
          Delay.backoff_interval ~base ~factor ~cap ~jitter ~rng:t.brng
            ~attempt:p.pd_attempt
        in
        Sim.schedule t.sim ~delay:interval (fun () ->
            match Hashtbl.find_opt t.unacked.(src) seq with
            | None -> ()
            | Some p when Sim.is_crashed t.sim src -> ignore p
            | Some p -> (
                match Sim.stall_end t.sim src with
                | Some resume_at ->
                    (* A stalled sender is frozen: hold off, recheck at
                       the end of the stall window. *)
                    Sim.at t.sim ~time:resume_at (fun () -> arm t ~src seq)
                | None ->
                    p.pd_attempt <- p.pd_attempt + 1;
                    Trace.incr (Sim.trace t.sim) "net.retransmits";
                    Link.send t.link ~src ~dst:p.pd_dst
                      (Data { seq; body = p.pd_body });
                    arm t ~src seq))

  let create sim ?(tag = "transport") ?(delay = Delay.default) ~loss () =
    let n = Sim.n sim in
    let t =
      {
        sim;
        link = Link.create sim ~tag ~delay ~loss ();
        brng = Rng.split_named (Sim.rng sim) ("backoff:" ^ tag);
        next_seq = Array.make n 0;
        unacked = Array.init n (fun _ -> Hashtbl.create 32);
        seen = Array.init n (fun _ -> Hashtbl.create 64);
        handlers = [];
      }
    in
    Link.on_deliver t.link (fun ~src ~dst packet ->
        match packet with
        | Data { seq; body } ->
            (* Always re-ack: the previous ack may have been lost. *)
            Link.send t.link ~src:dst ~dst:src (Ack { seq });
            if not (Hashtbl.mem t.seen.(dst) (src, seq)) then begin
              Hashtbl.add t.seen.(dst) (src, seq) ();
              List.iter (fun h -> h ~src ~dst body) t.handlers
            end
        | Ack { seq } -> (
            (* [dst] is the original sender here (acks flow backwards). *)
            match Hashtbl.find_opt t.unacked.(dst) seq with
            | None -> ()
            | Some p ->
                Hashtbl.remove t.unacked.(dst) seq;
                (* Fresh evidence the path to [p.pd_dst] works: pull its
                   other backed-off messages back to the base interval. *)
                Hashtbl.iter
                  (fun _ q ->
                    if q.pd_dst = p.pd_dst && q.pd_attempt > 0 then begin
                      q.pd_attempt <- 0;
                      Trace.incr (Sim.trace t.sim) "net.backoff_resets"
                    end)
                  t.unacked.(dst)));
    t

  let send t ~src ~dst body =
    if not (Sim.is_crashed t.sim src) then begin
      let seq = t.next_seq.(src) in
      t.next_seq.(src) <- seq + 1;
      Hashtbl.replace t.unacked.(src) seq
        { pd_dst = dst; pd_body = body; pd_attempt = 0 };
      Link.send t.link ~src ~dst (Data { seq; body });
      arm t ~src seq
    end

  let on_deliver t h = t.handlers <- t.handlers @ [ h ]
  let pending t pid = Hashtbl.length t.unacked.(pid)
  let link_sent t = Link.sent t.link
end
