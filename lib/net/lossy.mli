(** Fair-lossy links and a reliable transport built over them.

    The paper assumes reliable channels.  This module shows that assumption
    is implementable from a strictly weaker substrate: {!Link} delivers
    each message with probability [1 - loss] (fair-lossy: of infinitely
    many sends, infinitely many get through), and {!Transport} recovers
    reliable, no-duplication delivery with the classic
    stubborn-retransmission + acknowledgement + sequence-number scheme.
    A sender that crashes stops retransmitting, so messages it sent may be
    lost — exactly the "unless it fails" proviso of §2.1.

    [Net] remains the substrate used by the algorithms (one hop fewer in
    every simulation); {!Transport} exists to validate the model and to
    let experiments run the whole stack over lossy links if desired. *)

open Setagree_util
open Setagree_dsys

module Link : sig
  type 'm t

  val create :
    Sim.t -> ?tag:string -> ?delay:Delay.t -> loss:float -> unit -> 'm t
  (** Each copy is dropped with probability [loss] (deterministically, from
      the simulation seed), independently. *)

  val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit
  val on_deliver : 'm t -> (src:Pid.t -> dst:Pid.t -> 'm -> unit) -> unit
  (** Callbacks run in registration order. *)

  val sent : 'm t -> int
  val dropped : 'm t -> int
  val delivered : 'm t -> int
end

module Transport : sig
  type 'm t

  val create :
    Sim.t ->
    ?tag:string ->
    ?delay:Delay.t ->
    loss:float ->
    unit ->
    'm t
  (** Reliable transport over a fresh fair-lossy link: sequence numbers
      for deduplication, acks to retire per-message retransmission
      timers.  Retransmission is stubborn (a message is resent until
      acked — reliability needs nothing less) but paced by capped
      exponential backoff: the first resend comes after 1.0, each further
      one twice as long after the last up to 8.0, all perturbed by ±20%
      of deterministic seed-derived jitter via {!Delay.backoff_interval}.
      An ack from a destination resets the backoff of its other pending
      messages (fresh evidence the path works).  Trace counters:
      [net.retransmits] counts resent data packets, [net.backoff_resets]
      pending messages pulled back to the base interval. *)

  val send : 'm t -> src:Pid.t -> dst:Pid.t -> 'm -> unit
  (** Queue for reliable delivery.  Must be called while [src] is alive;
      delivery is guaranteed if both ends are correct. *)

  val on_deliver : 'm t -> (src:Pid.t -> dst:Pid.t -> 'm -> unit) -> unit
  (** Callback at each delivery, duplicates already removed, in
      registration order. *)

  val pending : 'm t -> Pid.t -> int
  (** Unacknowledged messages a process is still retransmitting. *)

  val link_sent : 'm t -> int
  (** Raw link-level copies consumed (retransmissions + acks). *)
end
