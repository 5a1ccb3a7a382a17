(** Point-to-point asynchronous reliable channels (paper §2.1).

    Channels connect every pair of processes; they do not create, alter or
    lose messages, and are {e not} FIFO — each message gets an independent
    delay.  A message sent to a process that has crashed by delivery time is
    dropped (equivalently: delivered to a dead process).

    One ['m t] carries one protocol's message type; layered protocols (e.g.
    the two wheels under a k-set agreement) each create their own network
    over the same simulator, mirroring the paper's module structure.

    {b Messages leave no history.}  A delivery is read in one of two
    ways, the two ways the paper's protocols use the channels: an
    {!on_deliver} handler runs at it ("when m is delivered"), and a
    network made by {!create_keyed} folds it into a per-(destination,
    key) aggregate ("received from n − t"): a sender bitset and a
    protocol {!summary} built from each sender's first payload.
    {!keyed_nsenders}, {!keyed_meets} and {!keyed_summary} are O(1)
    lookups, and {!quorum_cond} wakes a waiter when a sender count
    crosses its threshold.  No mailbox, envelope or timestamp is kept
    once the handlers return. *)

open Setagree_util
open Setagree_dsys

type 'm envelope = { src : Pid.t; dst : Pid.t; payload : 'm }
(** What a handler sees of one delivery; the time is [Sim.now]. *)

type ('m, 's) net
(** A network carrying ['m] payloads whose keyed index keeps an ['s]
    summary per (destination, key). *)

type 'm t = ('m, unit) net
(** A network without a protocol summary. *)

type ('m, 's) summary = {
  empty : unit -> 's;  (** The summary of a key no delivery has reached. *)
  add : 's -> src:Pid.t -> 'm -> 's;
      (** Fold in the first delivery of the key from [src]; later copies
          from the same sender (duplicates) are not passed in, so a
          summary is unchanged by them.  May update in place and return
          its argument. *)
}
(** How a protocol condenses one key's deliveries at a destination: built
    at the receiver from delivered payloads only, so it works the same
    for local deliveries, {!inject}ed ones and explorer-chosen ones.  It
    assumes what round-based protocols guarantee: a sender sends one
    payload per key (copies of it may arrive more than once). *)

val counts_only : ('m, unit) summary
(** No summary: the index keeps senders and counts only. *)

val create :
  Sim.t ->
  ?tag:string ->
  ?delay:Delay.t ->
  ?loss:float ->
  unit ->
  'm t
(** [create sim ~tag ~delay ()] — [tag] names the protocol in traces and
    counters (default ["net"]); [delay] defaults to {!Delay.default}.
    Delay draws come from an RNG split off the simulator's root with the
    tag as key, so adding another network does not perturb this one.
    [loss]: when given, every {!send} travels through a stubborn reliable
    transport over a fair-lossy link dropping that fraction of copies
    ({!Lossy.Transport}) — same delivery guarantees between correct
    processes, higher latency and raw-link traffic.  {!send_at} stays
    direct (it is the adversary's injection primitive, not a channel). *)

val create_keyed :
  Sim.t ->
  ?tag:string ->
  ?delay:Delay.t ->
  ?loss:float ->
  classify:('m -> int) ->
  summary:('m, 's) summary ->
  unit ->
  ('m, 's) net
(** {!create} plus the keyed delivery index: [classify] maps each payload
    to an integer key — the protocol's round/phase structure, typically —
    and every delivery updates the aggregate for (destination, key).
    Per-key storage is created by the first delivery of the key, never at
    create time. *)

val quorum_cond : ('m, 's) net -> Pid.t -> key:int -> q:int -> Sim.cond
(** The wakeup for the quorum waits that dominate round structure:
    registers (replacing the process's previous registration)
    a watch on the keyed delivery index and returns a condition signalled
    {e only} when the distinct-sender count for [key] at the process
    crosses [q].  A predicate of the shape
    [decided || keyed_nsenders t pid key >= q] subscribed to this (plus
    whatever signals [decided]) is re-evaluated once at the crossing
    delivery instead of at every delivery — same wakeup instant, since
    the count is monotone and only grows at deliveries of [key].  One
    watch per process per net: registering for a new round supersedes the
    old watch, matching protocols that hold at most one quorum wait at a
    time. *)

val send : ('m, 's) net -> src:Pid.t -> dst:Pid.t -> 'm -> unit
(** Asynchronous send; returns immediately.  No-op if [src] already
    crashed (a dead process takes no step).  When a {!Sim} chooser is
    installed ([Sim.controlled]) and the net has no lossy transport, the
    delivery is offered to the chooser's pending pool instead of being
    scheduled after a sampled delay — the explorer picks the order.

    {b Fault injection.}  When the simulator carries a fault spec
    ([Sim.faults] not [Faults.none]) and the net is neither controlled
    nor transport-backed, each send is evaluated against the spec
    ([Faults.send_plan], on a dedicated rng stream): partitioned or
    dropped messages are parked until their fault window closes and then
    take a normal hop, duplicated messages get extra copies with
    independent delays, and reorder/inflation faults stretch the sampled
    delay.  Deliveries to a currently {e stalled} destination are held by
    the channel and re-presented when the stall window ends (applies on
    every path, including {!send_at} and transport-backed nets).
    Controlled runs skip the spec — the chooser owns nondeterminism —
    and transport-backed nets already model their own link faults. *)

val send_at : ('m, 's) net -> src:Pid.t -> dst:Pid.t -> deliver_at:float -> 'm -> unit
(** Adversarial variant: deliver at an absolute virtual time. *)

val broadcast : ('m, 's) net -> src:Pid.t -> 'm -> unit
(** The paper's [Broadcast m]: send to every process including the sender.
    Executes atomically at the current instant (each copy still gets its own
    delay); use {!broadcast_staggered} when crash-interrupted partial
    broadcasts must be possible. *)

val broadcast_staggered : ('m, 's) net -> src:Pid.t -> step:float -> 'm -> unit
(** Sends to destinations one by one, [step] time units apart, stopping if
    the sender crashes in between — the failure mode reliable broadcast
    exists to mask. *)

(** {1 Keyed delivery index} (networks made by {!create_keyed}) *)

val keyed_nsenders : ('m, 's) net -> Pid.t -> int -> int
(** Distinct senders of the key's deliveries to the process — an int
    maintained at delivery, for quorum predicates evaluated per event. *)

val keyed_meets : ('m, 's) net -> Pid.t -> int -> Pidset.t -> bool
(** Whether some sender of the key's deliveries to the process is in the
    set — a read of the in-place bitset, for predicates evaluated per
    event. *)

val keyed_summary : ('m, 's) net -> Pid.t -> int -> 's
(** The key's summary at the process: the fold of {!summary}[.add] over
    the first delivery from each sender so far, or a shared empty summary
    (never to be mutated) when nothing live is indexed under the key. *)

val retire : ('m, 's) net -> Pid.t -> below:int -> unit
(** Advance the process's round frontier: every key below [below] is
    retired — its aggregate is freed, and later deliveries of it (late or
    duplicate copies) still reach the handlers but skip the index, so
    the keyed accessors read such keys as empty for good.  Keeps a long
    run's live index bounded by the round window.  The frontier only
    moves up; [below:max_int] retires every key, for a process that is
    done reading. *)

val inject : ('m, 's) net -> src:Pid.t -> 'm -> unit
(** Real-runtime ingress: deliver a message that already traveled the
    wire to the {!Setagree_dsys.Sim.local} pid, as an immediate delivery
    event of the local simulator: the keyed index and the handlers read
    it inside the next [Sim.advance] tick, as for a local delivery.
    Raises [Invalid_argument] on a simulator without [local].  The
    inverse direction is automatic: on a [local] simulator, {!create}
    registers an inlet under the net's tag that decodes and injects, and
    {!send} routes remote-bound messages through [Sim.set_router]. *)

val on_deliver : ('m, 's) net -> ('m envelope -> unit) -> unit
(** Register a callback run at each delivery (after the keyed index
    update, and only if the destination is alive).  Callbacks run in
    registration order.  Used for the paper's "when m is delivered"
    tasks. *)

val sent_count : ('m, 's) net -> int
(** Total messages sent through this network.  Deliveries are counted by
    the [<tag>.delivered] trace counter. *)
