(** Flat int-indexed event arena: the discrete-event scheduler's queue.

    Struct-of-arrays storage: each {e slot} carries
    [(time, seq, kind, arg)] where [seq] is an internal monotonic
    insertion counter, so entries are ordered by [(time, seq)] — ties at
    one instant resolve in insertion order, the invariant every
    deterministic replay in this repository rests on.

    Internally a timing wheel fronts an overflow 4-ary min-heap: events
    landing inside the wheel's moving window hash to a bucket in O(1)
    and the next event is found by a bitmap scan from the frontier;
    everything else (far future, huge or negative times) takes the
    O(log n) heap.  The wheel narrows its bucket width adaptively when
    chains pile up — doubling its bucket count as well when it holds more
    entries than buckets, so the window keeps its span — and ordering
    stays {e exact}: the wheel is an index, never an approximation.

    [kind]/[arg] are opaque ints owned by the caller (the simulator's
    event-kind table).  Slots are recycled through a free list, so a
    simulation in steady state pushes and pops events without allocating;
    [cancel] is a true removal on both paths (bucket unlink or heap
    delete via a slot → position map). *)

type t

val create : ?initial:int -> unit -> t
(** Empty arena; [initial] (default 64) is the starting slot capacity. *)

val length : t -> int
val is_empty : t -> bool

val add : t -> time:float -> kind:int -> arg:int -> int
(** Insert an event and return its slot id (valid until popped or
    cancelled).  The entry is sequenced after every earlier [add]. *)

val pop : t -> int
(** Remove and return the slot id of the earliest event, or [-1] when
    empty.  The popped slot's fields ({!time_of}, {!kind_of}, {!arg_of},
    {!seq_of}) remain readable {b until the next [add] or [pop]} — the
    slot is recycled lazily (the free list is threaded through the arg
    field). *)

val peek_time : t -> float
(** Time of the earliest event; [infinity] when empty (no option
    allocation on the hot path). *)

val cancel : t -> int -> bool
(** Remove the event in the given slot, if still queued.  Returns
    whether anything was removed; stale slot ids are safely refused. *)

val time_of : t -> int -> float
val seq_of : t -> int -> int
val kind_of : t -> int -> int
val arg_of : t -> int -> int

val mem : t -> int -> bool
(** Whether the slot currently holds a queued event. *)

val clear : t -> unit

val to_sorted_list : t -> (float * int * int * int) list
(** Snapshot [(time, seq, kind, arg)] in ascending [(time, seq)] order
    (test/debug helper; allocates). *)

val capacity : t -> int
(** Current slot capacity (sizing diagnostics). *)

val buckets : t -> int
(** Current wheel bucket count: 16384 at creation, doubled by each
    rebuild that finds the wheel densely populated (sizing
    diagnostics). *)
