(** Sets of process identities, backed by a multi-word bitset.

    All the paper's algorithms manipulate subsets of [Pi] (suspected sets,
    trusted sets, the query regions of [phi_y], the wheel sets [X], [Y],
    [L]).  Small universes (n up to one machine word) stay a single-chunk
    bitset with O(1) set operations; larger universes — the campaign
    engine sweeps n = 64, 128 processes — spill into further chunks.  The
    representation is canonical (no trailing zero chunks), so structural
    equality and a total order hold — which the wheel rings rely on. *)

type t
(** An immutable set of pids.  Structural equality and [compare] are
    meaningful (sets are canonical). *)

val max_size : int
(** Largest supported universe size (1024). *)

val empty : t

val is_empty : t -> bool

val full : n:int -> t
(** [full ~n] is [{0, ..., n-1}]. *)

val singleton : Pid.t -> t

val add : Pid.t -> t -> t

val remove : Pid.t -> t -> t

val mem : Pid.t -> t -> bool

val cardinal : t -> int

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val disjoint : t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order; on equal-cardinality sets of a fixed universe it coincides
    with neither lexicographic-on-elements nor colex in general — use
    {!Combi} for the ring orders.  It is only used for keys in maps. *)

val of_list : Pid.t list -> t

val to_list : t -> Pid.t list
(** Ascending order. *)

val elements : t -> Pid.t list
(** Alias of {!to_list}. *)

val iter : (Pid.t -> unit) -> t -> unit

val fold : (Pid.t -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (Pid.t -> bool) -> t -> bool

val exists : (Pid.t -> bool) -> t -> bool

val filter : (Pid.t -> bool) -> t -> t

val min_elt : t -> Pid.t
(** Smallest pid.  @raise Not_found on the empty set. *)

val min_elt_opt : t -> Pid.t option

val max_elt_opt : t -> Pid.t option

val choose_opt : t -> Pid.t option

val random : Rng.t -> n:int -> size:int -> t
(** [random rng ~n ~size] draws a uniformly random subset of [{0..n-1}] of
    cardinality [size]. *)

val pp : Format.formatter -> t -> unit
(** Prints [{p1,p4,p5}]. *)

val to_string : t -> string

val hash : t -> int
(** A hash usable as a deterministic noise-draw coordinate. *)

(** In-place sender bitsets for hot-path accumulation: a member is added
    with one word write instead of copying an immutable set.  Sized once
    for a universe of [n] pids; {!Bits.to_set} takes a canonical
    snapshot. *)
module Bits : sig
  type set := t
  type t

  val create : n:int -> t
  (** The empty bitset over [{0, ..., n-1}]. *)

  val add : t -> Pid.t -> bool
  (** Set the member's bit in place; whether it was newly set. *)

  val meets : t -> set -> bool
  (** Whether the two share a member ([not (disjoint ...)]). *)

  val to_set : t -> set
end
