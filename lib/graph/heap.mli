(** Array-backed binary min-heaps keyed by [float] priorities.

    The generic heap backs the NoC simulator's event queue and any caller
    that wants arbitrary payloads; it stores entries in a plain ['a array]
    (no per-push [Some] boxing), which is why {!create} needs a [dummy]
    element to fill empty slots.  Decrease-key on the generic heap is
    handled by lazy deletion: push the same payload again with a smaller
    key and have the caller skip stale entries on pop.

    {!Indexed} is the priority queue behind the routing search
    ({!Astar}): payloads are ids in [0, n), membership is
    tracked in a positions array, and it supports true decrease-key with a
    deterministic lexicographic (key, tie, id) ordering so equal-key pop
    order never depends on heap internals. *)

type 'a t

val create : dummy:'a -> ?capacity:int -> unit -> 'a t
(** Fresh empty heap.  [dummy] fills unused slots of the backing array
    (it is never returned); [capacity] pre-sizes the array. *)

val length : 'a t -> int
(** Number of live entries (stale entries from lazy decrease-key included). *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts payload [v] with priority [key]. *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the entry with the smallest key, or [None] if empty. *)

val peek_min : 'a t -> (float * 'a) option
(** Smallest entry without removing it. *)

val clear : 'a t -> unit

(** Decrease-key min-heap over int ids in [0, n).

    Ordering is lexicographic on [(key, tie, id)].  The [tie] field is a
    caller-chosen secondary key — the A* engine stores the g-cost there so
    a constant heuristic offset cannot reorder equal-f pops relative to
    plain Dijkstra — and the id itself breaks any remaining tie, making
    pop order fully deterministic. *)
module Indexed : sig
  type t

  val create : int -> t
  (** [create n] supports ids in [0, n).
      @raise Invalid_argument if [n < 0]. *)

  val capacity : t -> int
  (** The [n] the heap was created with. *)

  val length : t -> int
  val is_empty : t -> bool

  val mem : t -> int -> bool
  (** Is the id currently a member? *)

  val insert : t -> int -> key:float -> tie:float -> unit
  (** Add a non-member id.
      @raise Invalid_argument if out of range or already a member. *)

  val decrease : t -> int -> key:float -> tie:float -> unit
  (** Lower a member's key (the caller guarantees the new [(key, tie)] is
      no greater than the old one).
      @raise Invalid_argument if the id is not a member. *)

  val insert_or_decrease : t -> int -> key:float -> tie:float -> unit
  (** Insert if absent; otherwise decrease iff the new [(key, tie)] is
      strictly smaller.  No-op when the member's current key is already as
      good — exactly the relaxation step of A*. *)

  val pop_min : t -> int
  (** Remove and return the smallest member id, or [-1] if empty. *)

  val clear : t -> unit
  (** Drop all members.  O(members), not O(n). *)
end
