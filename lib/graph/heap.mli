(** Array-backed binary min-heaps keyed by [float] priorities.

    The generic heap backs the NoC simulator's event queue and any caller
    that wants arbitrary payloads; it stores entries in a plain ['a array]
    (no per-push [Some] boxing), which is why {!create} needs a [dummy]
    element to fill empty slots.  Decrease-key on the generic heap is
    handled by lazy deletion: push the same payload again with a smaller
    key and have the caller skip stale entries on pop.

    The routing search's decrease-key heap is {!Astar.Indexed}, kept
    beside the one loop that uses it. *)

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
