(** A* shortest path over an {e implicit} graph, with a reusable arena.

    The graph is an expansion called once per popped node: [expand u d
    bound succ weight] writes the edges out of [u] as pairs
    [(succ.(i), weight.(i))] for [i] in [\[0, count)] and returns
    [count].  [d] is [u]'s distance label and [bound] the target's
    current label ([infinity] while the target is unlabeled), so an
    expansion may leave out any edge the search would discard anyway
    (see {!run_to_const}).  The buffers hold at least [n] pairs.  Pairs
    are relaxed in buffer order; a pair with an out-of-range head or a
    non-finite or negative weight is ignored.  The arena owns dist/pred
    scratch arrays, an epoch stamp (so re-initialization costs
    O(touched), not O(n)), the buffers and a decrease-key heap — a
    search allocates only the label and bound it boxes per pop and the
    returned path list.

    Determinism: the heap orders by (f, g, id) lexicographically.  With
    the constant-floor heuristic (h(v) = [floor] for v <> target,
    h(target) = 0, with [floor] an exact-float lower bound on every edge
    into the target), the result — cost and path — is bit-identical to
    Dijkstra's on the same graph, settling by (distance, id) and
    relaxing in expansion order.  The argument lives in
    docs/ALGORITHM.md. *)

type arena

val create : unit -> arena
(** Fresh arena.  Grows on demand; reuse it across searches to keep the
    hot path allocation-free. *)

val run_to_const :
  arena ->
  n:int ->
  expand:(int -> float -> float -> int array -> float array -> int) ->
  floor:float ->
  source:int ->
  target:int ->
  (float * int list) option
(** [run_to_const arena ~n ~expand ~floor ~source ~target] is the
    cheapest path as [(cost, nodes)] including both endpoints, or [None]
    if unreachable, under the heuristic
    [h v = if v = target then 0.0 else floor].  [floor] must be a
    non-negative lower bound on the cost of every edge entering [target]
    ([infinity] when none exists; NaN rejected).  The returned cost is
    the true path cost (g), not f.

    The search drops a relaxation of a non-target [v] whose
    [f = (d +. w) +. floor] is at least the target's label once that
    label is set.  So an expansion called with [(u, d, bound)] may, without
    changing the result, leave out an edge to a non-target [v] whenever
    [(d +. lb) +. floor >= bound'] for some [lb <= w], where [bound'] is
    [bound], or [min bound (d +. w_t)] when the expansion writes the
    edge [(target, w_t)] ahead of it.
    @raise Invalid_argument on out-of-range endpoints or a NaN/negative
    [floor]. *)

(** Decrease-key min-heap over int ids in [0, n), the search's priority
    queue.

    Ordering is lexicographic on [(key, tie, id)].  The [tie] field is a
    caller-chosen secondary key — the search stores the g-cost there so
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
      good. *)

  val pop_min : t -> int
  (** Remove and return the smallest member id, or [-1] if empty. *)

  val clear : t -> unit
  (** Drop all members.  O(members), not O(n). *)
end
