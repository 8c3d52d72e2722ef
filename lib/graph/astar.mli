(** A* shortest path over an {e implicit} graph, with a reusable arena.

    The graph is a push iterator: [expand u relax] calls [relax v w] once
    per edge out of [u].  Edges with an out-of-range head or a non-finite
    or negative weight are ignored.  The arena owns dist/pred scratch
    arrays, an epoch stamp (so re-initialization costs O(touched), not
    O(n)) and a decrease-key heap — a search allocates only the returned
    path list.

    Determinism: the heap orders by (f, g, id) lexicographically.  With
    the constant-floor heuristic (h(v) = [floor] for v <> target,
    h(target) = 0, with [floor] an exact-float lower bound on every edge
    into the target), the result — cost and path — is bit-identical to
    Dijkstra's on the same expansion, settling by (distance, id) and
    relaxing in expansion order.  The argument lives in
    docs/ALGORITHM.md. *)

type arena

val create : unit -> arena
(** Fresh arena.  Grows on demand; reuse it across searches to keep the
    hot path allocation-free. *)

val run_to_const :
  arena ->
  n:int ->
  expand:(int -> (int -> float -> unit) -> unit) ->
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
    @raise Invalid_argument on out-of-range endpoints or a NaN/negative
    [floor]. *)
