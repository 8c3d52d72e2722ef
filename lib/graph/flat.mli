(** Flat, int-indexed adjacency for the routing hot path.

    ['a t] is a dense mutable edge container over node ids [0, n): one
    lazily-allocated row of ['a option] cells per source plus
    structure-of-arrays in/out degree counters.  Two properties matter to
    the synthesis inner loop:

    - {!get} returns the {e stored} option cell, so probing an edge
      allocates nothing (a [Hashtbl.find_opt] boxes a fresh [Some] per
      hit);
    - {!out_degree}/{!in_degree} are O(1) array reads, replacing the
      O(edges) folds the port-arity checks used to pay per candidate hop.

    {!set}/{!remove} are plain in-place mutations, which is exactly what
    the Topology undo journal needs: rollback re-applies the inverse
    operation on the same container. *)

type 'a t

val create : int -> 'a t
(** [create n] supports node ids [0, n).
    @raise Invalid_argument if [n < 0]. *)

val node_count : 'a t -> int
val edge_count : 'a t -> int

val out_degree : 'a t -> int -> int
(** O(1) number of edges leaving the node. *)

val in_degree : 'a t -> int -> int
(** O(1) number of edges entering the node. *)

val get : 'a t -> int -> int -> 'a option
(** [get t u v] is the value on edge (u, v), or [None].  Allocation-free:
    the result is the stored cell.  Out-of-range ids raise through the
    underlying array bounds check. *)

val out_row : 'a t -> int -> 'a option array option
(** [out_row t u] is the stored adjacency row of source [u] — [None]
    until the first edge out of [u] is set, otherwise the live cell array
    ([row.(v)] is exactly [get t u v]).  Read-only by contract: it lets a
    hot loop expanding one source hoist the row lookup out of its
    per-target probes.  Out-of-range [u] raises through the array bounds
    check. *)

val mem : 'a t -> int -> int -> bool

val set : 'a t -> int -> int -> 'a -> unit
(** Insert or replace the edge value.
    @raise Invalid_argument if an endpoint is out of range. *)

val remove : 'a t -> int -> int -> unit
(** Remove the edge if present (no-op otherwise).
    @raise Invalid_argument if an endpoint is out of range. *)

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
(** Visit every edge in ascending (src, dst) order — deterministic. *)

val fold : (int -> int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over edges in the same deterministic order as {!iter}. *)

val iter_out : (int -> 'a -> unit) -> 'a t -> int -> unit
(** [iter_out f t u] visits the out-edges of [u] in ascending dst order. *)

val copy : f:('a -> 'a) -> 'a t -> 'a t
(** Structural copy; [f] maps each stored value (pass a record copy to
    deep-copy mutable payloads). *)

val clear : 'a t -> unit
(** Remove every edge. *)
