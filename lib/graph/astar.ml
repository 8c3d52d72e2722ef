(* A* over an implicit graph, with a reusable search arena.

   The arena owns the dist/pred arrays, an epoch counter that makes
   per-search initialization O(touched nodes) instead of O(n) (a cell is
   valid only when its stamp equals the current epoch), and an
   {!Heap.Indexed} decrease-key heap.  A search therefore allocates
   nothing but the final path list.

   Determinism: the heap orders members lexicographically by (f, g, id).
   With the constant admissible heuristic the path allocator uses
   (h(v) = floor for v <> target, h(target) = 0, where floor is the exact
   float minimum admissible edge cost into the target), f = g +. floor is
   monotone in g, the g tie-key restores the order of any pops the
   constant collapses, and the id breaks the rest — so every non-target
   pop happens in exactly Dijkstra's (g, id) order and the returned
   cost/path are bit-identical to Dijkstra's.  See docs/ALGORITHM.md;
   the tests hold this entry point to a naive Dijkstra oracle
   (test/dijkstra_oracle.ml).

   Only the constant-floor heuristic is offered: it is the one shape the
   path allocator uses, and without flambda a heuristic closure would
   cost an indirect call per relaxation. *)

type arena = {
  mutable cap : int;
  mutable dist : float array;
  mutable pred : int array;
  mutable stamp : int array;
  mutable epoch : int;
  mutable heap : Heap.Indexed.t;
}

let create () =
  {
    cap = 0;
    dist = [||];
    pred = [||];
    stamp = [||];
    epoch = 0;
    heap = Heap.Indexed.create 0;
  }

let ensure t n =
  if n > t.cap then begin
    let cap = max n (max 16 (2 * t.cap)) in
    t.cap <- cap;
    t.dist <- Array.make cap infinity;
    t.pred <- Array.make cap (-1);
    t.stamp <- Array.make cap 0;
    t.epoch <- 0;
    t.heap <- Heap.Indexed.create cap
  end

let check t ~n ~source ~target =
  if n < 0 then invalid_arg "Astar: negative node count";
  if source < 0 || source >= n then invalid_arg "Astar: source out of range";
  if target < 0 || target >= n then invalid_arg "Astar: target out of range";
  ensure t n;
  t.epoch <- t.epoch + 1;
  Heap.Indexed.clear t.heap

let reconstruct t ~target =
  if t.stamp.(target) <> t.epoch then None
  else begin
    let pred = t.pred in
    let rec build node acc =
      if pred.(node) = -1 then node :: acc else build pred.(node) (node :: acc)
    in
    Some (t.dist.(target), build target [])
  end

let run_to_const t ~n ~expand ~floor ~source ~target =
  if Float.is_nan floor || floor < 0.0 then
    invalid_arg "Astar.run_to_const: floor must be a non-negative bound";
  check t ~n ~source ~target;
  let epoch = t.epoch in
  let dist = t.dist and pred = t.pred and stamp = t.stamp in
  let heap = t.heap in
  dist.(source) <- 0.0;
  pred.(source) <- -1;
  stamp.(source) <- epoch;
  Heap.Indexed.insert heap source
    ~key:(0.0 +. (if source = target then 0.0 else floor))
    ~tie:0.0;
  let rec loop () =
    let u = Heap.Indexed.pop_min heap in
    if u >= 0 && u <> target then begin
      let d = dist.(u) in
      expand u (fun v w ->
          if v >= 0 && v < n && Float.is_finite w && w >= 0.0 then begin
            let candidate = d +. w in
            if stamp.(v) <> epoch || candidate < dist.(v) then begin
              (* Goal-bound pruning: once the target is labeled with d_t,
                 a label whose f = candidate +. h(v) is >= d_t is dead
                 weight — admissibility puts every extension of that
                 path prefix at >= candidate +. h(v) >= d_t (and d_t
                 only decreases), so dropping it can never change the
                 target's final distance or predecessor chain; it only
                 skips heap traffic and the expansion of equal-f plateau
                 nodes that tie-break ahead of the target.  For
                 v = target the test coincides with the strict-improvement
                 guard above, so applying it uniformly is a no-op there. *)
              let f =
                if v = target then candidate else candidate +. floor
              in
              if stamp.(target) <> epoch || f < dist.(target) then begin
                dist.(v) <- candidate;
                pred.(v) <- u;
                stamp.(v) <- epoch;
                Heap.Indexed.insert_or_decrease heap v ~key:f ~tie:candidate
              end
            end
          end);
      loop ()
    end
  in
  loop ();
  reconstruct t ~target
