(* A* over an implicit graph, with a reusable search arena.

   The arena owns the dist/pred arrays, an epoch counter that makes
   per-search initialization O(touched nodes) instead of O(n) (a cell is
   valid only when its stamp equals the current epoch), the decrease-key
   heap below, and the two buffers an expansion writes its
   (successor, weight) pairs into.  A search therefore allocates nothing
   but the boxed label and bound it hands the expansion once per pop,
   and the final path list.

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

   The heap lives in this module, not in [Heap], because this loop is
   its only user: the build compiles every library module [-opaque], so
   a call into another module is an indirect call that boxes its float
   arguments, while the calls below are direct and pass keys through the
   heap's own float arrays. *)

(* ---------- Indexed: decrease-key heap over int ids ---------- *)

module Indexed = struct
  (* Members are ids in [0, n).  Ordering is lexicographic on
     (key, tie, id): the tie field gives the routing search a
     deterministic secondary key (A* stores the g-cost there so that a
     constant heuristic cannot reorder equal-f pops), and the id itself
     breaks remaining ties so pop order never depends on heap
     internals. *)
  type t = {
    n : int;
    keys : float array; (* per id, valid while the id is a member *)
    ties : float array; (* per id, secondary key *)
    heap : int array;   (* slot -> id *)
    pos : int array;    (* id -> slot, -1 when not a member *)
    mutable size : int;
  }

  let create n =
    if n < 0 then invalid_arg "Astar.Indexed.create: negative size";
    {
      n;
      keys = Array.make (max n 1) 0.0;
      ties = Array.make (max n 1) 0.0;
      heap = Array.make (max n 1) (-1);
      pos = Array.make (max n 1) (-1);
      size = 0;
    }

  let capacity t = t.n
  let length t = t.size
  let is_empty t = t.size = 0
  let mem t id = t.pos.(id) >= 0

  (* [less t a b]: does id [a] order strictly before id [b]? *)
  let less t a b =
    let ka = t.keys.(a) and kb = t.keys.(b) in
    if ka < kb then true
    else if ka > kb then false
    else begin
      let ta = t.ties.(a) and tb = t.ties.(b) in
      if ta < tb then true else if ta > tb then false else a < b
    end

  let swap t i j =
    let a = t.heap.(i) and b = t.heap.(j) in
    t.heap.(i) <- b;
    t.heap.(j) <- a;
    t.pos.(b) <- i;
    t.pos.(a) <- j

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t t.heap.(i) t.heap.(parent) then begin
        swap t parent i;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && less t t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.size && less t t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  (* Restore heap order after [id]'s key was written in place: append a
     non-member, sift a member up.  The caller guarantees a member's new
     (key, tie) is no greater than its old one. *)
  let place t id =
    let i = t.pos.(id) in
    if i >= 0 then sift_up t i
    else begin
      t.heap.(t.size) <- id;
      t.pos.(id) <- t.size;
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end

  let insert t id ~key ~tie =
    if id < 0 || id >= t.n then
      invalid_arg "Astar.Indexed.insert: id out of range";
    if t.pos.(id) >= 0 then invalid_arg "Astar.Indexed.insert: already a member";
    t.keys.(id) <- key;
    t.ties.(id) <- tie;
    place t id

  let decrease t id ~key ~tie =
    if t.pos.(id) < 0 then invalid_arg "Astar.Indexed.decrease: not a member";
    t.keys.(id) <- key;
    t.ties.(id) <- tie;
    place t id

  let insert_or_decrease t id ~key ~tie =
    if t.pos.(id) < 0 then insert t id ~key ~tie
    else if key < t.keys.(id) || (key = t.keys.(id) && tie < t.ties.(id)) then
      decrease t id ~key ~tie

  let pop_min t =
    if t.size = 0 then -1
    else begin
      let top = t.heap.(0) in
      t.size <- t.size - 1;
      t.pos.(top) <- -1;
      if t.size > 0 then begin
        let last = t.heap.(t.size) in
        t.heap.(0) <- last;
        t.pos.(last) <- 0;
        sift_down t 0
      end;
      top
    end

  let clear t =
    for i = 0 to t.size - 1 do
      t.pos.(t.heap.(i)) <- -1
    done;
    t.size <- 0
end

(* ---------- the search ---------- *)

type arena = {
  mutable cap : int;
  mutable dist : float array;
  mutable pred : int array;
  mutable stamp : int array;
  mutable epoch : int;
  mutable heap : Indexed.t;
  mutable succ : int array;     (* an expansion's successor ids *)
  mutable weight : float array; (* ... and their edge weights *)
}

let create () =
  {
    cap = 0;
    dist = [||];
    pred = [||];
    stamp = [||];
    epoch = 0;
    heap = Indexed.create 0;
    succ = [||];
    weight = [||];
  }

let ensure t n =
  if n > t.cap then begin
    let cap = max n (max 16 (2 * t.cap)) in
    t.cap <- cap;
    t.dist <- Array.make cap infinity;
    t.pred <- Array.make cap (-1);
    t.stamp <- Array.make cap 0;
    t.epoch <- 0;
    t.heap <- Indexed.create cap;
    t.succ <- Array.make cap (-1);
    t.weight <- Array.make cap 0.0
  end

let check t ~n ~source ~target =
  if n < 0 then invalid_arg "Astar: negative node count";
  if source < 0 || source >= n then invalid_arg "Astar: source out of range";
  if target < 0 || target >= n then invalid_arg "Astar: target out of range";
  ensure t n;
  t.epoch <- t.epoch + 1;
  Indexed.clear t.heap

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
  let keys = heap.Indexed.keys and ties = heap.Indexed.ties in
  let succ = t.succ and weight = t.weight in
  dist.(source) <- 0.0;
  pred.(source) <- -1;
  stamp.(source) <- epoch;
  keys.(source) <- (if source = target then 0.0 else floor);
  ties.(source) <- 0.0;
  Indexed.place heap source;
  let searching = ref true in
  while !searching do
    let u = Indexed.pop_min heap in
    if u < 0 || u = target then searching := false
    else begin
      let d = dist.(u) in
      let bound = if stamp.(target) = epoch then dist.(target) else infinity in
      let count = expand u d bound succ weight in
      for i = 0 to count - 1 do
        let v = succ.(i) and w = weight.(i) in
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
            let f = if v = target then candidate else candidate +. floor in
            if stamp.(target) <> epoch || f < dist.(target) then begin
              dist.(v) <- candidate;
              pred.(v) <- u;
              stamp.(v) <- epoch;
              (* a member's (f, g) only ever falls here: g strictly, and
                 f with it, since the heuristic is constant *)
              keys.(v) <- f;
              ties.(v) <- candidate;
              Indexed.place heap v
            end
          end
        end
      done
    end
  done;
  reconstruct t ~target
