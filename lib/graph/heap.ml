(* Array-backed binary min-heap, unboxed: payloads live in a plain ['a
   array] seeded with a caller-supplied dummy element, so a push costs no
   allocation (the seed stored [Some v] per entry).  [Indexed] adds true
   decrease-key over int payloads for the routing search. *)

type 'a t = {
  dummy : 'a;
  mutable keys : float array;
  mutable data : 'a array;
  mutable size : int;
}

let create ~dummy ?(capacity = 16) () =
  let capacity = max capacity 1 in
  {
    dummy;
    keys = Array.make capacity 0.0;
    data = Array.make capacity dummy;
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

let grow h =
  let n = Array.length h.keys in
  let keys = Array.make (2 * n) 0.0 in
  let data = Array.make (2 * n) h.dummy in
  Array.blit h.keys 0 keys 0 n;
  Array.blit h.data 0 data 0 n;
  h.keys <- keys;
  h.data <- data

let swap h i j =
  let k = h.keys.(i) in
  h.keys.(i) <- h.keys.(j);
  h.keys.(j) <- k;
  let d = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- d

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.keys.(parent) > h.keys.(i) then begin
      swap h parent i;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
  if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h key v =
  if h.size = Array.length h.keys then grow h;
  h.keys.(h.size) <- key;
  h.data.(h.size) <- v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek_min h = if h.size = 0 then None else Some (h.keys.(0), h.data.(0))

let pop_min h =
  match peek_min h with
  | None -> None
  | Some _ as result ->
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.data.(0) <- h.data.(h.size);
    h.data.(h.size) <- h.dummy;
    if h.size > 0 then sift_down h 0;
    result

let clear h =
  Array.fill h.data 0 (Array.length h.data) h.dummy;
  h.size <- 0

(* ---------- Indexed: decrease-key heap over int payloads ---------- *)

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
    if n < 0 then invalid_arg "Heap.Indexed.create: negative size";
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

  let insert t id ~key ~tie =
    if id < 0 || id >= t.n then invalid_arg "Heap.Indexed.insert: id out of range";
    if t.pos.(id) >= 0 then invalid_arg "Heap.Indexed.insert: already a member";
    t.keys.(id) <- key;
    t.ties.(id) <- tie;
    t.heap.(t.size) <- id;
    t.pos.(id) <- t.size;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let decrease t id ~key ~tie =
    let i = t.pos.(id) in
    if i < 0 then invalid_arg "Heap.Indexed.decrease: not a member";
    t.keys.(id) <- key;
    t.ties.(id) <- tie;
    sift_up t i

  let insert_or_decrease t id ~key ~tie =
    if t.pos.(id) < 0 then insert t id ~key ~tie
    else if
      key < t.keys.(id)
      || (key = t.keys.(id) && tie < t.ties.(id))
    then decrease t id ~key ~tie

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
