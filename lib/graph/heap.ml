(* Array-backed binary min-heap, unboxed: payloads live in a plain ['a
   array] seeded with a caller-supplied dummy element, so a push costs no
   allocation (the seed stored [Some v] per entry).  The routing search's
   decrease-key heap is [Astar.Indexed]. *)

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
