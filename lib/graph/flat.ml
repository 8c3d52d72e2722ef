(* Flat, int-indexed adjacency for the routing hot path.

   [t] is a dense directed edge container over node ids [0, n): one
   lazily-allocated row of ['a option] cells per source, plus
   structure-of-arrays degree counters so port-count queries are O(1)
   instead of a fold over every edge.  [get] returns the *stored* option
   cell, so probing an edge allocates nothing (unlike
   [Hashtbl.find_opt], which boxes a fresh [Some] per hit). *)

type 'a t = {
  n : int;
  rows : 'a option array option array; (* row per src, allocated on first set *)
  out_deg : int array;
  in_deg : int array;
  mutable edges : int;
}

let create n =
  if n < 0 then invalid_arg "Flat.create: negative node count";
  {
    n;
    rows = Array.make (max n 1) None;
    out_deg = Array.make (max n 1) 0;
    in_deg = Array.make (max n 1) 0;
    edges = 0;
  }

let node_count t = t.n
let edge_count t = t.edges
let out_degree t u = t.out_deg.(u)
let in_degree t v = t.in_deg.(v)

let check t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Flat: edge (%d,%d) out of range [0,%d)" u v t.n)

(* Hot-path read: no bounds work beyond the array accesses themselves and
   no allocation — the returned option is the stored cell. *)
let get t u v =
  match t.rows.(u) with None -> None | Some row -> row.(v)

(* The stored row itself, so a caller expanding one source can hoist the
   row lookup — and the cross-module call — out of its per-target loop. *)
let out_row t u = t.rows.(u)

let mem t u v = get t u v <> None

let row t u =
  match t.rows.(u) with
  | Some row -> row
  | None ->
    let row = Array.make t.n None in
    t.rows.(u) <- Some row;
    row

let set t u v x =
  check t u v;
  let r = row t u in
  (match r.(v) with
  | None ->
    t.edges <- t.edges + 1;
    t.out_deg.(u) <- t.out_deg.(u) + 1;
    t.in_deg.(v) <- t.in_deg.(v) + 1
  | Some _ -> ());
  r.(v) <- Some x

let remove t u v =
  check t u v;
  match t.rows.(u) with
  | None -> ()
  | Some row ->
    (match row.(v) with
    | None -> ()
    | Some _ ->
      row.(v) <- None;
      t.edges <- t.edges - 1;
      t.out_deg.(u) <- t.out_deg.(u) - 1;
      t.in_deg.(v) <- t.in_deg.(v) - 1)

(* Deterministic ascending (src, dst) order. *)
let iter f t =
  for u = 0 to t.n - 1 do
    match t.rows.(u) with
    | None -> ()
    | Some row ->
      for v = 0 to t.n - 1 do
        match row.(v) with None -> () | Some x -> f u v x
      done
  done

let fold f t acc =
  let acc = ref acc in
  iter (fun u v x -> acc := f u v x !acc) t;
  !acc

let iter_out f t u =
  match t.rows.(u) with
  | None -> ()
  | Some row ->
    for v = 0 to t.n - 1 do
      match row.(v) with None -> () | Some x -> f v x
    done

let copy ~f t =
  let c = create t.n in
  iter (fun u v x -> set c u v (f x)) t;
  c

let clear t =
  Array.fill t.rows 0 (Array.length t.rows) None;
  Array.fill t.out_deg 0 (Array.length t.out_deg) 0;
  Array.fill t.in_deg 0 (Array.length t.in_deg) 0;
  t.edges <- 0
