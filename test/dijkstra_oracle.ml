(* A deliberately naive Dijkstra, the identity oracle for
   [Noc_graph.Astar.run_to_const] (through [buffered] below).  O(n²):
   each round settles the unsettled labeled node of least
   (distance, id) by a linear scan and relaxes its out-edges strictly in
   expansion order, keeping the first of equal-cost predecessors.  Edges
   with an out-of-range head or a non-finite or negative weight are
   ignored.  With [target], the search stops once the target is
   settled. *)

type result = { dist : float array; pred : int array }

let run ?(target = -1) ~n ~expand ~source () =
  let dist = Array.make n infinity and pred = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(source) <- 0.0;
  let rec settle () =
    let u = ref (-1) in
    for v = 0 to n - 1 do
      if (not settled.(v)) && dist.(v) < infinity
         && (!u < 0 || dist.(v) < dist.(!u))
      then u := v
    done;
    let u = !u in
    if u >= 0 then begin
      settled.(u) <- true;
      if u <> target then begin
        expand u (fun v w ->
            if v >= 0 && v < n && Float.is_finite w && w >= 0.0
               && dist.(u) +. w < dist.(v)
            then begin
              dist.(v) <- dist.(u) +. w;
              pred.(v) <- u
            end);
        settle ()
      end
    end
  in
  settle ();
  { dist; pred }

let path_to r target =
  if not (Float.is_finite r.dist.(target)) then None
  else begin
    let rec build node acc =
      if r.pred.(node) = -1 then node :: acc else build r.pred.(node) (node :: acc)
    in
    Some (build target [])
  end

let run_to ~n ~expand ~source ~target =
  let r = run ~target ~n ~expand ~source () in
  Option.map (fun path -> (r.dist.(target), path)) (path_to r target)

(* A list-valued successor function as an expansion. *)
let of_list successors u relax = List.iter (fun (v, w) -> relax v w) (successors u)

(* A push expansion in [Astar.run_to_const]'s protocol: every edge out of
   [u] written to the buffers, whatever the label and bound. *)
let buffered expand u _d _bound succ weight =
  let count = ref 0 in
  expand u (fun v w ->
      succ.(!count) <- v;
      weight.(!count) <- w;
      incr count);
  !count
