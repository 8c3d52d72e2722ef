(* Unit and property tests for the noc_graph substrate. *)

module Heap = Noc_graph.Heap
module Digraph = Noc_graph.Digraph
module Ugraph = Noc_graph.Ugraph
module Dijkstra = Dijkstra_oracle
module Astar = Noc_graph.Astar
module Flat = Noc_graph.Flat
module Traversal = Noc_graph.Traversal

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------- Heap ---------- *)

let heap_pop_all h =
  let rec go acc =
    match Heap.pop_min h with
    | None -> List.rev acc
    | Some (k, v) -> go ((k, v) :: acc)
  in
  go []

let test_heap_basic () =
  let h = Heap.create ~dummy:"" () in
  checkb "fresh heap empty" true (Heap.is_empty h);
  Heap.push h 3.0 "c";
  Heap.push h 1.0 "a";
  Heap.push h 2.0 "b";
  checki "length" 3 (Heap.length h);
  check Alcotest.(option (pair (float 0.0) string)) "peek" (Some (1.0, "a"))
    (Heap.peek_min h);
  check
    Alcotest.(list (pair (float 0.0) string))
    "sorted pops"
    [ (1.0, "a"); (2.0, "b"); (3.0, "c") ]
    (heap_pop_all h);
  checkb "drained" true (Heap.is_empty h)

let test_heap_clear () =
  let h = Heap.create ~dummy:(-1) ~capacity:2 () in
  for i = 0 to 40 do
    Heap.push h (float_of_int (40 - i)) i
  done;
  checki "grown" 41 (Heap.length h);
  Heap.clear h;
  checkb "cleared" true (Heap.is_empty h);
  check Alcotest.(option (pair (float 0.0) int)) "pop empty" None (Heap.pop_min h)

let test_heap_duplicate_keys () =
  let h = Heap.create ~dummy:(-1) () in
  List.iter (fun v -> Heap.push h 1.0 v) [ 1; 2; 3 ];
  Heap.push h 0.5 0;
  let keys = List.map fst (heap_pop_all h) in
  check Alcotest.(list (float 0.0)) "keys sorted" [ 0.5; 1.0; 1.0; 1.0 ] keys

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in key order" ~count:200
    QCheck.(list float)
    (fun keys ->
      let h = Heap.create ~dummy:(-1) () in
      List.iteri (fun i k -> Heap.push h k i) keys;
      let popped = List.map fst (heap_pop_all h) in
      List.sort compare keys = popped)

(* ---------- Indexed heap (decrease-key) ---------- *)

let indexed_pop_all h =
  let rec go acc =
    match Astar.Indexed.pop_min h with
    | -1 -> List.rev acc
    | id -> go (id :: acc)
  in
  go []

let test_indexed_basic () =
  let h = Astar.Indexed.create 8 in
  checkb "fresh empty" true (Astar.Indexed.is_empty h);
  checki "pop empty" (-1) (Astar.Indexed.pop_min h);
  Astar.Indexed.insert h 3 ~key:3.0 ~tie:0.0;
  Astar.Indexed.insert h 1 ~key:1.0 ~tie:0.0;
  Astar.Indexed.insert h 5 ~key:2.0 ~tie:0.0;
  checki "length" 3 (Astar.Indexed.length h);
  checkb "mem" true (Astar.Indexed.mem h 5);
  checkb "not mem" false (Astar.Indexed.mem h 0);
  check Alcotest.(list int) "key order" [ 1; 5; 3 ] (indexed_pop_all h);
  checkb "popped not mem" false (Astar.Indexed.mem h 1)

let test_indexed_decrease () =
  let h = Astar.Indexed.create 4 in
  Astar.Indexed.insert h 0 ~key:10.0 ~tie:0.0;
  Astar.Indexed.insert h 1 ~key:5.0 ~tie:0.0;
  Astar.Indexed.insert h 2 ~key:7.0 ~tie:0.0;
  Astar.Indexed.decrease h 2 ~key:1.0 ~tie:0.0;
  checki "decreased pops first" 2 (Astar.Indexed.pop_min h);
  (* insert_or_decrease never worsens a member's key *)
  Astar.Indexed.insert_or_decrease h 1 ~key:99.0 ~tie:0.0;
  checki "no increase" 1 (Astar.Indexed.pop_min h);
  Astar.Indexed.insert_or_decrease h 3 ~key:0.5 ~tie:0.0;
  checki "inserted" 3 (Astar.Indexed.pop_min h);
  checki "last" 0 (Astar.Indexed.pop_min h);
  checkb "drained" true (Astar.Indexed.is_empty h)

let test_indexed_tie_order () =
  (* Equal keys: the tie field decides, then the id — never heap
     internals.  Insert in a scrambled order to stress it. *)
  let h = Astar.Indexed.create 8 in
  Astar.Indexed.insert h 6 ~key:1.0 ~tie:2.0;
  Astar.Indexed.insert h 3 ~key:1.0 ~tie:1.0;
  Astar.Indexed.insert h 7 ~key:1.0 ~tie:1.0;
  Astar.Indexed.insert h 2 ~key:1.0 ~tie:2.0;
  Astar.Indexed.insert h 5 ~key:0.5 ~tie:9.0;
  check Alcotest.(list int) "lexicographic (key, tie, id)" [ 5; 3; 7; 2; 6 ]
    (indexed_pop_all h)

let test_indexed_clear () =
  let h = Astar.Indexed.create 16 in
  for i = 0 to 15 do
    Astar.Indexed.insert h i ~key:(float_of_int (15 - i)) ~tie:0.0
  done;
  ignore (Astar.Indexed.pop_min h);
  Astar.Indexed.clear h;
  checkb "cleared" true (Astar.Indexed.is_empty h);
  checkb "membership reset" false (Astar.Indexed.mem h 3);
  (* reusable after clear *)
  Astar.Indexed.insert h 3 ~key:1.0 ~tie:0.0;
  checki "reinsert" 3 (Astar.Indexed.pop_min h)

let prop_indexed_sorted =
  QCheck.Test.make ~name:"indexed heap pops ids in (key, id) order" ~count:200
    QCheck.(list (int_bound 50))
    (fun raw ->
      let keys = List.sort_uniq compare raw in
      let h = Astar.Indexed.create 64 in
      List.iter
        (fun i -> Astar.Indexed.insert h i ~key:(float_of_int (i mod 7)) ~tie:0.0)
        keys;
      let popped = indexed_pop_all h in
      let expected =
        List.sort
          (fun a b -> compare (a mod 7, a) (b mod 7, b))
          keys
      in
      popped = expected)

(* ---------- Flat adjacency ---------- *)

let test_flat_basic () =
  let g : int Flat.t = Flat.create 4 in
  checki "nodes" 4 (Flat.node_count g);
  checki "no edges" 0 (Flat.edge_count g);
  check Alcotest.(option int) "absent" None (Flat.get g 0 1);
  Flat.set g 0 1 10;
  Flat.set g 1 2 20;
  Flat.set g 0 1 11;
  checki "replace keeps count" 2 (Flat.edge_count g);
  check Alcotest.(option int) "replaced" (Some 11) (Flat.get g 0 1);
  checkb "mem" true (Flat.mem g 1 2);
  checkb "directed" false (Flat.mem g 2 1);
  checki "out degree" 1 (Flat.out_degree g 0);
  checki "in degree" 1 (Flat.in_degree g 1);
  checki "in degree 2" 1 (Flat.in_degree g 2);
  Flat.remove g 0 1;
  checki "removed" 1 (Flat.edge_count g);
  checki "out degree after remove" 0 (Flat.out_degree g 0);
  checki "in degree after remove" 0 (Flat.in_degree g 1);
  Flat.remove g 0 1 (* no-op *);
  checki "still one" 1 (Flat.edge_count g)

let test_flat_iter_order () =
  let g : unit Flat.t = Flat.create 3 in
  Flat.set g 2 0 ();
  Flat.set g 0 2 ();
  Flat.set g 0 1 ();
  let seen = ref [] in
  Flat.iter (fun u v () -> seen := (u, v) :: !seen) g;
  check
    Alcotest.(list (pair int int))
    "ascending (src, dst)"
    [ (0, 1); (0, 2); (2, 0) ]
    (List.rev !seen)

let test_flat_copy_independent () =
  let g : int ref Flat.t = Flat.create 3 in
  Flat.set g 0 1 (ref 5);
  let c = Flat.copy ~f:(fun r -> ref !r) g in
  (match Flat.get c 0 1 with
  | Some r -> r := 99
  | None -> Alcotest.fail "copy lost edge");
  (match Flat.get g 0 1 with
  | Some r -> checki "original untouched" 5 !r
  | None -> Alcotest.fail "original lost edge");
  Flat.remove c 0 1;
  checkb "original keeps edge" true (Flat.mem g 0 1)

let test_flat_bounds () =
  let g : unit Flat.t = Flat.create 2 in
  let expect_oob f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected out-of-range failure"
  in
  expect_oob (fun () -> Flat.set g 0 2 ());
  expect_oob (fun () -> Flat.set g (-1) 0 ());
  expect_oob (fun () -> Flat.remove g 2 0);
  expect_oob (fun () -> ignore (Flat.create (-1)))

let prop_flat_matches_digraph =
  QCheck.Test.make
    ~name:"flat mirrors a digraph under random set/remove" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 2 10))
    (fun (seed, n) ->
      let state = Random.State.make [| seed |] in
      let g = Digraph.create n in
      let fl : float Flat.t = Flat.create n in
      for _ = 1 to 60 do
        let u = Random.State.int state n and v = Random.State.int state n in
        if u <> v then
          if Random.State.bool state then begin
            let w = Random.State.float state 10.0 in
            Digraph.add_edge g u v w;
            Flat.set fl u v w
          end
          else begin
            Digraph.remove_edge g u v;
            Flat.remove fl u v
          end
      done;
      let flat_edges = Flat.fold (fun u v w acc -> (u, v, w) :: acc) fl [] in
      Digraph.edges g = List.rev flat_edges
      && Digraph.edge_count g = Flat.edge_count fl
      && Array.to_list (Array.init n (Digraph.out_degree g))
         = Array.to_list (Array.init n (Flat.out_degree fl))
      && Array.to_list (Array.init n (Digraph.in_degree g))
         = Array.to_list (Array.init n (Flat.in_degree fl)))

(* ---------- Digraph ---------- *)

let test_digraph_basic () =
  let g = Digraph.create 4 in
  checki "nodes" 4 (Digraph.node_count g);
  Digraph.add_edge g 0 1 2.0;
  Digraph.add_edge g 1 2 3.0;
  Digraph.add_edge g 0 1 5.0;
  checki "replace keeps count" 2 (Digraph.edge_count g);
  check Alcotest.(option (float 0.0)) "weight replaced" (Some 5.0)
    (Digraph.edge_weight g 0 1);
  Digraph.add_to_edge g 0 1 1.5;
  check Alcotest.(option (float 0.0)) "accumulated" (Some 6.5)
    (Digraph.edge_weight g 0 1);
  checkb "mem" true (Digraph.mem_edge g 1 2);
  checkb "directed" false (Digraph.mem_edge g 2 1);
  checki "out degree" 1 (Digraph.out_degree g 0);
  checki "in degree" 1 (Digraph.in_degree g 1);
  Digraph.remove_edge g 0 1;
  checki "removed" 1 (Digraph.edge_count g);
  Digraph.remove_edge g 0 1 (* no-op *);
  checki "still one" 1 (Digraph.edge_count g)

let test_digraph_edges_sorted () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 2 0 1.0;
  Digraph.add_edge g 0 2 1.0;
  Digraph.add_edge g 0 1 1.0;
  check
    Alcotest.(list (triple int int (float 0.0)))
    "sorted" [ (0, 1, 1.0); (0, 2, 1.0); (2, 0, 1.0) ]
    (Digraph.edges g)

let test_digraph_bounds () =
  let g = Digraph.create 2 in
  Alcotest.check_raises "negative create" (Invalid_argument
    "Digraph.create: negative node count") (fun () ->
      ignore (Digraph.create (-1)));
  let expect_oob f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected out-of-range failure"
  in
  expect_oob (fun () -> Digraph.add_edge g 0 2 1.0);
  expect_oob (fun () -> Digraph.succ g 5)

let random_digraph seed n density =
  let state = Random.State.make [| seed |] in
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float state 1.0 < density then
        Digraph.add_edge g u v (Random.State.float state 10.0 +. 0.1)
    done
  done;
  g

let prop_transpose_involution =
  QCheck.Test.make ~name:"digraph transpose is an involution" ~count:50
    QCheck.(pair small_nat (int_bound 1000))
    (fun (n, seed) ->
      let n = max 1 (min n 20) in
      let g = random_digraph seed n 0.3 in
      let t2 = Digraph.transpose (Digraph.transpose g) in
      Digraph.edges g = Digraph.edges t2)

let prop_copy_independent =
  QCheck.Test.make ~name:"digraph copy does not alias" ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let g = random_digraph seed 8 0.4 in
      let c = Digraph.copy g in
      Digraph.add_edge c 0 1 99.0;
      Digraph.edge_weight g 0 1 <> Some 99.0 || Digraph.edge_weight c 0 1 = Some 99.0)

(* ---------- Ugraph ---------- *)

let test_ugraph_accumulate () =
  let g = Ugraph.create 3 in
  Ugraph.add_edge g 0 1 2.0;
  Ugraph.add_edge g 1 0 3.0;
  checkf "accumulated" 5.0 (Ugraph.edge_weight g 0 1);
  checki "one edge" 1 (Ugraph.edge_count g);
  Ugraph.add_edge g 1 1 7.0 (* self loop ignored *);
  checki "self loop dropped" 1 (Ugraph.edge_count g);
  checkf "weighted degree" 5.0 (Ugraph.weighted_degree g 0)

let test_ugraph_node_weights () =
  let g = Ugraph.create ~node_weight:2.0 3 in
  checkf "default" 2.0 (Ugraph.node_weight g 1);
  Ugraph.set_node_weight g 1 5.0;
  checkf "total" 9.0 (Ugraph.total_node_weight g)

let test_ugraph_subgraph () =
  let g = Ugraph.create 5 in
  Ugraph.add_edge g 0 1 1.0;
  Ugraph.add_edge g 1 2 2.0;
  Ugraph.add_edge g 2 3 3.0;
  Ugraph.add_edge g 3 4 4.0;
  Ugraph.set_node_weight g 2 7.0;
  let sub, mapping = Ugraph.subgraph g [| 1; 2; 3 |] in
  checki "sub nodes" 3 (Ugraph.node_count sub);
  checki "sub edges" 2 (Ugraph.edge_count sub);
  checkf "sub weight kept" 7.0 (Ugraph.node_weight sub 1);
  checkf "induced edge" 2.0 (Ugraph.edge_weight sub 0 1);
  checkf "outside edge dropped" 0.0 (Ugraph.edge_weight sub 0 2);
  check Alcotest.(array int) "mapping" [| 1; 2; 3 |] mapping

let test_ugraph_cut_weight () =
  let g = Ugraph.create 4 in
  Ugraph.add_edge g 0 1 1.0;
  Ugraph.add_edge g 2 3 2.0;
  Ugraph.add_edge g 1 2 5.0;
  checkf "cut" 5.0 (Ugraph.cut_weight g [| 0; 0; 1; 1 |]);
  checkf "no cut" 0.0 (Ugraph.cut_weight g [| 0; 0; 0; 0 |])

let prop_of_digraph_total =
  QCheck.Test.make ~name:"of_digraph preserves total weight (no self loops)"
    ~count:50
    QCheck.(int_bound 1000)
    (fun seed ->
      let g = random_digraph seed 10 0.3 in
      let u = Ugraph.of_digraph g in
      Float.abs (Ugraph.total_edge_weight u -. Digraph.total_weight g) < 1e-6)

(* ---------- Dijkstra (the test oracle) ---------- *)

let diamond () =
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3, cheaper through 2 *)
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1 1.0;
  Digraph.add_edge g 1 3 5.0;
  Digraph.add_edge g 0 2 2.0;
  Digraph.add_edge g 2 3 1.0;
  g

let expand_of g = Dijkstra.of_list (Digraph.succ g)

let test_dijkstra_diamond () =
  let g = diamond () in
  let r = Dijkstra.run ~n:4 ~expand:(expand_of g) ~source:0 () in
  checkf "dist 3" 3.0 r.Dijkstra.dist.(3);
  check Alcotest.(option (list int)) "path" (Some [ 0; 2; 3 ])
    (Dijkstra.path_to r 3)

let test_dijkstra_unreachable () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1 1.0;
  let r = Dijkstra.run ~n:3 ~expand:(expand_of g) ~source:0 () in
  checkb "unreachable infinite" true (r.Dijkstra.dist.(2) = infinity);
  check Alcotest.(option (list int)) "no path" None (Dijkstra.path_to r 2);
  check
    Alcotest.(option (pair (float 0.0) (list int)))
    "run_to none" None
    (Dijkstra.run_to ~n:3 ~expand:(expand_of g) ~source:0 ~target:2)

let test_dijkstra_ignores_bad_edges () =
  let successors = function
    | 0 -> [ (1, -5.0); (1, nan); (2, 1.0) ]
    | 2 -> [ (1, 1.0) ]
    | _ -> []
  in
  match
    Dijkstra.run_to ~n:3 ~expand:(Dijkstra.of_list successors) ~source:0
      ~target:1
  with
  | Some (cost, path) ->
    checkf "bad edges skipped" 2.0 cost;
    check Alcotest.(list int) "path avoids bad edge" [ 0; 2; 1 ] path
  | None -> Alcotest.fail "expected path"

let prop_dijkstra_relaxed =
  QCheck.Test.make
    ~name:"dijkstra distances satisfy edge relaxation and run_to agrees"
    ~count:50
    QCheck.(pair (int_bound 1000) (int_range 2 15))
    (fun (seed, n) ->
      let g = random_digraph seed n 0.35 in
      let r = Dijkstra.run ~n ~expand:(expand_of g) ~source:0 () in
      let relaxed = ref true in
      Digraph.iter_edges
        (fun u v w ->
          if r.Dijkstra.dist.(v) > r.Dijkstra.dist.(u) +. w +. 1e-9 then
            relaxed := false)
        g;
      let agreement = ref true in
      for t = 0 to n - 1 do
        match Dijkstra.run_to ~n ~expand:(expand_of g) ~source:0 ~target:t with
        | Some (cost, path) ->
          if Float.abs (cost -. r.Dijkstra.dist.(t)) > 1e-9 then
            agreement := false;
          (match path with
           | first :: _ ->
             if first <> 0 then agreement := false
           | [] -> agreement := false)
        | None -> if Float.is_finite r.Dijkstra.dist.(t) then agreement := false
      done;
      !relaxed && !agreement)

(* ---------- A* ---------- *)

let test_astar_diamond () =
  let g = diamond () in
  let arena = Astar.create () in
  match
    Astar.run_to_const arena ~n:4
      ~expand:(Dijkstra.buffered (expand_of g))
      ~floor:0.0 ~source:0 ~target:3
  with
  | Some (cost, path) ->
    checkf "cost" 3.0 cost;
    check Alcotest.(list int) "path" [ 0; 2; 3 ] path
  | None -> Alcotest.fail "expected path"

let test_astar_unreachable () =
  let g = Digraph.create 3 in
  Digraph.add_edge g 0 1 1.0;
  let arena = Astar.create () in
  check
    Alcotest.(option (pair (float 0.0) (list int)))
    "unreachable" None
    (Astar.run_to_const arena ~n:3
       ~expand:(Dijkstra.buffered (expand_of g))
       ~floor:infinity ~source:0 ~target:2)

let test_astar_same_node () =
  let arena = Astar.create () in
  check
    Alcotest.(option (pair (float 0.0) (list int)))
    "source = target"
    (Some (0.0, [ 1 ]))
    (Astar.run_to_const arena ~n:3
       ~expand:(fun _ _ _ _ _ -> 0)
       ~floor:0.0 ~source:1 ~target:1)

let test_astar_ignores_bad_edges () =
  let expand u relax =
    match u with
    | 0 ->
      relax 1 (-5.0);
      relax 1 nan;
      relax 2 1.0
    | 2 -> relax 1 1.0
    | _ -> ()
  in
  let arena = Astar.create () in
  match
    Astar.run_to_const arena ~n:3 ~expand:(Dijkstra.buffered expand)
      ~floor:0.0 ~source:0 ~target:1
  with
  | Some (cost, path) ->
    checkf "bad edges skipped" 2.0 cost;
    check Alcotest.(list int) "path avoids bad edge" [ 0; 2; 1 ] path
  | None -> Alcotest.fail "expected path"

(* The production heuristic's constant: the exact min weight over edges
   entering the target, [infinity] when the target has none. *)
let exact_floor g target =
  List.fold_left (fun c (_, w) -> Float.min c w) infinity
    (Digraph.pred g target)

let prop_astar_matches_dijkstra =
  QCheck.Test.make
    ~name:
      "A* (zero and floor heuristics, arena reused) is bit-identical to \
       Dijkstra on random graphs"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 2 16))
    (fun (seed, n) ->
      let g = random_digraph seed n 0.35 in
      let expand = expand_of g in
      let arena = Astar.create () in
      let ok = ref true in
      for target = 0 to n - 1 do
        let reference = Dijkstra.run_to ~n ~expand ~source:0 ~target in
        List.iter
          (fun floor ->
            (* bit-identity, not tolerance: same float cost, same path *)
            if
              Astar.run_to_const arena ~n ~expand:(Dijkstra.buffered expand)
                ~floor ~source:0 ~target
              <> reference
            then ok := false)
          [ 0.0; exact_floor g target ]
      done;
      !ok)

(* ---------- Traversal ---------- *)

let test_components () =
  let g = Ugraph.create 6 in
  Ugraph.add_edge g 0 1 1.0;
  Ugraph.add_edge g 1 2 1.0;
  Ugraph.add_edge g 3 4 1.0;
  let label, k = Traversal.components g in
  checki "three components" 3 k;
  checki "same comp" label.(0) label.(2);
  checkb "distinct" true (label.(0) <> label.(3));
  checkb "not connected" false (Traversal.is_connected g);
  let members = Traversal.component_members g in
  checki "member lists" 3 (List.length members);
  check Alcotest.(array int) "first component" [| 0; 1; 2 |] (List.nth members 0)

let test_reachable () =
  let g = Digraph.create 4 in
  Digraph.add_edge g 0 1 1.0;
  Digraph.add_edge g 1 2 1.0;
  checkb "reach" true (Traversal.reachable g 0 2);
  checkb "no back" false (Traversal.reachable g 2 0);
  checkb "not to isolated" false (Traversal.reachable g 0 3)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_graph"
    [
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "growth and clear" `Quick test_heap_clear;
          Alcotest.test_case "duplicate keys" `Quick test_heap_duplicate_keys;
          qt prop_heap_sorted;
        ] );
      ( "indexed-heap",
        [
          Alcotest.test_case "basic order" `Quick test_indexed_basic;
          Alcotest.test_case "decrease-key" `Quick test_indexed_decrease;
          Alcotest.test_case "deterministic ties" `Quick test_indexed_tie_order;
          Alcotest.test_case "clear and reuse" `Quick test_indexed_clear;
          qt prop_indexed_sorted;
        ] );
      ( "flat",
        [
          Alcotest.test_case "edges and degrees" `Quick test_flat_basic;
          Alcotest.test_case "deterministic iteration" `Quick
            test_flat_iter_order;
          Alcotest.test_case "copy does not alias" `Quick
            test_flat_copy_independent;
          Alcotest.test_case "bounds checking" `Quick test_flat_bounds;
          qt prop_flat_matches_digraph;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "edges and degrees" `Quick test_digraph_basic;
          Alcotest.test_case "deterministic edge list" `Quick
            test_digraph_edges_sorted;
          Alcotest.test_case "bounds checking" `Quick test_digraph_bounds;
          qt prop_transpose_involution;
          qt prop_copy_independent;
        ] );
      ( "ugraph",
        [
          Alcotest.test_case "weight accumulation" `Quick test_ugraph_accumulate;
          Alcotest.test_case "node weights" `Quick test_ugraph_node_weights;
          Alcotest.test_case "induced subgraph" `Quick test_ugraph_subgraph;
          Alcotest.test_case "cut weight" `Quick test_ugraph_cut_weight;
          qt prop_of_digraph_total;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "invalid edges ignored" `Quick
            test_dijkstra_ignores_bad_edges;
          qt prop_dijkstra_relaxed;
        ] );
      ( "astar",
        [
          Alcotest.test_case "diamond" `Quick test_astar_diamond;
          Alcotest.test_case "unreachable" `Quick test_astar_unreachable;
          Alcotest.test_case "source equals target" `Quick test_astar_same_node;
          Alcotest.test_case "invalid edges ignored" `Quick
            test_astar_ignores_bad_edges;
          qt prop_astar_matches_dijkstra;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "reachability" `Quick test_reachable;
        ] );
    ]
