(* Tests for the min-cut partitioning stack: FM bisection, multilevel k-way
   partitioning, coarsening and bandwidth clustering. *)

module Ugraph = Noc_graph.Ugraph
module Digraph = Noc_graph.Digraph
module Fm = Noc_partition.Fm
module Kway = Noc_partition.Kway
module Coarsen = Noc_partition.Coarsen
module Cluster = Noc_partition.Cluster

let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checkb = Alcotest.(check bool)

(* Two k-cliques joined by one weak edge: the canonical min-cut instance. *)
let two_cliques ~size ~internal ~bridge =
  let g = Ugraph.create (2 * size) in
  for base = 0 to 1 do
    let offset = base * size in
    for i = 0 to size - 1 do
      for j = i + 1 to size - 1 do
        Ugraph.add_edge g (offset + i) (offset + j) internal
      done
    done
  done;
  Ugraph.add_edge g 0 size bridge;
  g

let random_ugraph seed n density =
  let state = Random.State.make [| seed |] in
  let g = Ugraph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float state 1.0 < density then
        Ugraph.add_edge g u v (Random.State.float state 5.0 +. 0.1)
    done
  done;
  g

(* ---------- Fm ---------- *)

let test_fm_two_cliques () =
  let g = two_cliques ~size:4 ~internal:10.0 ~bridge:1.0 in
  let b = Fm.bisect ~target:(4.0, 4.0) ~slack:0.5 g in
  checkf "cut is the bridge" 1.0 b.Fm.cut;
  let side0 = b.Fm.side.(0) in
  for i = 1 to 3 do
    checki "clique A together" side0 b.Fm.side.(i)
  done;
  for i = 5 to 7 do
    checki "clique B together" b.Fm.side.(4) b.Fm.side.(i)
  done;
  checkb "cliques apart" true (b.Fm.side.(0) <> b.Fm.side.(4))

let test_fm_fractional_targets () =
  (* 3 unit nodes into 1.5/1.5 targets must still succeed (2/1 split) *)
  let g = Ugraph.create 3 in
  Ugraph.add_edge g 0 1 1.0;
  Ugraph.add_edge g 1 2 1.0;
  let b = Fm.bisect ~target:(1.5, 1.5) ~slack:0.5 g in
  let w0, w1 = b.Fm.side_weight in
  checkf "all nodes placed" 3.0 (w0 +. w1)

let test_fm_infeasible () =
  let g = Ugraph.create 4 in
  match Fm.bisect ~target:(1.0, 1.0) ~slack:0.0 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected infeasible targets to raise"

let prop_fm_ceilings =
  QCheck.Test.make ~name:"fm sides respect target + slack" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 2 20))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.3 in
      let total = Ugraph.total_node_weight g in
      let t0 = total /. 2.0 in
      let slack = 1.0 in
      let b = Fm.bisect ~seed ~target:(t0, total -. t0) ~slack g in
      let w0, w1 = b.Fm.side_weight in
      w0 <= t0 +. slack +. 1e-6
      && w1 <= total -. t0 +. slack +. 1e-6
      && Float.abs (w0 +. w1 -. total) < 1e-6
      && Float.abs (Ugraph.cut_weight g b.Fm.side -. b.Fm.cut) < 1e-6)

(* ---------- Kway ---------- *)

let test_kway_two_cliques () =
  let g = two_cliques ~size:5 ~internal:10.0 ~bridge:0.5 in
  let p = Kway.partition ~parts:2 ~max_block_weight:6.0 g in
  Kway.check_valid ~max_block_weight:6.0 g p;
  checkf "cut is the bridge" 0.5 p.Kway.cut

let test_kway_k_equals_one () =
  let g = random_ugraph 7 9 0.4 in
  let p = Kway.partition ~parts:1 ~max_block_weight:9.0 g in
  checkf "no cut" 0.0 p.Kway.cut;
  Array.iter (fun b -> checki "single block" 0 b) p.Kway.assignment

let test_kway_k_equals_n () =
  let g = random_ugraph 3 6 0.5 in
  let p = Kway.partition ~parts:6 ~max_block_weight:1.0 g in
  Kway.check_valid ~max_block_weight:1.0 g p;
  let blocks = Kway.blocks p in
  Array.iter (fun members -> checki "one core each" 1 (Array.length members)) blocks

let test_kway_infeasible () =
  let g = random_ugraph 1 8 0.3 in
  (match Kway.partition ~parts:2 ~max_block_weight:3.0 g with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "2 blocks of 3 cannot hold 8 nodes");
  match Kway.partition ~parts:0 ~max_block_weight:10.0 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "parts = 0 must raise"

let prop_kway_valid =
  QCheck.Test.make ~name:"kway partitions are valid and blocks non-empty"
    ~count:100
    QCheck.(triple (int_bound 1000) (int_range 2 24) (int_range 1 6))
    (fun (seed, n, parts) ->
      let parts = min parts n in
      let g = random_ugraph seed n 0.35 in
      let cap = float_of_int (((n + parts - 1) / parts) + 2) in
      let p = Kway.partition ~seed ~parts ~max_block_weight:cap g in
      Kway.check_valid ~max_block_weight:cap g p;
      let blocks = Kway.blocks p in
      Array.for_all (fun members -> Array.length members > 0) blocks)

let prop_kway_cut_bounded =
  QCheck.Test.make ~name:"kway cut never exceeds total edge weight" ~count:60
    QCheck.(pair (int_bound 1000) (int_range 2 20))
    (fun (seed, n) ->
      let g = random_ugraph seed n 0.4 in
      let p =
        Kway.partition ~seed ~parts:2 ~max_block_weight:(float_of_int n) g
      in
      p.Kway.cut <= Ugraph.total_edge_weight g +. 1e-9)

let test_kway_multilevel_large () =
  (* beyond the coarsening threshold: a ring of 300 nodes *)
  let n = 300 in
  let g = Ugraph.create n in
  for i = 0 to n - 1 do
    Ugraph.add_edge g i ((i + 1) mod n) 1.0
  done;
  let p = Kway.partition ~parts:4 ~max_block_weight:90.0 g in
  Kway.check_valid ~max_block_weight:90.0 g p;
  (* a ring cut into 4 arcs costs at least 4 edges; accept a small factor
     for heuristic slack *)
  checkb "ring cut is small" true (p.Kway.cut <= 16.0)

(* ---------- Coarsen ---------- *)

let test_coarsen_preserves_mass () =
  let g = random_ugraph 11 40 0.2 in
  let level = Coarsen.coarsen_once g in
  let coarse = level.Coarsen.coarse in
  checkf "node mass preserved"
    (Ugraph.total_node_weight g)
    (Ugraph.total_node_weight coarse);
  checkb "coarser" true (Ugraph.node_count coarse < Ugraph.node_count g);
  checkb "edge weight not created" true
    (Ugraph.total_edge_weight coarse <= Ugraph.total_edge_weight g +. 1e-6)

let test_coarsen_project () =
  let g = random_ugraph 13 20 0.3 in
  let level = Coarsen.coarsen_once g in
  let m = Ugraph.node_count level.Coarsen.coarse in
  let coarse_part = Array.init m (fun i -> i mod 2) in
  let fine = Coarsen.project level coarse_part in
  Array.iteri
    (fun v b ->
      checki "projection consistent" coarse_part.(level.Coarsen.node_map.(v)) b)
    fine

(* ---------- Cluster ---------- *)

let two_communities_bw () =
  (* cores 0-3 exchange heavy traffic; 4-7 exchange heavy traffic; one thin
     flow connects the communities *)
  let g = Digraph.create 8 in
  let heavy =
    [ (0, 1); (1, 2); (2, 3); (3, 0); (4, 5); (5, 6); (6, 7); (7, 4) ]
  in
  List.iter (fun (u, v) -> Digraph.add_edge g u v 100.0) heavy;
  Digraph.add_edge g 0 4 1.0;
  g

let test_cluster_two_communities () =
  let g = two_communities_bw () in
  let a = Cluster.communication_based ~islands:2 g in
  for i = 1 to 3 do
    checki "community A" a.(0) a.(i)
  done;
  for i = 5 to 7 do
    checki "community B" a.(4) a.(i)
  done;
  checkb "apart" true (a.(0) <> a.(4));
  checkb "quality high" true (Cluster.quality g a > 0.99)

let test_cluster_pinning () =
  let g = two_communities_bw () in
  let constraints =
    { Cluster.max_cluster_size = 8; pinned_together = [ [ 0; 7 ] ] }
  in
  let a = Cluster.communication_based ~constraints ~islands:2 g in
  checki "pinned pair together" a.(0) a.(7)

let test_cluster_degenerate () =
  let g = two_communities_bw () in
  let a1 = Cluster.communication_based ~islands:1 g in
  Array.iter (fun isl -> checki "one island" 0 isl) a1;
  let a8 = Cluster.communication_based ~islands:8 g in
  let sorted = Array.copy a8 in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "one core per island"
    (Array.init 8 (fun i -> i))
    sorted

let test_cluster_errors () =
  let g = two_communities_bw () in
  (match Cluster.communication_based ~islands:0 g with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "islands=0 must raise");
  match Cluster.communication_based ~islands:9 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "more islands than cores must raise"

let prop_cluster_reaches_count =
  QCheck.Test.make ~name:"clustering always reaches the requested island count"
    ~count:80
    QCheck.(triple (int_bound 1000) (int_range 2 20) (int_range 1 8))
    (fun (seed, n, k) ->
      let k = min k n in
      let state = Random.State.make [| seed |] in
      let g = Digraph.create n in
      for _ = 1 to n * 2 do
        let u = Random.State.int state n and v = Random.State.int state n in
        if u <> v then Digraph.add_to_edge g u v (Random.State.float state 50.0)
      done;
      let a = Cluster.communication_based ~seed ~islands:k g in
      let distinct = List.sort_uniq compare (Array.to_list a) in
      List.length distinct = k
      && List.for_all (fun isl -> isl >= 0 && isl < k) distinct)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_partition"
    [
      ( "fm",
        [
          Alcotest.test_case "two cliques" `Quick test_fm_two_cliques;
          Alcotest.test_case "fractional targets" `Quick
            test_fm_fractional_targets;
          Alcotest.test_case "infeasible raises" `Quick test_fm_infeasible;
          qt prop_fm_ceilings;
        ] );
      ( "kway",
        [
          Alcotest.test_case "two cliques" `Quick test_kway_two_cliques;
          Alcotest.test_case "k = 1" `Quick test_kway_k_equals_one;
          Alcotest.test_case "k = n" `Quick test_kway_k_equals_n;
          Alcotest.test_case "infeasible raises" `Quick test_kway_infeasible;
          Alcotest.test_case "multilevel ring" `Quick test_kway_multilevel_large;
          qt prop_kway_valid;
          qt prop_kway_cut_bounded;
        ] );
      ( "coarsen",
        [
          Alcotest.test_case "mass preserved" `Quick test_coarsen_preserves_mass;
          Alcotest.test_case "projection" `Quick test_coarsen_project;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "two communities" `Quick
            test_cluster_two_communities;
          Alcotest.test_case "pinning" `Quick test_cluster_pinning;
          Alcotest.test_case "degenerate counts" `Quick test_cluster_degenerate;
          Alcotest.test_case "errors" `Quick test_cluster_errors;
          qt prop_cluster_reaches_count;
        ] );
    ]
