(* Tests for the floorplanner: geometry, shelf packing, island layout,
   placement legality and annealing. *)

module Geometry = Noc_floorplan.Geometry
module Shelf = Noc_floorplan.Shelf
module Islands_layout = Noc_floorplan.Islands_layout
module Placer = Noc_floorplan.Placer
module Anneal = Noc_floorplan.Anneal
module Wiring = Noc_floorplan.Wiring
module Vi = Noc_spec.Vi

let checkf tol = Alcotest.(check (float tol))
let checkb = Alcotest.(check bool)

(* ---------- Geometry ---------- *)

let test_geometry_basics () =
  let r = Geometry.rect ~x:1.0 ~y:2.0 ~w:4.0 ~h:6.0 in
  let c = Geometry.center r in
  checkf 1e-9 "center x" 3.0 c.Geometry.x;
  checkf 1e-9 "center y" 5.0 c.Geometry.y;
  checkf 1e-9 "area" 24.0 (Geometry.area r);
  checkf 1e-9 "manhattan" 7.0
    (Geometry.manhattan (Geometry.point 0.0 0.0) (Geometry.point 3.0 4.0));
  checkb "contains center" true (Geometry.contains r c);
  checkb "excludes outside" false (Geometry.contains r (Geometry.point 0.0 0.0))

let test_geometry_overlap () =
  let a = Geometry.rect ~x:0.0 ~y:0.0 ~w:4.0 ~h:4.0 in
  let b = Geometry.rect ~x:2.0 ~y:2.0 ~w:4.0 ~h:4.0 in
  checkf 1e-9 "overlap" 4.0 (Geometry.overlap_area a b);
  let c = Geometry.rect ~x:4.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  checkf 1e-9 "edge-sharing does not overlap" 0.0 (Geometry.overlap_area a c);
  let d = Geometry.rect ~x:10.0 ~y:10.0 ~w:1.0 ~h:1.0 in
  checkf 1e-9 "disjoint" 0.0 (Geometry.overlap_area a d)

let test_geometry_clamp_inset () =
  let r = Geometry.rect ~x:0.0 ~y:0.0 ~w:10.0 ~h:10.0 in
  let p = Geometry.clamp_point r (Geometry.point 15.0 (-3.0)) in
  checkf 1e-9 "clamp x" 10.0 p.Geometry.x;
  checkf 1e-9 "clamp y" 0.0 p.Geometry.y;
  let inner = Geometry.inset r 2.0 in
  checkf 1e-9 "inset area" 36.0 (Geometry.area inner);
  let degenerate = Geometry.inset r 50.0 in
  checkf 1e-9 "over-inset degenerates" 0.0 (Geometry.area degenerate)

(* ---------- Shelf ---------- *)

let no_pairwise_overlap rects =
  let a = Array.of_list rects in
  let bad = ref false in
  for i = 0 to Array.length a - 1 do
    for j = i + 1 to Array.length a - 1 do
      if Geometry.overlap_area a.(i) a.(j) > 1e-9 then bad := true
    done
  done;
  not !bad

let test_shelf_legal () =
  let region = Geometry.rect ~x:1.0 ~y:1.0 ~w:10.0 ~h:10.0 in
  let blocks =
    List.init 8 (fun i ->
        { Shelf.block_id = i; area_mm2 = 2.0 +. float_of_int i; aspect = 1.0 })
  in
  let placed = Shelf.pack ~region blocks in
  Alcotest.(check int) "all placed" 8 (List.length placed);
  List.iter
    (fun (_, r) ->
      checkb "inside region" true (Geometry.contains_rect region r))
    placed;
  checkb "no overlap" true (no_pairwise_overlap (List.map snd placed))

let test_shelf_shrinks_to_fit () =
  (* demand 3x the region area: blocks must shrink but stay legal *)
  let region = Geometry.rect ~x:0.0 ~y:0.0 ~w:4.0 ~h:4.0 in
  let blocks =
    List.init 6 (fun i -> { Shelf.block_id = i; area_mm2 = 8.0; aspect = 1.0 })
  in
  let placed = Shelf.pack ~region blocks in
  List.iter
    (fun (_, r) -> checkb "inside" true (Geometry.contains_rect region r))
    placed;
  checkb "no overlap" true (no_pairwise_overlap (List.map snd placed))

let prop_shelf_random =
  QCheck.Test.make ~name:"shelf packing always legal" ~count:100
    QCheck.(pair (int_bound 1000) (int_range 1 15))
    (fun (seed, n) ->
      let state = Random.State.make [| seed |] in
      let region = Geometry.rect ~x:0.0 ~y:0.0 ~w:12.0 ~h:9.0 in
      let blocks =
        List.init n (fun i ->
            {
              Shelf.block_id = i;
              area_mm2 = 0.2 +. Random.State.float state 4.0;
              aspect = 0.5 +. Random.State.float state 1.5;
            })
      in
      let placed = Shelf.pack ~region blocks in
      List.for_all (fun (_, r) -> Geometry.contains_rect region r) placed
      && no_pairwise_overlap (List.map snd placed))

(* ---------- Islands layout ---------- *)

let test_layout_tiles_die () =
  let layout =
    Islands_layout.layout ~die_area_mm2:100.0
      ~island_areas:[| 30.0; 20.0; 10.0; 25.0 |]
      ~with_channel:false ()
  in
  Array.iter
    (fun r ->
      checkb "island inside die" true
        (Geometry.contains_rect layout.Islands_layout.die r))
    layout.Islands_layout.island_rects;
  (* guillotine slicing tiles the die exactly *)
  let total =
    Array.fold_left
      (fun acc r -> acc +. Geometry.area r)
      0.0 layout.Islands_layout.island_rects
  in
  checkf 1e-6 "islands tile the die" 100.0 total;
  checkb "no channel requested" true (layout.Islands_layout.noc_channel = None)

let test_layout_with_channel () =
  let layout =
    Islands_layout.layout ~die_area_mm2:100.0
      ~island_areas:[| 40.0; 40.0 |]
      ~with_channel:true ()
  in
  match layout.Islands_layout.noc_channel with
  | None -> Alcotest.fail "channel expected"
  | Some channel ->
    checkb "channel inside die" true
      (Geometry.contains_rect layout.Islands_layout.die channel);
    Array.iter
      (fun r ->
        checkf 1e-9 "islands avoid the channel" 0.0
          (Geometry.overlap_area channel r))
      layout.Islands_layout.island_rects

let prop_layout_no_island_overlap =
  QCheck.Test.make ~name:"island regions never overlap" ~count:60
    QCheck.(pair (int_bound 1000) (int_range 1 9))
    (fun (seed, islands) ->
      let state = Random.State.make [| seed |] in
      let areas =
        Array.init islands (fun _ -> 1.0 +. Random.State.float state 20.0)
      in
      let total = Array.fold_left ( +. ) 0.0 areas in
      let layout =
        Islands_layout.layout ~die_area_mm2:(total *. 1.4) ~island_areas:areas
          ~with_channel:(islands mod 2 = 0) ()
      in
      no_pairwise_overlap (Array.to_list layout.Islands_layout.island_rects))

(* ---------- Placer / Anneal / Wiring on real benchmarks ---------- *)

let d26 = Noc_benchmarks.D26.soc
let d26_vi = Noc_benchmarks.D26.logical_partition ~islands:6

let test_placer_legal_all_benchmarks () =
  List.iter
    (fun case ->
      let plan =
        Placer.place case.Noc_benchmarks.Bench_case.soc
          case.Noc_benchmarks.Bench_case.default_vi
      in
      Placer.check_plan case.Noc_benchmarks.Bench_case.soc
        case.Noc_benchmarks.Bench_case.default_vi plan)
    Noc_benchmarks.Bench_case.all

let test_anneal_improves_and_stays_legal () =
  let plan = Placer.place d26 d26_vi in
  let before = Placer.wirelength d26 plan in
  let improved = Anneal.improve ~seed:42 d26 d26_vi plan in
  Placer.check_plan d26 d26_vi improved;
  let after = Placer.wirelength d26 improved in
  checkb "never worse" true (after <= before +. 1e-6)

let test_anneal_deterministic () =
  let plan = Placer.place d26 d26_vi in
  let a = Anneal.improve ~seed:7 d26 d26_vi plan in
  let b = Anneal.improve ~seed:7 d26 d26_vi plan in
  checkf 1e-12 "same seed, same result" (Placer.wirelength d26 a)
    (Placer.wirelength d26 b)

let test_wiring_positions () =
  let plan = Placer.place d26 d26_vi in
  let members = Vi.cores_of_island d26_vi 0 in
  let attached = List.map (fun c -> (c, 1.0)) members in
  let p = Wiring.switch_position plan ~island:0 ~attached_cores:attached in
  checkb "switch inside its island" true
    (Geometry.contains plan.Placer.island_rects.(0) p);
  let empty = Wiring.switch_position plan ~island:1 ~attached_cores:[] in
  checkb "fallback is island center" true
    (Geometry.contains plan.Placer.island_rects.(1) empty);
  for i = 0 to 3 do
    let c = Wiring.channel_position plan ~index:i ~count:4 in
    checkb "indirect switch inside die" true
      (Geometry.contains plan.Placer.die c)
  done

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_floorplan"
    [
      ( "geometry",
        [
          Alcotest.test_case "basics" `Quick test_geometry_basics;
          Alcotest.test_case "overlap" `Quick test_geometry_overlap;
          Alcotest.test_case "clamp and inset" `Quick test_geometry_clamp_inset;
        ] );
      ( "shelf",
        [
          Alcotest.test_case "legal packing" `Quick test_shelf_legal;
          Alcotest.test_case "shrinks to fit" `Quick test_shelf_shrinks_to_fit;
          qt prop_shelf_random;
        ] );
      ( "islands layout",
        [
          Alcotest.test_case "tiles the die" `Quick test_layout_tiles_die;
          Alcotest.test_case "channel reservation" `Quick
            test_layout_with_channel;
          qt prop_layout_no_island_overlap;
        ] );
      ( "placement",
        [
          Alcotest.test_case "legal on every benchmark" `Quick
            test_placer_legal_all_benchmarks;
          Alcotest.test_case "annealing legal and monotone" `Quick
            test_anneal_improves_and_stays_legal;
          Alcotest.test_case "annealing deterministic" `Quick
            test_anneal_deterministic;
          Alcotest.test_case "wiring positions" `Quick test_wiring_positions;
        ] );
    ]
