(* Regression tests for the parallel execution model: running the
   design-space sweeps on several domains must produce results
   structurally identical to the sequential walk, and the Pareto filter
   must be sound, complete, sorted and duplicate-stable. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module Explore = Noc_synthesis.Explore
module DP = Noc_synthesis.Design_point
module Power = Noc_models.Power
module D26 = Noc_benchmarks.D26

let config = Config.default
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Everything observable about a design point, as comparable scalars. *)
let point_signature p =
  ( ( Power.total_mw p.DP.power,
      Power.dynamic_mw p.DP.power,
      p.DP.avg_latency_cycles,
      DP.total_area_mm2 p.DP.area ),
    ( p.DP.switch_count,
      p.DP.indirect_count,
      p.DP.link_count,
      p.DP.crossing_count,
      p.DP.worst_latency_slack,
      p.DP.timing_clean ) )

let result_signature (r : Synth.result) =
  ( r.Synth.candidates_tried,
    r.Synth.candidates_feasible,
    List.map point_signature r.Synth.points )

let test_synth_run_domains_equal () =
  let soc = D26.soc in
  let vi = D26.logical_partition ~islands:6 in
  let opts n = { Synth.Options.default with Synth.Options.domains = Some n } in
  let r1 = Synth.run ~options:(opts 1) config soc vi in
  let r4 = Synth.run ~options:(opts 4) config soc vi in
  checki "same candidates tried" r1.Synth.candidates_tried
    r4.Synth.candidates_tried;
  checki "same feasible count" r1.Synth.candidates_feasible
    r4.Synth.candidates_feasible;
  checkb "all design points structurally equal, in the same order" true
    (result_signature r1 = result_signature r4);
  let front_sig r = List.map point_signature (Explore.pareto r.Synth.points) in
  checkb "pareto fronts structurally equal" true (front_sig r1 = front_sig r4)

let test_island_sweep_domains_equal () =
  let soc = D26.soc in
  let partitions =
    List.map
      (fun k ->
        (Printf.sprintf "logical/%d" k, D26.logical_partition ~islands:k))
      [ 1; 4; 6 ]
  in
  let signature points =
    List.map
      (fun sp ->
        (sp.Explore.label, sp.Explore.islands, point_signature sp.Explore.point))
      points
  in
  let opts n =
    {
      Explore.Options.default with
      Explore.Options.synth =
        { Synth.Options.default with Synth.Options.domains = Some n };
    }
  in
  let s1 = Explore.island_sweep ~options:(opts 1) config soc ~partitions in
  let s4 = Explore.island_sweep ~options:(opts 4) config soc ~partitions in
  checki "same number of sweep points" (List.length s1) (List.length s4);
  checkb "sweep results structurally equal, in partition order" true
    (signature s1 = signature s4)

(* ---------- pareto_by: units pinning duplicate behavior ---------- *)

let pair_list = Alcotest.(list (pair (float 0.0) (float 0.0)))

let test_pareto_duplicates_retained () =
  Alcotest.check pair_list "equal points never dominate each other"
    [ (1.0, 2.0); (2.0, 1.0); (2.0, 1.0) ]
    (Explore.pareto_by ~key:Fun.id [ (2.0, 1.0); (1.0, 2.0); (2.0, 1.0) ]);
  (* distinct payloads with equal keys: all retained, in input order *)
  Alcotest.(check (list string))
    "tied payloads keep input order" [ "a"; "b"; "c" ]
    (List.map fst
       (Explore.pareto_by ~key:snd
          [ ("a", (1.0, 1.0)); ("b", (1.0, 1.0)); ("c", (1.0, 1.0)) ]))

let test_pareto_dominated_duplicates_dropped () =
  Alcotest.check pair_list "dominated duplicates all dropped" [ (1.0, 1.0) ]
    (Explore.pareto_by ~key:Fun.id [ (3.0, 3.0); (1.0, 1.0); (3.0, 3.0) ]);
  Alcotest.check pair_list "empty input" [] (Explore.pareto_by ~key:Fun.id [])

(* ---------- pareto_by: qcheck on random point sets ---------- *)

let dominates (pa, la) (pb, lb) =
  pa <= pb && la <= lb && (pa < pb || la < lb)

let points_gen =
  QCheck.(
    map
      (List.map (fun (a, b) -> (float_of_int a, float_of_int b)))
      (list_of_size Gen.(0 -- 60) (pair (int_bound 20) (int_bound 20))))

let prop_pareto_sound_complete_sorted =
  QCheck.Test.make
    ~name:"pareto_by: only and all non-dominated points, sorted, multiplicity \
           kept"
    ~count:300 points_gen
    (fun pts ->
      let front = Explore.pareto_by ~key:Fun.id pts in
      let non_dominated p = not (List.exists (fun q -> dominates q p) pts) in
      let expected = List.filter non_dominated pts in
      let multiset xs = List.sort compare xs in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b && sorted rest
        | [ _ ] | [] -> true
      in
      (* sound: nothing on the front is dominated *)
      List.for_all non_dominated front
      (* complete with multiplicity: same multiset as the brute-force
         non-dominated subset *)
      && multiset front = multiset expected
      (* sorted by increasing key *)
      && sorted front)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_determinism"
    [
      ( "parallel = sequential",
        [
          Alcotest.test_case "Synth.run d26, 1 vs 4 domains" `Slow
            test_synth_run_domains_equal;
          Alcotest.test_case "Explore.island_sweep d26, 1 vs 4 domains" `Slow
            test_island_sweep_domains_equal;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "duplicates retained" `Quick
            test_pareto_duplicates_retained;
          Alcotest.test_case "dominated duplicates dropped" `Quick
            test_pareto_dominated_duplicates_dropped;
          qt prop_pareto_sound_complete_sorted;
        ] );
    ]
