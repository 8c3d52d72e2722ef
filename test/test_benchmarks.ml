(* Tests for the benchmark suite: structural validity of every SoC spec,
   the recipe combinators, logical/communication partitionings and the
   random generator. *)

module Flow = Noc_spec.Flow
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Scenario = Noc_spec.Scenario
module Recipe = Noc_benchmarks.Recipe
module Bench_case = Noc_benchmarks.Bench_case
module D26 = Noc_benchmarks.D26
module Partitions = Noc_benchmarks.Partitions
module Synth_gen = Noc_benchmarks.Synth_gen

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

(* ---------- Recipe ---------- *)

let test_recipe_pair () =
  let flows = Recipe.pair ~src:0 ~dst:1 ~bw:100.0 ~back:50.0 ~lat:10 () in
  checki "two flows" 2 (List.length flows);
  let fwd = List.nth flows 0 and back = List.nth flows 1 in
  checki "forward dst" 1 fwd.Flow.dst;
  checkf 1e-9 "back bandwidth" 50.0 back.Flow.bandwidth_mbps;
  checki "one-way" 1
    (List.length (Recipe.pair ~src:0 ~dst:1 ~bw:100.0 ~lat:10 ()))

let test_recipe_pipeline () =
  let flows = Recipe.pipeline ~stages:[ 3; 4; 5; 6 ] ~bw:100.0 ~taper:2.0 ~lat:10 () in
  checki "three hops" 3 (List.length flows);
  checkf 1e-9 "taper on second hop" 200.0
    (List.nth flows 1).Flow.bandwidth_mbps;
  match Recipe.pipeline ~stages:[ 1 ] ~bw:1.0 ~lat:10 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-stage pipeline must raise"

let test_recipe_hub () =
  let flows =
    Recipe.hub ~center:0 ~spokes:[ 1; 2 ] ~to_hub:10.0 ~from_hub:20.0 ~lat:10
  in
  checki "two per spoke" 4 (List.length flows);
  let down_only =
    Recipe.hub ~center:0 ~spokes:[ 1; 2 ] ~to_hub:0.0 ~from_hub:20.0 ~lat:10
  in
  checki "zero bandwidth skips direction" 2 (List.length down_only)

let test_recipe_merge () =
  let merged =
    Recipe.merge
      [
        [ Flow.make ~src:0 ~dst:1 ~bw:100.0 ~lat:30 ];
        [ Flow.make ~src:0 ~dst:1 ~bw:50.0 ~lat:10 ];
        [ Flow.make ~src:1 ~dst:0 ~bw:25.0 ~lat:20 ];
      ]
  in
  checki "duplicates merged" 2 (List.length merged);
  let f01 = List.find (fun f -> f.Flow.src = 0) merged in
  checkf 1e-9 "bandwidths summed" 150.0 f01.Flow.bandwidth_mbps;
  checki "latency tightened" 10 f01.Flow.max_latency_cycles

(* ---------- Benchmark structural validity ---------- *)

(* A flow needs >= 9 zero-load cycles as soon as it crosses an island
   (2 switches + 1 link + 4-cycle converter), and Fig. 2's 26-island point
   makes every D26 flow a crossing flow. *)
let test_latency_budgets_allow_crossing () =
  List.iter
    (fun case ->
      List.iter
        (fun f ->
          if f.Flow.max_latency_cycles < 10 then
            Alcotest.failf "%s: flow %d->%d budget %d < 10"
              case.Bench_case.name f.Flow.src f.Flow.dst
              f.Flow.max_latency_cycles)
        case.Bench_case.soc.Soc_spec.flows)
    Bench_case.all

let test_benchmarks_well_formed () =
  List.iter
    (fun case ->
      let soc = case.Bench_case.soc in
      let n = Soc_spec.core_count soc in
      checkb "has flows" true (soc.Soc_spec.flows <> []);
      checki "vi covers all cores" n
        (Array.length case.Bench_case.default_vi.Vi.of_core);
      Scenario.validate_duties case.Bench_case.scenarios;
      List.iter
        (fun c ->
          checkb "always-on core id valid" true (c >= 0 && c < n))
        case.Bench_case.always_on_cores;
      (* the islands holding always-on cores must be non-shutdownable *)
      List.iter
        (fun c ->
          let isl = case.Bench_case.default_vi.Vi.of_core.(c) in
          checkb "always-on island pinned" false
            case.Bench_case.default_vi.Vi.shutdownable.(isl))
        case.Bench_case.always_on_cores)
    Bench_case.all

let test_bench_case_find () =
  checki "found d20" 20 (Soc_spec.core_count (Bench_case.find "D20").Bench_case.soc);
  match Bench_case.find "nope" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown benchmark must raise"

let test_d26_sizes () =
  checki "26 cores" 26 (Soc_spec.core_count D26.soc);
  checkb "dozens of flows" true (List.length D26.soc.Soc_spec.flows >= 60)

(* ---------- D26 logical partitions ---------- *)

let test_d26_logical_counts () =
  List.iter
    (fun k ->
      let vi = D26.logical_partition ~islands:k in
      checki "island count" k vi.Vi.islands;
      (* shared memories always together and always-on, except per-core *)
      if k <> 26 then begin
        let isl = vi.Vi.of_core.(8) in
        List.iter
          (fun c -> checki "shared memories together" isl vi.Vi.of_core.(c))
          D26.shared_memory_cores;
        checkb "their island is pinned" false vi.Vi.shutdownable.(isl)
      end)
    D26.logical_island_counts;
  match D26.logical_partition ~islands:9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsupported count must raise"

let test_d26_monotone_crossings () =
  (* more islands means more island-crossing traffic *)
  let crossing k =
    Vi.crossing_bandwidth (D26.logical_partition ~islands:k) D26.soc.Soc_spec.flows
  in
  checkf 1e-9 "one island crosses nothing" 0.0 (crossing 1);
  checkb "26 islands cross everything" true
    (crossing 26 >= crossing 6 && crossing 6 > 0.0)

(* ---------- Communication-based partitioning ---------- *)

let test_comm_partition_basics () =
  let vi =
    Partitions.communication_based ~islands:4
      ~always_on_cores:D26.shared_memory_cores D26.soc
  in
  checki "requested islands" 4 vi.Vi.islands;
  (* the pinned group shares one island and it is not shutdownable *)
  let isl = vi.Vi.of_core.(8) in
  List.iter
    (fun c -> checki "pinned together" isl vi.Vi.of_core.(c))
    D26.shared_memory_cores;
  checkb "pinned island on" false vi.Vi.shutdownable.(isl)

let test_comm_beats_logical_on_internal_traffic () =
  (* the whole point of communication-based partitioning *)
  let flows = D26.soc.Soc_spec.flows in
  let comm =
    Partitions.communication_based ~islands:6
      ~always_on_cores:D26.shared_memory_cores D26.soc
  in
  let logical = D26.logical_partition ~islands:6 in
  checkb "comm keeps more bandwidth internal" true
    (Vi.crossing_bandwidth comm flows < Vi.crossing_bandwidth logical flows)

let test_comm_degenerate_counts () =
  let vi1 =
    Partitions.communication_based ~islands:1 ~always_on_cores:[] D26.soc
  in
  checki "single island" 1 vi1.Vi.islands;
  let vi26 =
    Partitions.communication_based ~islands:26
      ~always_on_cores:D26.shared_memory_cores D26.soc
  in
  checki "per-core islands" 26 vi26.Vi.islands

let test_partitions_sweep_labels () =
  let sweep =
    Partitions.sweep ~island_counts:[ 2; 3 ] ~always_on_cores:[] D26.soc
  in
  Alcotest.(check (list string)) "labels" [ "comm/2"; "comm/3" ]
    (List.map fst sweep)

(* ---------- Random generator ---------- *)

let prop_generated_specs_valid =
  QCheck.Test.make ~name:"generated SoCs pass spec validation" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 6 30))
    (fun (seed, cores) ->
      let soc =
        Synth_gen.generate ~seed
          { Synth_gen.default_profile with cores }
      in
      (* Soc_spec.make already validated; check basic shape *)
      Soc_spec.core_count soc = cores
      && soc.Soc_spec.flows <> []
      && List.for_all
           (fun f -> f.Flow.max_latency_cycles >= 10)
           soc.Soc_spec.flows)

let prop_random_vi_valid =
  QCheck.Test.make ~name:"random VI assignments are valid" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, islands) ->
      let soc =
        Synth_gen.generate ~seed
          { Synth_gen.default_profile with cores = 14 }
      in
      let islands = min islands 14 in
      let vi = Synth_gen.random_vi ~seed ~islands soc in
      vi.Vi.islands = islands
      && Array.for_all (fun s -> s > 0) (Vi.island_sizes vi)
      && (islands = 1 || not vi.Vi.shutdownable.(0)))

let test_generator_deterministic () =
  let a = Synth_gen.generate ~seed:5 Synth_gen.default_profile in
  let b = Synth_gen.generate ~seed:5 Synth_gen.default_profile in
  checki "same flow count" (List.length a.Soc_spec.flows)
    (List.length b.Soc_spec.flows);
  let c = Synth_gen.generate ~seed:6 Synth_gen.default_profile in
  checkb "different seed differs" true
    (a.Soc_spec.flows <> c.Soc_spec.flows)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_benchmarks"
    [
      ( "recipe",
        [
          Alcotest.test_case "pair" `Quick test_recipe_pair;
          Alcotest.test_case "pipeline" `Quick test_recipe_pipeline;
          Alcotest.test_case "hub" `Quick test_recipe_hub;
          Alcotest.test_case "merge" `Quick test_recipe_merge;
        ] );
      ( "structure",
        [
          Alcotest.test_case "latency budgets" `Quick
            test_latency_budgets_allow_crossing;
          Alcotest.test_case "well-formed" `Quick test_benchmarks_well_formed;
          Alcotest.test_case "lookup" `Quick test_bench_case_find;
          Alcotest.test_case "d26 shape" `Quick test_d26_sizes;
        ] );
      ( "logical partitions",
        [
          Alcotest.test_case "all island counts" `Quick test_d26_logical_counts;
          Alcotest.test_case "crossing bandwidth grows" `Quick
            test_d26_monotone_crossings;
        ] );
      ( "communication partitions",
        [
          Alcotest.test_case "basics" `Quick test_comm_partition_basics;
          Alcotest.test_case "beats logical on internal traffic" `Quick
            test_comm_beats_logical_on_internal_traffic;
          Alcotest.test_case "degenerate counts" `Quick
            test_comm_degenerate_counts;
          Alcotest.test_case "sweep labels" `Quick test_partitions_sweep_labels;
        ] );
      ( "generator",
        [
          qt prop_generated_specs_valid;
          qt prop_random_vi_valid;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        ] );
    ]
