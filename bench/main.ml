(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see EXPERIMENTS.md for the recorded outputs), plus Bechamel
   micro-benchmarks of the synthesis kernels.

   Shared measurement helpers (interleaved reps, medians, the BENCH_*.json
   writer) live in harness.ml.

   Usage:
     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- fig2 fig3 fig4 fig5 overhead leakage \
                                  dse simcheck ablation speed   # pick some
     dune exec bench/main.exe -- speedup   # 1-domain vs N-domain DSE wall
                                           # time on d26/d36/d48 (NOC_JOBS)
     dune exec bench/main.exe -- recovery  # rip-up/reroute recovery stats
                                           # + verification on d26/d36/d48
     dune exec bench/main.exe -- faults    # fault-injection survivability
                                           # table, d12..d48 (NOC_JOBS)
     dune exec bench/main.exe -- sweep     # memoized sweep engine: cache
                                           # on/off wall time + identity on
                                           # d36/d48, writes BENCH_sweep.json
     dune exec bench/main.exe -- scale     # routing core at d48/d128/d256:
                                           # wall clock, candidates/s, minor
                                           # words/candidate, hop costs per
                                           # search; every rep must
                                           # reproduce the first and d128's
                                           # words/candidate stay under a
                                           # committed bound (gated),
                                           # writes BENCH_scale.json
     dune exec bench/main.exe -- delta     # incremental re-synthesis: rerun
                                           # vs fresh per delta kind on d36,
                                           # writes BENCH_delta.json
     dune exec bench/main.exe -- scenario  # multi-scenario synthesis on
                                           # d36: per-scenario feasibility,
                                           # duty-weighted power vs union
                                           # baseline, bit-identity across
                                           # reps/jobs/permutations — gated,
                                           # writes BENCH_scenario.json
     dune exec bench/main.exe -- serve     # synthesis daemon + persistent
                                           # store: repeat/near-repeat/cold
                                           # request mix over a real socket,
                                           # writes BENCH_serve.json
     dune exec bench/main.exe -- chaos     # concurrent daemon under a
                                           # hostile client mix: slow writers,
                                           # disconnects, malformed frames,
                                           # deadlines, store corruption,
                                           # overload, drain — gated, writes
                                           # BENCH_chaos.json *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module DP = Noc_synthesis.Design_point
module Topology = Noc_synthesis.Topology
module Shutdown = Noc_synthesis.Shutdown
module Baseline = Noc_synthesis.Baseline
module Explore = Noc_synthesis.Explore
module Power = Noc_models.Power
module Vi = Noc_spec.Vi
module Flow = Noc_spec.Flow
module Scenario = Noc_spec.Scenario
module Bench_case = Noc_benchmarks.Bench_case
module D26 = Noc_benchmarks.D26
module Partitions = Noc_benchmarks.Partitions
module Sim = Noc_sim.Sim
module J = Noc_synthesis.Report.Json

let wall = Harness.wall

let config = Config.default
let soc = D26.soc

let section title =
  Printf.printf "\n================ %s ================\n%!" title

(* Memoize synthesis runs: several experiments share the same design. *)
let synth_cache : (string, Synth.result) Hashtbl.t = Hashtbl.create 16

let run_cached key vi =
  match Hashtbl.find_opt synth_cache key with
  | Some r -> r
  | None ->
    let r = Synth.run config soc vi in
    Hashtbl.replace synth_cache key r;
    r

let logical_vi k = D26.logical_partition ~islands:k
let logical_result k = run_cached (Printf.sprintf "logical/%d" k) (logical_vi k)

(* Communication-based point: explore both clustering strategies and keep
   the better design — the per-point exploration §3.2 advocates. *)
let comm_result k =
  let candidates =
    List.filter_map
      (fun strategy ->
        let label =
          match strategy with
          | Partitions.Min_cut -> "mincut"
          | Partitions.Agglomerative -> "agglo"
        in
        let vi =
          Partitions.communication_based ~strategy ~islands:k
            ~always_on_cores:D26.shared_memory_cores soc
        in
        match run_cached (Printf.sprintf "comm-%s/%d" label k) vi with
        | r -> Some r
        | exception Synth.No_feasible_design _ -> None)
      Partitions.strategies
  in
  match candidates with
  | [] -> raise (Synth.No_feasible_design "comm: no strategy feasible")
  | first :: rest ->
    List.fold_left
      (fun acc r ->
        let dyn r = Power.dynamic_mw (Synth.best_power r).DP.power in
        if dyn r < dyn acc then r else acc)
      first rest

(* ---------------- EXP-F2 and EXP-F3: Figures 2 and 3 ---------------- *)

let fig2_fig3 () =
  section
    "EXP-F2 / EXP-F3: island count vs NoC dynamic power (Fig. 2) and average \
     zero-load latency (Fig. 3), D26";
  Printf.printf "%-8s %-22s %-22s\n" "islands" "logical: mW / cycles"
    "comm-based: mW / cycles";
  List.iter
    (fun k ->
      let describe result =
        match result with
        | r ->
          let p = Synth.best_power r in
          Printf.sprintf "%8.1f / %5.2f" (Power.dynamic_mw p.DP.power)
            p.DP.avg_latency_cycles
        | exception Synth.No_feasible_design _ -> "infeasible"
      in
      Printf.printf "%-8d %-22s %-22s\n%!" k
        (describe (logical_result k))
        (describe (comm_result k)))
    D26.logical_island_counts;
  print_endline
    "expected shape (paper): logical rises above the 1-island reference,\n\
     communication-based dips below it, both series meet at 26 islands;\n\
     latency grows with island count (4 cycles per crossing)."

(* ---------------- EXP-F4: Figure 4 ---------------- *)

let fig4 () =
  section
    "EXP-F4: synthesized topology for the 6-VI logical partitioning (Fig. 4)";
  let best = Synth.best_power (logical_result 6) in
  Format.printf "%a@." Topology.pp_netlist best.DP.topology;
  (match Shutdown.check_topology (logical_vi 6) best.DP.topology with
   | Ok () -> print_endline "shutdown-safety invariant: OK"
   | Error _ -> print_endline "shutdown-safety invariant: VIOLATED")

(* ---------------- EXP-F5: Figure 5 ---------------- *)

let fig5 () =
  section "EXP-F5: floorplan of the 6-VI design (Fig. 5)";
  let result = logical_result 6 in
  let plan = result.Synth.plan in
  let open Noc_floorplan in
  Format.printf "die %a@." Geometry.pp_rect plan.Placer.die;
  (match plan.Placer.noc_channel with
   | Some c -> Format.printf "intermediate NoC channel %a@." Geometry.pp_rect c
   | None -> print_endline "no intermediate NoC channel");
  Array.iteri
    (fun isl r ->
      Format.printf "VI%d %a cores:" isl Geometry.pp_rect r;
      List.iter
        (fun core ->
          Format.printf " %s"
            soc.Noc_spec.Soc_spec.cores.(core).Noc_spec.Core_spec.name)
        (Vi.cores_of_island (logical_vi 6) isl);
      Format.printf "@.")
    plan.Placer.island_rects;
  Format.printf "flow-weighted wirelength: %.0f MB/s x mm@."
    (Placer.wirelength soc plan)

(* ------- EXP-T1: overhead table (paper: ~3% power, <0.5% area) ------- *)

let overhead () =
  section
    "EXP-T1: overhead of shutdown support vs VI-oblivious baseline (paper \
     quotes ~3% system dynamic power, <0.5% SoC area on average)";
  Printf.printf "%-6s %-14s %-14s %-12s\n" "bench" "power ovhd %" "area ovhd %"
    "NoC ovhd %";
  let totals = ref (0.0, 0.0) in
  List.iter
    (fun case ->
      let bsoc = case.Bench_case.soc in
      let vi_point =
        Synth.best_power (Synth.run config bsoc case.Bench_case.default_vi)
      in
      let base_point = Synth.best_power (Baseline.synthesize config bsoc) in
      let c = Baseline.compare_designs bsoc ~vi_point ~base_point in
      let p, a = !totals in
      totals :=
        ( p +. c.Baseline.system_dynamic_overhead,
          a +. c.Baseline.system_area_overhead );
      Printf.printf "%-6s %-14.2f %-14.2f %-12.1f\n%!" case.Bench_case.name
        (100.0 *. c.Baseline.system_dynamic_overhead)
        (100.0 *. c.Baseline.system_area_overhead)
        (100.0 *. c.Baseline.noc_power_overhead))
    Bench_case.all;
  let n = float_of_int (List.length Bench_case.all) in
  let p, a = !totals in
  Printf.printf "%-6s %-14.2f %-14.2f\n" "AVG" (100.0 *. p /. n)
    (100.0 *. a /. n)

(* ---------------- EXP-T2: leakage savings ---------------- *)

let leakage () =
  section
    "EXP-T2: island-shutdown power savings per usage scenario (paper \
     motivates 25%+ total-power reductions)";
  List.iter
    (fun case ->
      let bsoc = case.Bench_case.soc in
      let vi = case.Bench_case.default_vi in
      let point = Synth.best_power (Synth.run config bsoc vi) in
      let report =
        Shutdown.leakage_report config bsoc vi point
          ~scenarios:case.Bench_case.scenarios
      in
      Printf.printf "%s: duty-weighted savings %.1f%%\n" case.Bench_case.name
        (100.0 *. report.Shutdown.weighted_savings_fraction))
    Bench_case.all;
  print_endline "";
  let point = Synth.best_power (logical_result 6) in
  let report =
    Shutdown.leakage_report config soc (logical_vi 6) point
      ~scenarios:D26.scenarios
  in
  Format.printf "%a@." Shutdown.pp_report report

(* ---------------- EXP-DSE: trade-off curves ---------------- *)

let dse () =
  section "EXP-DSE: design points and Pareto front, D26 6-VI logical (§3.2)";
  let result = logical_result 6 in
  Printf.printf "%d candidates tried, %d feasible design points\n"
    result.Synth.candidates_tried result.Synth.candidates_feasible;
  Printf.printf "%-10s %-9s %-11s %-9s %s\n" "switches" "indirect" "total mW"
    "latency" "crossings";
  List.iter
    (fun p ->
      Printf.printf "%-10d %-9d %-11.1f %-9.2f %d\n" p.DP.switch_count
        p.DP.indirect_count
        (Power.total_mw p.DP.power)
        p.DP.avg_latency_cycles p.DP.crossing_count)
    result.Synth.points;
  let front = Explore.pareto result.Synth.points in
  Printf.printf "\nPareto front (%d points):\n" (List.length front);
  List.iter
    (fun p ->
      Printf.printf "  %2d+%d switches  %7.1f mW  %5.2f cycles\n"
        p.DP.switch_count p.DP.indirect_count
        (Power.total_mw p.DP.power)
        p.DP.avg_latency_cycles)
    front

(* ---------------- EXP-SIM: simulator validation ---------------- *)

let simcheck () =
  section
    "EXP-SIM: executable validation of the latency model and of shutdown \
     safety";
  let vi = logical_vi 6 in
  let best = Synth.best_power (logical_result 6) in
  let topo = best.DP.topology in
  let checks = Sim.zero_load_check soc vi topo in
  let mismatches =
    List.filter (fun (_, s, a) -> Float.abs (s -. float_of_int a) > 1e-6) checks
  in
  Printf.printf
    "zero-load agreement: %d/%d flows match the analytic model exactly\n"
    (List.length checks - List.length mismatches)
    (List.length checks);
  Printf.printf "\nlatency vs load (busiest-link utilization):\n";
  List.iter
    (fun load ->
      let r = Sim.run_at_load ~load ~horizon:8_000.0 soc vi topo in
      Printf.printf "  load %.2f: avg %.2f cycles (%d flits)\n%!" load
        r.Noc_sim.Stats.overall_avg_latency r.Noc_sim.Stats.total_delivered)
    [ 0.05; 0.2; 0.4; 0.6; 0.8 ];
  Printf.printf "\nshutdown scenarios (gated islands still deliver):\n";
  List.iter
    (fun s ->
      let gated = Scenario.gated_islands s vi in
      let r = Sim.run_with_shutdown ~gated ~horizon:6_000.0 soc vi topo in
      Printf.printf "  %-16s gated [%s]: %d/%d flits, avg %.2f cycles\n%!"
        s.Scenario.name
        (String.concat "," (List.map string_of_int gated))
        r.Noc_sim.Stats.total_delivered r.Noc_sim.Stats.total_injected
        r.Noc_sim.Stats.overall_avg_latency)
    D26.scenarios

(* ---------------- Ablations ---------------- *)

let ablation () =
  section "ablations: design choices of DESIGN.md §5";
  Printf.printf "alpha sweep (Definition 1 weight, 6-VI logical):\n";
  List.iter
    (fun (alpha, p) ->
      Printf.printf "  alpha %.2f: %7.1f mW, %5.2f cycles, slack %d\n" alpha
        (Power.total_mw p.DP.power)
        p.DP.avg_latency_cycles p.DP.worst_latency_slack)
    (Explore.alpha_sweep config soc (logical_vi 6)
       ~alphas:[ 0.0; 0.3; 0.6; 1.0 ]);
  let no_inter =
    Noc_spec.Soc_spec.make ~name:"D26-no-inter"
      ~cores:soc.Noc_spec.Soc_spec.cores ~flows:soc.Noc_spec.Soc_spec.flows
      ~allow_intermediate_island:false ()
  in
  let describe label run =
    match run () with
    | r ->
      let p = Synth.best_power r in
      Printf.printf "  %-28s %7.1f mW, %5.2f cycles, %d+%d switches\n" label
        (Power.total_mw p.DP.power)
        p.DP.avg_latency_cycles p.DP.switch_count p.DP.indirect_count
    | exception Synth.No_feasible_design _ ->
      Printf.printf "  %-28s infeasible\n" label
  in
  Printf.printf "\nintermediate NoC VI availability (26 islands, §3.2):\n";
  describe "with intermediate rails" (fun () ->
      Synth.run config soc (logical_vi 26));
  describe "without intermediate rails" (fun () ->
      Synth.run config no_inter (D26.logical_partition ~islands:26));
  Printf.printf
    "\ncore-to-switch assignment (step 11 ablation, 6-VI logical):\n";
  (let describe label result =
     match result with
     | r ->
       let p = Synth.best_power r in
       Printf.printf "  %-22s %7.1f mW, %5.2f cycles\n" label
         (Power.total_mw p.DP.power)
         p.DP.avg_latency_cycles
     | exception Synth.No_feasible_design _ ->
       Printf.printf "  %-22s infeasible\n" label
   in
   describe "min-cut (paper)" (logical_result 6);
   describe "round-robin"
     (Synth.run
        ~options:
          {
            Synth.Options.default with
            Synth.Options.assignment_strategy =
              Noc_synthesis.Switch_alloc.Round_robin;
          }
        config soc (logical_vi 6)));
  Printf.printf "\nlink width sweep (6-VI logical, paper S4):\n";
  List.iter
    (fun (width, p) ->
      Printf.printf "  %2d-bit links: %7.1f mW, %5.2f cycles\n" width
        (Power.total_mw p.DP.power)
        p.DP.avg_latency_cycles)
    (Explore.width_sweep config soc (logical_vi 6) ~widths:[ 16; 32; 64 ]);
  Printf.printf
    "\nscenario-aware design-point selection (duty-weighted system mW):\n";
  (let result = logical_result 6 in
   let peak = Synth.best_power result in
   let weighted, w_mw =
     Explore.best_scenario_weighted config soc (logical_vi 6)
       ~scenarios:D26.scenarios result
   in
   Printf.printf "  peak-power pick:      %7.1f mW NoC, %d+%d switches\n"
     (Power.total_mw peak.DP.power)
     peak.DP.switch_count peak.DP.indirect_count;
   Printf.printf
     "  scenario-aware pick:  %7.1f mW NoC, %d+%d switches (%.1f mW weighted \
      system)\n"
     (Power.total_mw weighted.DP.power)
     weighted.DP.switch_count weighted.DP.indirect_count w_mw);
  Printf.printf "\npath-cost beta sweep (6-VI logical):\n";
  List.iter
    (fun beta ->
      let cfg = { config with Config.beta } in
      match Synth.run cfg soc (logical_vi 6) with
      | r ->
        let p = Synth.best_power r in
        Printf.printf "  beta %.2f: %7.1f mW, %5.2f cycles\n" beta
          (Power.total_mw p.DP.power)
          p.DP.avg_latency_cycles
      | exception Synth.No_feasible_design _ ->
        Printf.printf "  beta %.2f: infeasible\n" beta)
    [ 0.0; 0.5; 0.7; 1.0 ]

(* ---------------- EXP-PAR: multicore DSE speedup ---------------- *)

let front_signature result =
  List.map
    (fun p ->
      ( Power.total_mw p.DP.power,
        p.DP.avg_latency_cycles,
        p.DP.switch_count,
        p.DP.indirect_count ))
    (Explore.pareto result.Synth.points)

let speedup () =
  let jobs =
    let d = Noc_exec.Pool.default_domains () in
    if d > 1 then d else 4
  in
  section
    (Printf.sprintf
       "EXP-PAR: candidate evaluation on 1 vs %d domains (NOC_JOBS to \
        override; %d recommended on this machine)"
       jobs
       (Noc_exec.Pool.available_domains ()));
  Printf.printf "%-6s %12s %12s %9s  %s\n" "bench" "1-domain s"
    (Printf.sprintf "%d-domain s" jobs)
    "speedup" "fronts";
  List.iter
    (fun name ->
      let case = Bench_case.find name in
      let bsoc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
      (* one warm-up run so allocation effects hit neither timing *)
      let domains n =
        { Synth.Options.default with Synth.Options.domains = Some n }
      in
      ignore (Synth.run ~options:(domains 1) config bsoc vi);
      let t1, r1 = wall (fun () -> Synth.run ~options:(domains 1) config bsoc vi) in
      let tn, rn =
        wall (fun () -> Synth.run ~options:(domains jobs) config bsoc vi)
      in
      Printf.printf "%-6s %12.2f %12.2f %8.2fx  %s\n%!" name t1 tn (t1 /. tn)
        (if front_signature r1 = front_signature rn then "identical"
         else "MISMATCH");
      assert (front_signature r1 = front_signature rn))
    [ "d26"; "d36"; "d48" ];
  let partitions =
    List.map
      (fun k -> (Printf.sprintf "logical/%d" k, D26.logical_partition ~islands:k))
      D26.logical_island_counts
  in
  let sweep_signature points =
    List.map
      (fun sp ->
        ( sp.Explore.label,
          Power.total_mw sp.Explore.point.DP.power,
          sp.Explore.point.DP.avg_latency_cycles ))
      points
  in
  let sweep_options n =
    {
      Explore.Options.synth =
        { Synth.Options.default with Synth.Options.domains = Some n };
      verify = true;
    }
  in
  let t1, s1 =
    wall (fun () ->
        Explore.island_sweep ~options:(sweep_options 1) config soc ~partitions)
  in
  let tn, sn =
    wall (fun () ->
        Explore.island_sweep ~options:(sweep_options jobs) config soc
          ~partitions)
  in
  Printf.printf
    "island_sweep (d26, %d partitions): %.2f s -> %.2f s (%.2fx), results %s\n"
    (List.length partitions) t1 tn (t1 /. tn)
    (if sweep_signature s1 = sweep_signature sn then "identical"
     else "MISMATCH");
  assert (sweep_signature s1 = sweep_signature sn);
  Printf.printf "\nmetrics: %s\n" (Noc_exec.Metrics.to_json ())

(* ---------------- EXP-REC: rip-up/reroute recovery ---------------- *)

let recovery () =
  section
    "EXP-REC: transactional rip-up/reroute recovery in the path allocator \
     (default partitions; every best point re-checked with Verify.check_all)";
  Printf.printf "%-6s %9s %9s %10s  %s\n" "bench" "tried" "feasible"
    "recovered" "best verifies";
  List.iter
    (fun name ->
      let case = Bench_case.find name in
      let bsoc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
      let r = Synth.run config bsoc vi in
      let best = Synth.best_power r in
      let verdict =
        match
          Noc_synthesis.Verify.check_all config bsoc vi best.DP.topology
        with
        | Ok () -> "OK"
        | Error _ -> "VIOLATED"
      in
      Printf.printf "%-6s %9d %9d %10d  %s\n%!" name r.Synth.candidates_tried
        r.Synth.candidates_feasible r.Synth.candidates_recovered verdict)
    [ "d26"; "d36"; "d48" ];
  Printf.printf "\nmetrics (see path_alloc.* for rip-ups/reroutes/rollbacks):\n%s\n"
    (Noc_exec.Metrics.to_json ())

(* ---------------- EXP-FLT: fault-injection survivability ---------------- *)

let faults () =
  section
    "EXP-FLT: fault-injection survivability, exhaustive single-switch and \
     single-link campaigns (protected rows synthesize with backup routes; \
     campaigns parallelized over NOC_JOBS domains, order-independent)";
  List.iter
    (fun case ->
      let bsoc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
      let row ~protect =
        let r =
          Synth.run
            ~options:{ Synth.Options.default with Synth.Options.protect }
            config bsoc vi
        in
        let topo = (Synth.best_power r).DP.topology in
        let clocks = r.Synth.clocks in
        let campaign label sets =
          let outcomes = Noc_fault.Survivability.run config topo ~clocks sets in
          Format.printf "%a@."
            Noc_fault.Survivability.pp_summary
            (Printf.sprintf "%s %s%s" case.Bench_case.name label
               (if protect then " prot" else ""),
             outcomes)
        in
        campaign "sw" (Noc_fault.Campaign.single_switch topo);
        campaign "link" (Noc_fault.Campaign.single_link topo)
      in
      row ~protect:false;
      (match row ~protect:true with
       | () -> ()
       | exception Synth.No_feasible_design _ ->
         Printf.printf "%-18s protected synthesis infeasible\n"
           case.Bench_case.name);
      print_newline ())
    Bench_case.all;
  Printf.printf "metrics: %s\n" (Noc_exec.Metrics.to_json ())

(* ---------------- EXP-SWEEP: memoized sweep engine ---------------- *)

(* Full per-point signature (not just the Pareto front): the cached and
   uncached engines must agree bit for bit on every saved design point. *)
let point_signature p =
  ( Power.total_mw p.DP.power,
    p.DP.avg_latency_cycles,
    p.DP.switch_count,
    p.DP.indirect_count,
    p.DP.link_count,
    p.DP.crossing_count,
    p.DP.total_wire_mm )

let result_signature r =
  ( List.map point_signature r.Synth.points,
    r.Synth.candidates_tried,
    r.Synth.candidates_feasible,
    r.Synth.candidates_recovered )

let sweep () =
  section
    "EXP-SWEEP: memoized sweep engine, cache on vs off (writes \
     BENCH_sweep.json; cached and uncached runs must be bit-identical)";
  let gate_failed = ref false in
  let rows = ref [] in
  Printf.printf "%-6s %5s %12s %12s %9s  %s\n" "bench" "jobs" "uncached s"
    "cached s" "speedup" "identical";
  List.iter
    (fun name ->
      let case = Bench_case.find name in
      let bsoc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
      let options ~cache ~jobs =
        {
          Synth.Options.default with
          Synth.Options.cache;
          domains = Some jobs;
        }
      in
      (* warm-up so allocation effects hit neither timing *)
      ignore (Synth.run ~options:(options ~cache:false ~jobs:1) config bsoc vi);
      List.iter
        (fun jobs ->
          (* Uncached and cached reps interleave until ~3 s of wall clock
             is spent (at least 5 pairs, at most 30); each side keeps its
             fastest rep.  Every rep starts from cold process-wide
             tables, so the cached column measures what one sweep's
             memoization buys, not leftovers of a previous rep. *)
          let one ~cache () =
            Noc_cache.Memo.clear_all ();
            wall (fun () ->
                Synth.run ~options:(options ~cache ~jobs) config bsoc vi)
          in
          let sides =
            Harness.interleaved ~min_rounds:5 ~max_rounds:30 ~budget_s:3.0
              ~signature:result_signature
              [| one ~cache:false; one ~cache:true |]
          in
          let off = sides.(0) and on_ = sides.(1) in
          (* every rep must agree with the first, cached or not *)
          let identical =
            off.Harness.reproducible && on_.Harness.reproducible
            && result_signature off.Harness.first
               = result_signature on_.Harness.first
          in
          let speedup = Harness.median_ratio off on_ in
          Printf.printf "%-6s %5d %12.3f %12.3f %8.2fx  %s\n%!" name jobs
            off.Harness.best_s on_.Harness.best_s speedup
            (if identical then "identical" else "MISMATCH");
          assert identical;
          if name = "d36" && jobs = 1 && speedup < 1.0 then
            gate_failed := true;
          rows :=
            J.Obj
              [
                ("benchmark", J.String name);
                ("jobs", J.Int jobs);
                ("uncached_s", J.Float off.Harness.best_s);
                ("cached_s", J.Float on_.Harness.best_s);
                ("speedup", J.Float speedup);
                ("identical", J.Bool identical);
              ]
            :: !rows)
        [ 1; 4 ])
    [ "d36"; "d48" ];
  Harness.write_json "BENCH_sweep.json" ~kind:"bench_sweep"
    [
      ("cache_counters", Harness.counters [ "cache." ]);
      ("rows", J.List (List.rev !rows));
    ];
  if !gate_failed then begin
    Printf.printf "FAIL: cached d36 sequential sweep slower than uncached\n";
    exit 1
  end

(* ---------------- EXP-SCALE: the routing core at scale ---------------- *)

(* Whole synthesis sweeps on one domain at d48, d128 and d256: the best
   wall time over a few reps, candidates/s, minor words per candidate
   (from the [synth.run.minor_words] counter of the last rep — sequential
   runs, so the Gc delta is attributable), hop costs per A* search (the
   [path_alloc.hop_costs] and [path_alloc.searches] counters) and the
   result digest.  Every rep starts from cold process-wide tables.
   Gates: every rep reproduces the first rep's full [result_signature],
   and d128 allocates at most [scale_words_budget] minor words per
   candidate.  No speed gate: the parent-vs-change comparison belongs to
   perfbench's [cold] workload, which interleaves both builds on one
   host, while a bound against committed figures would trip on host
   drift alone.  A count cannot drift with the host. *)

(* d128 may allocate at most this many minor words per candidate.  The
   closed-form hop kernel reads ~174k; the per-state hop memo it replaced
   read ~758k. *)
let scale_words_budget = 225_000.0

let scale () =
  section
    "EXP-SCALE: routing core at d48/d128/d256 (writes BENCH_scale.json; \
     every rep must reproduce the first, d128 allocation gated)";
  let gate_failed = ref false in
  let rows = ref [] in
  let options = { Synth.Options.default with Synth.Options.domains = Some 1 } in
  let counter = Noc_exec.Metrics.counter_value in
  Printf.printf "%-6s %5s %9s %11s %12s %11s  %-32s  %s\n" "bench" "reps"
    "best s" "cand/s" "words/cand" "hops/search" "result digest" "reps agree";
  let measure name ~min_reps ~max_reps ~budget_s =
    let case = Bench_case.find name in
    let words = ref 0 and hops = ref 0 and searches = ref 0 in
    let one () =
      Noc_cache.Memo.clear_all ();
      let w0 = counter "synth.run.minor_words" in
      let h0 = counter "path_alloc.hop_costs" in
      let s0 = counter "path_alloc.searches" in
      let t, r =
        wall (fun () ->
            Synth.run ~options config case.Bench_case.soc
              case.Bench_case.default_vi)
      in
      words := counter "synth.run.minor_words" - w0;
      hops := counter "path_alloc.hop_costs" - h0;
      searches := counter "path_alloc.searches" - s0;
      (t, r)
    in
    let side =
      (Harness.interleaved ~min_rounds:min_reps ~max_rounds:max_reps ~budget_s
         ~signature:result_signature [| one |]).(0)
    in
    let cands = side.Harness.first.Synth.candidates_tried in
    let per_cand = float_of_int !words /. float_of_int (max cands 1) in
    let per_search = float_of_int !hops /. float_of_int (max !searches 1) in
    let digest = Noc_serve.Serve.Codec.result_digest side.Harness.first in
    let reps = List.length side.Harness.times in
    Printf.printf "%-6s %5d %9.3f %11.0f %12.0f %11.1f  %-32s  %s\n%!" name reps
      side.Harness.best_s
      (float_of_int cands /. side.Harness.best_s)
      per_cand per_search digest
      (if side.Harness.reproducible then "yes" else "MISMATCH");
    if not side.Harness.reproducible then begin
      Printf.printf "FAIL: EXP-SCALE %s: a rep differs from the first\n" name;
      gate_failed := true
    end;
    if name = "d128" && per_cand > scale_words_budget then begin
      Printf.printf
        "FAIL: EXP-SCALE d128 allocates %.0f minor words per candidate \
         (gate: %.0f)\n"
        per_cand scale_words_budget;
      gate_failed := true
    end;
    rows :=
      J.Obj
        [
          ("benchmark", J.String name);
          ("reps", J.Int reps);
          ("wall_s", J.Float side.Harness.best_s);
          ("candidates", J.Int cands);
          ("candidates_per_s", J.Float (float_of_int cands /. side.Harness.best_s));
          ("minor_words_per_candidate", J.Float per_cand);
          ("searches", J.Int !searches);
          ("hop_costs_per_search", J.Float per_search);
          ("result_digest", J.String digest);
          ("reproducible", J.Bool side.Harness.reproducible);
        ]
      :: !rows
  in
  (* warm-up so first-touch allocation of the routing scratch hits no rep *)
  (let d48 = Bench_case.find "d48" in
   ignore
     (Synth.run ~options config d48.Bench_case.soc d48.Bench_case.default_vi));
  measure "d48" ~min_reps:5 ~max_reps:20 ~budget_s:4.0;
  measure "d128" ~min_reps:3 ~max_reps:3 ~budget_s:0.0;
  measure "d256" ~min_reps:2 ~max_reps:2 ~budget_s:0.0;
  Harness.write_json "BENCH_scale.json" ~kind:"bench_scale"
    [
      ("d128_words_budget", J.Float scale_words_budget);
      ("rows", J.List (List.rev !rows));
    ];
  if !gate_failed then exit 1

(* ---------------- EXP-DELTA: incremental re-synthesis ---------------- *)

(* Single-edit rerun vs from-scratch run on the edited spec, per delta
   kind on d36.  Always-on toggles and core frequency edits dirty no
   synthesis stage, so the rerun resolves every candidate from the
   evaluation memo — that is the headline speedup the gate enforces;
   flow and island-membership edits recompute most of the sweep and are
   reported honestly (their gate is only "no slower than fresh"). *)
let delta () =
  let module Delta = Noc_spec.Delta in
  section
    "EXP-DELTA: single-edit incremental re-synthesis vs fresh run on d36 \
     (writes BENCH_delta.json; rerun must be bit-identical to fresh, \
     always-on toggles at least 5x faster)";
  let case = Bench_case.find "d36" in
  let bsoc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
  let options = { Synth.Options.default with Synth.Options.domains = Some 1 } in
  let max_bw = Flow.max_bandwidth bsoc.Noc_spec.Soc_spec.flows in
  let cool_flow =
    List.find
      (fun f -> f.Flow.bandwidth_mbps < max_bw)
      bsoc.Noc_spec.Soc_spec.flows
  in
  let movable_core =
    let sizes = Vi.island_sizes vi in
    let rec go c = if sizes.(vi.Vi.of_core.(c)) > 1 then c else go (c + 1) in
    go 0
  in
  let kinds =
    [
      ( "set_always_on",
        [ Delta.Set_always_on { island = 1; always_on = true } ] );
      ( "set_core_freq",
        [ Delta.Set_core_freq { core = 0; freq_mhz = 600.0 } ] );
      ( "set_flow_bandwidth",
        [
          Delta.Set_flow_bandwidth
            {
              src = cool_flow.Flow.src;
              dst = cool_flow.Flow.dst;
              bandwidth_mbps = cool_flow.Flow.bandwidth_mbps *. 0.9;
            };
        ] );
      ( "move_core",
        [
          Delta.Move_core
            {
              core = movable_core;
              island =
                (vi.Vi.of_core.(movable_core) + 1) mod vi.Vi.islands;
            };
        ] );
    ]
  in
  let gate_failed = ref false in
  let rows = ref [] in
  Printf.printf "%-20s %12s %12s %9s  %s\n" "delta kind" "fresh s" "rerun s"
    "speedup" "identical";
  List.iter
    (fun (kind, chain) ->
      let soc', vi' = Delta.apply_all (bsoc, vi) chain in
      (* Interleaved pairs, as in EXP-SWEEP: each rep measures (a) a
         from-scratch run on the edited spec from cold tables, then (b)
         a [Synth.rerun] against a freshly re-warmed base — clearing the
         tables in between so the rerun can only reuse what base-spec
         warming (not the fresh edited run) put there.  Best-of filters
         GC noise, median-of-ratios filters drift. *)
      let fresh () =
        Noc_cache.Memo.clear_all ();
        wall (fun () -> Synth.run ~options config soc' vi')
      in
      let rerun () =
        Noc_cache.Memo.clear_all ();
        let prev = Synth.run ~options config bsoc vi in
        let t, (_, r) =
          wall (fun () ->
              Synth.rerun ~options ~prev ~delta:chain config bsoc vi)
        in
        (t, r)
      in
      let sides =
        Harness.interleaved ~min_rounds:5 ~max_rounds:20 ~budget_s:3.0
          ~signature:result_signature [| fresh; rerun |]
      in
      let fresh = sides.(0) and rerun = sides.(1) in
      (* bit-identity across reps of each side and across the two sides *)
      let identical =
        fresh.Harness.reproducible && rerun.Harness.reproducible
        && result_signature fresh.Harness.first
           = result_signature rerun.Harness.first
      in
      let speedup = Harness.median_ratio fresh rerun in
      Printf.printf "%-20s %12.4f %12.4f %8.2fx  %s\n%!" kind
        fresh.Harness.best_s rerun.Harness.best_s speedup
        (if identical then "identical" else "MISMATCH");
      assert identical;
      (* Gates: the clean kinds must deliver the headline speedup (every
         candidate comes from the evaluation memo); the recompute-heavy
         kinds only reuse untouched islands' clocks and partitions, so
         their ratio sits near 1 and gets a 10% noise margin — the gate
         there is "no real regression", not "faster". *)
      let floor =
        match kind with
        | "set_always_on" -> 5.0
        | "set_core_freq" -> 1.0
        | _ -> 0.9
      in
      if speedup < floor then begin
        Printf.printf "FAIL: %s rerun %.2fx vs fresh (gate: %.1fx)\n" kind
          speedup floor;
        gate_failed := true
      end;
      rows :=
        J.Obj
          [
            ("kind", J.String kind);
            ("benchmark", J.String "d36");
            ("fresh_s", J.Float fresh.Harness.best_s);
            ("rerun_s", J.Float rerun.Harness.best_s);
            ("speedup", J.Float speedup);
            ("identical", J.Bool identical);
          ]
        :: !rows)
    kinds;
  Harness.write_json "BENCH_delta.json" ~kind:"bench_delta"
    [
      ("cache_counters", Harness.counters [ "cache." ]);
      ("rows", J.List (List.rev !rows));
    ];
  if !gate_failed then exit 1

(* ---------------- EXP-SCEN: multi-scenario synthesis ---------------- *)

(* One topology across usage modes on d36 (writes BENCH_scenario.json).
   Gates: (a) the selected point verifies in every scenario's shutdown
   state, (b) its duty-weighted system power never exceeds the naive
   union-spec baseline (the union sweep's best-power point judged on the
   same metric), (c) the full scenarios_result is bit-identical across
   repetitions, worker counts and scenario-list permutations, (d) a
   scenario-weight edit re-scores without re-synthesizing
   (Synth.rerun_scenarios reuses the union sweep verbatim), and (e) one
   Synth.score_scenarios call on the union allocates at most
   [score_words_budget] minor words. *)

(* One scoring pass over d36's union sweep (54 points, four scenarios)
   may allocate at most this many minor words: a count, so host speed
   cannot trip it.  Measured 77k once scoring became one topology pass
   per point; the per-(scenario, island) walks and per-flow projection it
   replaced took 886k. *)
let score_words_budget = 100_000.0

let scenario_bench () =
  let module Delta = Noc_spec.Delta in
  section
    "EXP-SCEN: multi-scenario synthesis on d36 (writes BENCH_scenario.json; \
     all scenarios must verify, weighted power <= union baseline, \
     bit-identical across reps/jobs/permutations)";
  let case = Bench_case.find "d36" in
  let bsoc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
  let scenarios = case.Bench_case.scenarios in
  let eval_signature (e : Synth.scenario_eval) =
    ( e.Synth.scenario.Scenario.name,
      e.Synth.gated,
      e.Synth.active_flows,
      e.Synth.parked_flows,
      Int64.bits_of_float e.Synth.power_mw,
      Result.is_ok e.Synth.verified )
  in
  let signature (sr : Synth.scenarios_result) =
    ( result_signature sr.Synth.union,
      point_signature sr.Synth.best,
      Int64.bits_of_float sr.Synth.weighted_power_mw,
      Int64.bits_of_float sr.Synth.union_baseline_mw,
      List.map eval_signature sr.Synth.evals )
  in
  let digest sr = Digest.to_hex (Noc_cache.Memo.digest (signature sr)) in
  let run ~jobs ~scenarios =
    Noc_cache.Memo.clear_all ();
    let options =
      { Synth.Options.default with Synth.Options.domains = Some jobs }
    in
    wall (fun () -> Synth.run_scenarios ~options config bsoc vi ~scenarios)
  in
  let runs =
    List.map
      (fun (label, jobs, scenarios) ->
        let t, sr = run ~jobs ~scenarios in
        Printf.printf "%-18s %8.3f s  digest %s\n%!" label t (digest sr);
        (label, t, sr))
      [
        ("jobs=1 rep 1", 1, scenarios);
        ("jobs=1 rep 2", 1, scenarios);
        ("jobs=4", 4, scenarios);
        ("jobs=1 reversed", 1, List.rev scenarios);
      ]
  in
  let _, _, sr = List.hd runs in
  let deterministic =
    List.for_all (fun (_, _, r) -> digest r = digest sr) runs
  in
  let all_feasible =
    List.for_all
      (fun (e : Synth.scenario_eval) -> Result.is_ok e.Synth.verified)
      sr.Synth.evals
  in
  (* (e): the minor words of one warm scoring pass, which must also
     reproduce the full run's selection *)
  let score () =
    Synth.score_scenarios config bsoc vi ~scenarios sr.Synth.union
  in
  ignore (score ());
  let w0 = Gc.minor_words () in
  let rescored = score () in
  let score_minor_words = Gc.minor_words () -. w0 in
  let deterministic = deterministic && digest rescored = digest sr in
  Printf.printf "%-18s %8.0f minor words (budget %.0f)\n%!" "score_scenarios"
    score_minor_words score_words_budget;
  let beats_baseline =
    sr.Synth.weighted_power_mw <= sr.Synth.union_baseline_mw +. 1e-9
  in
  (* (d): halving one duty cycle is synthesis-clean — the union sweep
     must be reused verbatim (physical equality), only the duty-weighted
     scoring pass re-runs *)
  let first = List.hd (Scenario.canonical scenarios) in
  let edit =
    [
      Delta.Set_scenario_duty
        {
          scenario = first.Scenario.name;
          duty = first.Scenario.duty *. 0.5;
        };
    ]
  in
  let rescores_before =
    Noc_exec.Metrics.counter_value "synth.scenario_rescore"
  in
  let options = { Synth.Options.default with Synth.Options.domains = Some 1 } in
  let t_rescore, (_bundle, sr_edit) =
    wall (fun () ->
        Synth.rerun_scenarios ~options ~prev:sr ~delta:edit config bsoc vi
          ~scenarios)
  in
  let rescore_reuses_union =
    Noc_exec.Metrics.counter_value "synth.scenario_rescore" > rescores_before
    && sr_edit.Synth.union == sr.Synth.union
  in
  Printf.printf "%-18s %8.3f s  (duty edit: union sweep %s)\n%!" "rescore"
    t_rescore
    (if rescore_reuses_union then "reused" else "RECOMPUTED");
  List.iter
    (fun (e : Synth.scenario_eval) ->
      Printf.printf
        "  %-18s duty %4.2f  gated [%s]  %3d active / %3d parked  %8.1f mW  \
         %s\n"
        e.Synth.scenario.Scenario.name e.Synth.scenario.Scenario.duty
        (String.concat "," (List.map string_of_int e.Synth.gated))
        e.Synth.active_flows e.Synth.parked_flows e.Synth.power_mw
        (if Result.is_ok e.Synth.verified then "verified" else "FAILED"))
    sr.Synth.evals;
  let saving =
    if sr.Synth.union_baseline_mw > 0. then
      100.
      *. (sr.Synth.union_baseline_mw -. sr.Synth.weighted_power_mw)
      /. sr.Synth.union_baseline_mw
    else 0.
  in
  Printf.printf
    "weighted %.1f mW, union baseline %.1f mW (%.2f%% better), %s, %s\n%!"
    sr.Synth.weighted_power_mw sr.Synth.union_baseline_mw saving
    (if all_feasible then "all scenarios verified"
     else "SCENARIO VERIFICATION FAILED")
    (if deterministic then "deterministic" else "NON-DETERMINISTIC");
  let eval_json (e : Synth.scenario_eval) =
    J.Obj
      [
        ("name", J.String e.Synth.scenario.Scenario.name);
        ("duty", J.Float e.Synth.scenario.Scenario.duty);
        ("gated_islands", J.List (List.map (fun i -> J.Int i) e.Synth.gated));
        ("active_flows", J.Int e.Synth.active_flows);
        ("parked_flows", J.Int e.Synth.parked_flows);
        ("power_mw", J.Float e.Synth.power_mw);
        ("feasible", J.Bool (Result.is_ok e.Synth.verified));
      ]
  in
  let rows =
    List.map
      (fun (label, t, r) ->
        J.Obj
          [
            ("label", J.String label);
            ("wall_s", J.Float t);
            ("digest", J.String (digest r));
          ])
      runs
  in
  Harness.write_json "BENCH_scenario.json" ~kind:"bench_scenario"
    [
      ("benchmark", J.String "d36");
      ("scenarios", J.Int (List.length sr.Synth.evals));
      ("scenario_digest", J.String (Scenario.digest scenarios));
      ("weighted_power_mw", J.Float sr.Synth.weighted_power_mw);
      ("union_baseline_mw", J.Float sr.Synth.union_baseline_mw);
      ("saving_pct", J.Float saving);
      ("all_feasible", J.Bool all_feasible);
      ("beats_baseline", J.Bool beats_baseline);
      ("deterministic", J.Bool deterministic);
      ("rescore_reuses_union", J.Bool rescore_reuses_union);
      ("rescore_s", J.Float t_rescore);
      ("score_minor_words", J.Float score_minor_words);
      ("result_digest", J.String (digest sr));
      ("evals", J.List (List.map eval_json sr.Synth.evals));
      ("rows", J.List rows);
    ];
  let gate name ok =
    if not ok then Printf.printf "FAIL: %s\n" name;
    not ok
  in
  let failed =
    [
      gate "a scenario failed verification on the selected point" all_feasible;
      gate "weighted power exceeds the union-spec baseline" beats_baseline;
      gate "results differ across reps/jobs/permutations" deterministic;
      gate "duty-cycle edit re-synthesized instead of re-scoring"
        rescore_reuses_union;
      gate
        (Printf.sprintf "one scoring pass allocated %.0f minor words (budget %.0f)"
           score_minor_words score_words_budget)
        (score_minor_words <= score_words_budget);
    ]
  in
  if List.exists Fun.id failed then exit 1

(* ---------------- EXP-SERVE: synthesis as a service ---------------- *)

(* The in-process cost of one memo answer: [Serve.handle_line] on a d48
   [synth] request already in the daemon's memo, with no socket.  Returns
   the median microseconds per answer over [reps] timed answers, and the
   minor words one answer allocates, averaged over [reps] more. *)
let memo_answer_cost ~reps =
  let module Serve = Noc_serve.Serve in
  let state = Serve.create_state (Serve.default_config ~socket_path:"") in
  let scratch = Noc_cache.Memo.create "bench.serve.scratch" in
  let line =
    J.to_string
      (J.document ~kind:Serve.schema_request
         [ ("op", J.String "synth"); ("benchmark", J.String "d48") ])
  in
  let answer () = fst (Serve.handle_line state ~scratch line) in
  let source_of response =
    match J.of_string response with
    | Ok doc -> (match J.member "source" doc with Some (J.String s) -> s | _ -> "")
    | Error _ -> ""
  in
  let first = source_of (answer ()) in
  let warm = source_of (answer ()) in
  if first <> "computed" || warm <> "memo" then
    failwith
      (Printf.sprintf "memo answer cost: d48 answered from %s, then %s" first warm);
  let times =
    List.init reps (fun _ ->
        let t0 = Noc_exec.Metrics.now_ns () in
        ignore (answer ());
        Int64.to_float (Int64.sub (Noc_exec.Metrics.now_ns ()) t0) /. 1e3)
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (answer ())
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int reps in
  Noc_cache.Memo.unregister scratch;
  (Harness.median times, words)

(* A memo answer may allocate at most this many minor words: a count, so
   host speed cannot trip it. *)
let memo_words_budget = 500.0

(* Drive a real daemon — spawned in a sibling domain, spoken to over its
   Unix socket — with the request mix a long-lived service sees: one
   cold spec, a daemon restart (proving the store's persistence: the
   first repeat after the restart is answered from disk), a burst of
   exact repeats (answered from the in-process result cache), a
   near-repeat delta, a second cold spec, and hostile input.  Warm
   repeats must be bit-identical to a fresh local run and at least 50x
   faster than the cold request (both sides measured with the daemon's
   own per-request clock, which is immune to client-side scheduling
   noise); the daemon must answer the malformed line and the invalid
   request with error documents and still be alive afterwards.  Writes
   BENCH_serve.json. *)
let serve () =
  let module Serve = Noc_serve.Serve in
  section
    "EXP-SERVE: daemon + persistent store, repeat/near-repeat/cold mix on \
     d26 (writes BENCH_serve.json; warm store hits must be >= 50x faster \
     than cold and bit-identical)";
  let dir = Harness.temp_dir "noc-serve-bench" in
  let socket_path = Filename.concat dir "serve.sock" in
  let store_dir = Filename.concat dir "store" in
  (* other experiments may have warmed the process-wide tables; the cold
     request must be genuinely cold *)
  Noc_cache.Memo.clear_all ();
  let spawn_daemon () =
    Domain.spawn (fun () ->
        Serve.run
          {
            (Serve.default_config ~socket_path) with
            Serve.store_dir = Some store_dir;
          })
  in
  let daemon = spawn_daemon () in
  let client = Serve.Client.connect ~retry_for:10.0 socket_path in
  let envelope fields = J.document ~kind:Serve.schema_request fields in
  let str name resp =
    match J.member name resp with
    | Some (J.String s) -> s
    | _ -> Printf.ksprintf failwith "response is missing string field %S" name
  in
  let int_f name resp =
    match J.member name resp with
    | Some (J.Int i) -> i
    | _ -> Printf.ksprintf failwith "response is missing int field %S" name
  in
  let synth_request =
    envelope [ ("op", J.String "synth"); ("benchmark", J.String "d26") ]
  in
  (* cold: first sight of the spec, synthesized across the domain pool *)
  let wall_cold, cold = wall (fun () -> Serve.Client.request client synth_request) in
  assert (str "status" cold = "ok");
  assert (str "source" cold = "computed");
  let cold_ns = int_f "elapsed_ns" cold in
  let digest = str "result_digest" cold in
  (* restart the daemon: its in-process result cache dies with it, the
     store directory does not — the first repeat a fresh daemon sees is
     answered from disk *)
  assert (
    str "status" (Serve.Client.request client (envelope [ ("op", J.String "shutdown") ]))
    = "ok");
  Serve.Client.close client;
  Domain.join daemon;
  let daemon = spawn_daemon () in
  let client = Serve.Client.connect ~retry_for:10.0 socket_path in
  let _, disk = wall (fun () -> Serve.Client.request client synth_request) in
  assert (str "status" disk = "ok");
  assert (str "source" disk = "store");
  assert (str "result_digest" disk = digest);
  let store_hit_ns = int_f "elapsed_ns" disk in
  (* warm burst: every further repeat comes from the in-process result
     cache the disk hit just populated, same digest *)
  let n_warm = 50 in
  let warm_ns = ref [] and warm_wall = ref [] in
  let burst_s, () =
    wall (fun () ->
        for _ = 1 to n_warm do
          let w, resp =
            wall (fun () -> Serve.Client.request client synth_request)
          in
          assert (str "status" resp = "ok");
          assert (str "source" resp = "memo");
          assert (str "result_digest" resp = digest);
          warm_ns := float_of_int (int_f "elapsed_ns" resp) :: !warm_ns;
          warm_wall := w :: !warm_wall
        done)
  in
  (* near-repeat: a clean delta chain (no synthesis stage reads the
     always-on bit) — the daemon aliases the base entry instead of
     re-synthesizing, so this answers from the store too *)
  let rerun_request =
    envelope
      [
        ("op", J.String "rerun");
        ("benchmark", J.String "d26");
        ( "deltas",
          J.List
            [
              J.Obj
                [
                  ("kind", J.String "set_always_on");
                  ("island", J.Int 1);
                  ("always_on", J.Bool true);
                ];
            ] );
      ]
  in
  let _, near = wall (fun () -> Serve.Client.request client rerun_request) in
  assert (str "status" near = "ok");
  let near_source = str "source" near in
  let near_ns = int_f "elapsed_ns" near in
  (* second cold spec in the mix: same SoC, different partitioning *)
  let cold2_request =
    envelope
      [
        ("op", J.String "synth");
        ("benchmark", J.String "d26");
        ("islands", J.Int 4);
      ]
  in
  let _, cold2 = wall (fun () -> Serve.Client.request client cold2_request) in
  assert (str "status" cold2 = "ok");
  assert (str "source" cold2 = "computed");
  let cold2_ns = int_f "elapsed_ns" cold2 in
  (* hostile input: neither a malformed line nor an invalid request may
     take the daemon down — both are answered as error documents and the
     next ping succeeds *)
  let malformed_ok =
    match J.of_string (Serve.Client.request_line client "this is not json") with
    | Ok resp -> str "status" resp = "error"
    | Error _ -> false
  in
  let invalid_ok =
    let resp =
      Serve.Client.request client
        (envelope
           [ ("op", J.String "synth"); ("benchmark", J.String "no-such-soc") ])
    in
    str "status" resp = "error"
  in
  let ping_ok =
    str "status" (Serve.Client.request client (envelope [ ("op", J.String "ping") ]))
    = "ok"
  in
  let survived = malformed_ok && invalid_ok && ping_ok in
  let metrics =
    Serve.Client.request client (envelope [ ("op", J.String "metrics") ])
  in
  let store_entries = int_f "store_entries" metrics in
  assert (
    str "status" (Serve.Client.request client (envelope [ ("op", J.String "shutdown") ]))
    = "ok");
  Serve.Client.close client;
  Domain.join daemon;
  (* bit-identity anchor: a fresh local run of the same request *)
  let case = Bench_case.find "d26" in
  let local =
    Synth.run ~options:Synth.Options.default config case.Bench_case.soc
      case.Bench_case.default_vi
  in
  let identical = Serve.Codec.result_digest local = digest in
  let memo_us, memo_words = memo_answer_cost ~reps:2000 in
  let warm_p50 = Harness.percentile 50.0 !warm_ns
  and warm_p99 = Harness.percentile 99.0 !warm_ns in
  let speedup = float_of_int cold_ns /. warm_p50 in
  let req_s = float_of_int n_warm /. burst_s in
  Printf.printf "%-28s %14s\n" "request" "in-daemon";
  Printf.printf "%-28s %11.3f ms   (client wall %.3f s)\n" "cold synth (d26)"
    (float_of_int cold_ns /. 1e6) wall_cold;
  Printf.printf "%-28s %11.3f ms   (first repeat after restart)\n"
    "store hit (disk)"
    (float_of_int store_hit_ns /. 1e6);
  Printf.printf "%-28s %11.3f ms   (p99 %.3f ms, %.0f req/s)\n"
    (Printf.sprintf "warm repeat p50 (of %d)" n_warm)
    (warm_p50 /. 1e6) (warm_p99 /. 1e6) req_s;
  Printf.printf "%-28s %11.3f ms   (source: %s)\n" "near-repeat clean delta"
    (float_of_int near_ns /. 1e6) near_source;
  Printf.printf "%-28s %11.3f ms\n" "cold synth (d26, 4 islands)"
    (float_of_int cold2_ns /. 1e6);
  Printf.printf "%-28s %11.3f ms   (%.0f minor words; in-process, no socket)\n"
    "memo answer (d48)" (memo_us /. 1e3) memo_words;
  Printf.printf "store speedup %.1fx   identical %b   survived %b   \
                 store entries %d\n%!"
    speedup identical survived store_entries;
  Harness.write_json "BENCH_serve.json" ~kind:"bench_serve"
    [
      ("benchmark", J.String "d26");
      ("cold_ns", J.Int cold_ns);
      ("cold_wall_s", J.Float wall_cold);
      ("store_hit_ns", J.Int store_hit_ns);
      ( "store_hit_speedup",
        J.Float (float_of_int cold_ns /. float_of_int store_hit_ns) );
      ("warm_requests", J.Int n_warm);
      ("warm_p50_ns", J.Float warm_p50);
      ("warm_p99_ns", J.Float warm_p99);
      ("warm_req_per_s", J.Float req_s);
      ("near_repeat_ns", J.Int near_ns);
      ("near_repeat_source", J.String near_source);
      ("cold2_ns", J.Int cold2_ns);
      ("speedup", J.Float speedup);
      ("identical", J.Bool identical);
      ("survived_malformed", J.Bool malformed_ok);
      ("survived_invalid", J.Bool invalid_ok);
      ("survived", J.Bool survived);
      ("store_entries", J.Int store_entries);
      ("memo_handle_us", J.Float memo_us);
      ("memo_minor_words", J.Float memo_words);
      ("counters", Harness.counters [ "store."; "serve." ]);
    ];
  (try Harness.rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ());
  let fail = ref false in
  if speedup < 50.0 then begin
    Printf.printf "FAIL: warm store hit only %.1fx faster than cold (gate: 50x)\n"
      speedup;
    fail := true
  end;
  if not identical then begin
    Printf.printf "FAIL: served result digest differs from a fresh local run\n";
    fail := true
  end;
  if memo_words > memo_words_budget then begin
    Printf.printf "FAIL: a d48 memo answer allocates %.0f minor words (gate: %.0f)\n"
      memo_words memo_words_budget;
    fail := true
  end;
  if not survived then begin
    Printf.printf
      "FAIL: daemon did not answer hostile input gracefully \
       (malformed %b, invalid %b, ping %b)\n"
      malformed_ok invalid_ok ping_ok;
    fail := true
  end;
  if !fail then exit 1

(* ---------------- EXP-CHAOS: hostile-mix robustness ---------------- *)

(* EXP-CHAOS hammers the concurrent daemon with the full hostile mix —
   slow-writing clients, mid-request disconnects, malformed frames,
   deadline-exceeding requests, a concurrent store-corrupting writer,
   saturation beyond the queue, a forced drain — and gates on the
   robustness contracts: the daemon never dies, every warm answer stays
   bit-identical to the quiet run (no cross-request contamination, even
   after restarting on the corrupted store), shed connections are
   answered [overloaded] within a latency bound, and warm p99 with a
   concurrent cold request stays within 5x of the quiet p99 (the
   head-of-line fix, measured).  Writes BENCH_chaos.json. *)
let chaos () =
  let module Serve = Noc_serve.Serve in
  section
    "EXP-CHAOS: concurrent daemon under a hostile client mix (writes \
     BENCH_chaos.json; daemon must survive, digests must stay \
     bit-identical, shed and head-of-line latency gated)";
  let dir = Harness.temp_dir "noc-chaos-bench" in
  let socket_path = Filename.concat dir "serve.sock" in
  let store_dir = Filename.concat dir "store" in
  Noc_cache.Memo.clear_all ();
  let workers = 4 and queue_capacity = 4 in
  let daemon_config =
    {
      (Serve.default_config ~socket_path) with
      Serve.store_dir = Some store_dir;
      workers;
      queue_capacity;
      drain_ms = 1_000;
      retry_after_ms = 40;
    }
  in
  let spawn_daemon () = Domain.spawn (fun () -> Serve.run daemon_config) in
  let envelope fields = J.document ~kind:Serve.schema_request fields in
  let str name resp =
    match J.member name resp with
    | Some (J.String s) -> s
    | _ -> Printf.ksprintf failwith "response is missing string field %S" name
  in
  let code resp = match J.member "code" resp with
    | Some (J.String c) -> c
    | _ -> ""
  in
  (* every request on its own connection: the accept -> queue -> worker
     path is exactly where head-of-line blocking and shedding live *)
  let one_shot ?(retries = 0) request =
    wall (fun () ->
        if retries = 0 then begin
          let c = Serve.Client.connect ~retry_for:10.0 socket_path in
          Fun.protect
            ~finally:(fun () -> Serve.Client.close c)
            (fun () -> Serve.Client.request c request)
        end
        else
          Serve.Client.request_with_retry ~retries ~connect_for:10.0
            socket_path request)
  in
  let read_line_fd fd =
    let buf = Buffer.create 256 in
    let byte = Bytes.create 1 in
    let rec go () =
      match Unix.read fd byte 0 1 with
      | 0 -> Buffer.contents buf
      | _ ->
        if Bytes.get byte 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get byte 0);
          go ()
        end
      | exception Unix.Unix_error _ -> Buffer.contents buf
    in
    go ()
  in
  let entry_files () =
    match Sys.readdir store_dir with
    | exception Sys_error _ -> []
    | shards ->
      Array.to_list shards
      |> List.concat_map (fun shard ->
             let p = Filename.concat store_dir shard in
             if String.length shard = 2 && Sys.is_directory p then
               Sys.readdir p |> Array.to_list
               |> List.filter (fun f -> not (Filename.check_suffix f ".tmp"))
               |> List.map (fun f -> Filename.concat p f)
             else [])
  in
  let warm_request =
    envelope [ ("op", J.String "synth"); ("benchmark", J.String "d12") ]
  in
  let ping = envelope [ ("op", J.String "ping") ] in
  let shutdown = envelope [ ("op", J.String "shutdown") ] in

  (* ---- phase 1: quiet baseline ---- *)
  let daemon = spawn_daemon () in
  let _, cold = one_shot warm_request in
  assert (str "status" cold = "ok");
  assert (str "source" cold = "computed");
  let digest = str "result_digest" cold in
  let n_warm = 40 in
  let quiet_wall = ref [] in
  for _ = 1 to n_warm do
    let w, resp = one_shot warm_request in
    assert (str "status" resp = "ok");
    assert (str "result_digest" resp = digest);
    quiet_wall := w :: !quiet_wall
  done;
  let quiet_p50 = Harness.percentile 50.0 !quiet_wall
  and quiet_p99 = Harness.percentile 99.0 !quiet_wall in

  (* ---- phase 2: head-of-line — warm burst racing a cold request ---- *)
  let cold_request =
    envelope [ ("op", J.String "synth"); ("benchmark", J.String "d26") ]
  in
  let cold_racer = Domain.spawn (fun () -> one_shot cold_request) in
  Unix.sleepf 0.05;
  let concurrent_wall = ref [] in
  for _ = 1 to n_warm do
    let w, resp = one_shot warm_request in
    assert (str "status" resp = "ok");
    assert (str "result_digest" resp = digest);
    concurrent_wall := w :: !concurrent_wall
  done;
  let hol_cold_wall, hol_cold = Domain.join cold_racer in
  assert (str "status" hol_cold = "ok");
  let concurrent_p99 = Harness.percentile 99.0 !concurrent_wall in
  (* the bound has a 25 ms floor so micro-jitter on a sub-ms quiet p99
     cannot fail the gate *)
  let hol_bound = Float.max (5.0 *. quiet_p99) 0.025 in
  let hol_ok = concurrent_p99 <= hol_bound in

  (* ---- phase 3: the hostile fleet, all at once ---- *)
  let slow_writer () =
    (* drips a valid ping at ~2 ms per byte: occupies a worker's
       [input_line] without ever being invalid *)
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let line = J.to_string ping ^ "\n" in
      String.iter
        (fun ch ->
          ignore (Unix.write_substring fd (String.make 1 ch) 0 1);
          Unix.sleepf 0.002)
        line;
      let response = read_line_fd fd in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      (match J.of_string response with
      | Ok resp -> str "status" resp = "ok"
      | Error _ -> false)
    with Unix.Unix_error _ | Sys_error _ -> false
  in
  let disconnector () =
    (* half a request, then vanish, repeatedly *)
    (try
       for _ = 1 to 10 do
         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         Unix.connect fd (Unix.ADDR_UNIX socket_path);
         let partial = "{\"schema\": \"serve_request\", \"op" in
         (try
            ignore
              (Unix.write_substring fd partial 0 (String.length partial))
          with Unix.Unix_error _ -> ());
         (try Unix.close fd with Unix.Unix_error _ -> ());
         Unix.sleepf 0.005
       done
     with Unix.Unix_error _ | Sys_error _ -> ());
    true
  in
  let malformer () =
    try
      let results = ref true in
      for i = 1 to 10 do
        let c = Serve.Client.connect ~retry_for:10.0 socket_path in
        let frame =
          if i mod 2 = 0 then "][ not json at all \x00\xff"
          else "{\"schema\": \"serve_request\", \"schema_version\": 999}"
        in
        (match J.of_string (Serve.Client.request_line c frame) with
        | Ok resp -> if str "status" resp <> "error" then results := false
        | Error _ -> results := false);
        Serve.Client.close c
      done;
      !results
    with _ -> false
  in
  let deadliner () =
    (* cold sweeps (fresh seeds) under a 1 ms deadline: must be answered
       as typed [timeout] documents, and must poison nothing *)
    let answered = ref 0 and timeouts = ref 0 in
    for i = 1 to 3 do
      let request =
        envelope
          [
            ("op", J.String "synth");
            ("benchmark", J.String "d12");
            ("seed", J.Int (9000 + i));
            ("deadline_ms", J.Int 1);
          ]
      in
      match one_shot ~retries:6 request with
      | _, resp ->
        incr answered;
        if code resp = "timeout" then incr timeouts
      | exception _ -> ()
    done;
    (!answered, !timeouts)
  in
  let corruptor () =
    (* scribbles over live store entries and plants orphan temp files
       while traffic is in flight: nothing it does may ever be served *)
    let planted = ref 0 in
    for i = 1 to 50 do
      (try
         (match entry_files () with
         | [] -> ()
         | files ->
           let f = List.nth files (i mod List.length files) in
           Out_channel.with_open_bin f (fun oc ->
               Out_channel.output_string oc "CHAOS GARBAGE \x00\xde\xad"));
         if i mod 10 = 0 then begin
           match entry_files () with
           | [] -> ()
           | f :: _ ->
             let shard = Filename.dirname f in
             let tmp = Filename.temp_file ~temp_dir:shard ".wip" ".tmp" in
             Out_channel.with_open_bin tmp (fun oc ->
                 Out_channel.output_string oc "half-written");
             incr planted
         end
       with Sys_error _ | Unix.Unix_error _ -> ());
      Unix.sleepf 0.002
    done;
    !planted
  in
  let hammer () =
    (* honest warm traffic riding through the storm, with retry/backoff
       for the moments the fleet saturates the queue: every answer must
       carry the quiet run's digest *)
    try
      let ok = ref true in
      for _ = 1 to 15 do
        let _, resp = one_shot ~retries:8 warm_request in
        if not (str "status" resp = "ok" && str "result_digest" resp = digest)
        then ok := false
      done;
      !ok
    with _ -> false
  in
  let d_slow1 = Domain.spawn slow_writer in
  let d_slow2 = Domain.spawn slow_writer in
  let d_disc = Domain.spawn disconnector in
  let d_mal = Domain.spawn malformer in
  let d_dead = Domain.spawn deadliner in
  let d_corr = Domain.spawn corruptor in
  let d_ham1 = Domain.spawn hammer in
  let d_ham2 = Domain.spawn hammer in
  let slow_ok = Domain.join d_slow1 && Domain.join d_slow2 in
  let disc_ok = Domain.join d_disc in
  let malformed_ok = Domain.join d_mal in
  let deadline_answered, deadline_timeouts = Domain.join d_dead in
  let tmp_planted = Domain.join d_corr in
  let hammer_ok = Domain.join d_ham1 && Domain.join d_ham2 in
  let _, alive = one_shot ping in
  let alive_after_fleet = str "status" alive = "ok" in

  (* ---- phase 4: saturate and shed ---- *)
  (* hold every worker on an idle connection (the served ping proves
     ownership), fill the queue with idle connections, then probe: each
     further connection must be answered [overloaded] immediately *)
  let holders =
    List.init workers (fun _ ->
        let c = Serve.Client.connect ~retry_for:10.0 socket_path in
        assert (str "status" (Serve.Client.request c ping) = "ok");
        c)
  in
  let fillers =
    List.init queue_capacity (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        fd)
  in
  Unix.sleepf 0.3;
  let shed_probes = 5 in
  let shed_results =
    List.init shed_probes (fun _ ->
        let t0 = Noc_exec.Metrics.now_ns () in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket_path);
        let line = read_line_fd fd in
        let elapsed_ms =
          Int64.to_float (Int64.sub (Noc_exec.Metrics.now_ns ()) t0) /. 1e6
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        match J.of_string line with
        | Ok resp -> (code resp = "overloaded", elapsed_ms)
        | Error _ -> (false, elapsed_ms))
  in
  let shed_all_ok = List.for_all fst shed_results in
  let shed_max_ms =
    List.fold_left (fun acc (_, ms) -> Float.max acc ms) 0.0 shed_results
  in
  let shed_bound_ms = 250.0 in
  let shed_ok = shed_all_ok && shed_max_ms <= shed_bound_ms in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fillers;
  (match holders with
  | first :: rest ->
    List.iter Serve.Client.close rest;
    Unix.sleepf 0.1;
    assert (str "status" (Serve.Client.request first shutdown) = "ok");
    Serve.Client.close first
  | [] -> ());
  Domain.join daemon;

  (* ---- phase 5: restart on the corrupted store ---- *)
  (* scribble every surviving entry and age the planted temp orphans:
     the fresh daemon must sweep the orphans at startup, read the
     damage as clean misses, and recompute the identical result *)
  List.iter
    (fun f ->
      try
        Out_channel.with_open_bin f (fun oc ->
            Out_channel.output_string oc "POST-MORTEM GARBAGE")
      with Sys_error _ -> ())
    (entry_files ());
  let aged = Unix.gettimeofday () -. 3600.0 in
  (try
     Array.iter
       (fun shard ->
         let p = Filename.concat store_dir shard in
         if Sys.is_directory p then
           Array.iter
             (fun f ->
               if Filename.check_suffix f ".tmp" then
                 try Unix.utimes (Filename.concat p f) aged aged
                 with Unix.Unix_error _ -> ())
             (Sys.readdir p))
       (Sys.readdir store_dir)
   with Sys_error _ -> ());
  let tmp_gc0 = Noc_exec.Metrics.counter_value "store.tmp_gc" in
  let daemon = spawn_daemon () in
  let tmp_swept () =
    Noc_exec.Metrics.counter_value "store.tmp_gc" - tmp_gc0
  in
  let _, restarted = one_shot warm_request in
  let restart_status = str "status" restarted in
  let restart_source = if restart_status = "ok" then str "source" restarted else "" in
  let restart_digest_ok =
    restart_status = "ok" && str "result_digest" restarted = digest
  in
  let tmp_gc_swept = tmp_swept () in

  (* ---- phase 6: drain cancels a racing cold request ---- *)
  let drain_request =
    envelope
      [
        ("op", J.String "synth");
        ("benchmark", J.String "d26");
        ("islands", J.Int 4);
        ("seed", J.Int 777);
      ]
  in
  let racer = Domain.spawn (fun () -> one_shot drain_request) in
  Unix.sleepf 0.1;
  let _, stop = one_shot shutdown in
  assert (str "status" stop = "ok");
  let _, drained = Domain.join racer in
  let drain_status = str "status" drained in
  let drain_ok =
    drain_status = "ok" || (drain_status = "error" && code drained = "cancelled")
  in
  Domain.join daemon;

  (* ---- report and gates ---- *)
  let contamination_free = hammer_ok && restart_digest_ok in
  let survived =
    alive_after_fleet && slow_ok && disc_ok && malformed_ok
    && deadline_answered = 3 && drain_ok
  in
  Printf.printf "%-36s %8.3f ms (p50 %.3f ms)\n" "quiet warm p99 (client wall)"
    (quiet_p99 *. 1e3) (quiet_p50 *. 1e3);
  Printf.printf "%-36s %8.3f ms (bound %.1f ms, cold wall %.2f s)  %s\n"
    "concurrent warm p99" (concurrent_p99 *. 1e3) (hol_bound *. 1e3)
    hol_cold_wall
    (if hol_ok then "OK" else "FAIL");
  Printf.printf
    "fleet: slow %b  disconnects %b  malformed %b  deadlines %d/3 answered \
     (%d timeout)  hammer %b  alive %b\n"
    slow_ok disc_ok malformed_ok deadline_answered deadline_timeouts hammer_ok
    alive_after_fleet;
  Printf.printf "shed: %d probes, all overloaded %b, max %.1f ms (bound %.0f)\n"
    shed_probes shed_all_ok shed_max_ms shed_bound_ms;
  Printf.printf
    "restart on corrupted store: status %s source %s digest-identical %b, \
     %d orphan tmp swept (planted %d)\n"
    restart_status restart_source restart_digest_ok tmp_gc_swept tmp_planted;
  Printf.printf "drain: racer answered %s%s\n%!" drain_status
    (if drain_status = "error" then " (code " ^ code drained ^ ")" else "");
  Harness.write_json "BENCH_chaos.json" ~kind:"bench_chaos"
    [
      ("benchmark", J.String "d12");
      ("workers", J.Int workers);
      ("queue_capacity", J.Int queue_capacity);
      ("quiet_p50_ms", J.Float (quiet_p50 *. 1e3));
      ("quiet_p99_ms", J.Float (quiet_p99 *. 1e3));
      ("concurrent_p99_ms", J.Float (concurrent_p99 *. 1e3));
      ("hol_bound_ms", J.Float (hol_bound *. 1e3));
      ("hol_cold_wall_s", J.Float hol_cold_wall);
      ("hol_ok", J.Bool hol_ok);
      ("slow_writers_ok", J.Bool slow_ok);
      ("disconnects_ok", J.Bool disc_ok);
      ("malformed_ok", J.Bool malformed_ok);
      ("deadline_answered", J.Int deadline_answered);
      ("deadline_timeouts", J.Int deadline_timeouts);
      ("hammer_ok", J.Bool hammer_ok);
      ("alive_after_fleet", J.Bool alive_after_fleet);
      ("shed_probes", J.Int shed_probes);
      ("shed_all_overloaded", J.Bool shed_all_ok);
      ("shed_max_ms", J.Float shed_max_ms);
      ("shed_bound_ms", J.Float shed_bound_ms);
      ("shed_ok", J.Bool shed_ok);
      ("restart_status", J.String restart_status);
      ("restart_source", J.String restart_source);
      ("restart_digest_ok", J.Bool restart_digest_ok);
      ("tmp_planted", J.Int tmp_planted);
      ("tmp_gc_swept", J.Int tmp_gc_swept);
      ("drain_status", J.String drain_status);
      ("drain_ok", J.Bool drain_ok);
      ("contamination_free", J.Bool contamination_free);
      ("survived", J.Bool survived);
      ("counters", Harness.counters [ "store."; "serve." ]);
    ];
  (try Harness.rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ());
  let fail = ref false in
  if not survived then begin
    Printf.printf
      "FAIL: daemon did not survive the hostile mix cleanly (slow %b, \
       disconnects %b, malformed %b, deadlines %d/3, alive %b, drain %b)\n"
      slow_ok disc_ok malformed_ok deadline_answered alive_after_fleet
      drain_ok;
    fail := true
  end;
  if not contamination_free then begin
    Printf.printf
      "FAIL: cross-request contamination (hammer identical %b, restart \
       identical %b)\n"
      hammer_ok restart_digest_ok;
    fail := true
  end;
  if not shed_ok then begin
    Printf.printf
      "FAIL: shed requests not answered overloaded within %.0f ms \
       (all-overloaded %b, max %.1f ms)\n"
      shed_bound_ms shed_all_ok shed_max_ms;
    fail := true
  end;
  if not hol_ok then begin
    Printf.printf
      "FAIL: warm p99 %.3f ms with a concurrent cold request exceeds the \
       head-of-line bound %.3f ms (quiet p99 %.3f ms)\n"
      (concurrent_p99 *. 1e3) (hol_bound *. 1e3) (quiet_p99 *. 1e3);
    fail := true
  end;
  if deadline_timeouts < 1 then begin
    Printf.printf
      "FAIL: no deadline-exceeding request was answered with a typed \
       timeout (answered %d, timeouts %d)\n"
      deadline_answered deadline_timeouts;
    fail := true
  end;
  if !fail then exit 1

(* ---------------- Bechamel micro-benchmarks ---------------- *)

let speed () =
  section "kernel micro-benchmarks (Bechamel)";
  let open Bechamel in
  let vcg6 = Noc_spec.Vcg.build_all ~alpha:0.6 soc (logical_vi 6) in
  let biggest =
    Array.fold_left
      (fun acc v ->
        if Noc_spec.Vcg.size v > Noc_spec.Vcg.size acc then v else acc)
      vcg6.(0) vcg6
  in
  let tests =
    Test.make_grouped ~name:"kernels"
      [
        Test.make ~name:"EXP-F2 kway-partition (largest VCG)"
          (Staged.stage (fun () ->
               ignore
                 (Noc_partition.Kway.partition ~parts:2 ~max_block_weight:8.0
                    biggest.Noc_spec.Vcg.graph)));
        Test.make ~name:"EXP-F2 full-synthesis (D26, 6 VIs)"
          (Staged.stage (fun () ->
               ignore (Synth.run config soc (logical_vi 6))));
        Test.make ~name:"EXP-T1 baseline-synthesis (D26)"
          (Staged.stage (fun () -> ignore (Baseline.synthesize config soc)));
        Test.make ~name:"EXP-F5 placement+anneal (D26)"
          (Staged.stage (fun () ->
               let plan = Noc_floorplan.Placer.place soc (logical_vi 6) in
               ignore (Noc_floorplan.Anneal.improve soc (logical_vi 6) plan)));
        Test.make ~name:"EXP-SIM simulate-2k-cycles (D26, 6 VIs)"
          (Staged.stage
             (let best = Synth.best_power (logical_result 6) in
              fun () ->
                ignore
                  (Sim.run_at_load ~load:0.3 ~horizon:2_000.0 soc
                     (logical_vi 6) best.DP.topology)));
        Test.make ~name:"EXP-T2 leakage-report (D26)"
          (Staged.stage
             (let best = Synth.best_power (logical_result 6) in
              fun () ->
                ignore
                  (Shutdown.leakage_report config soc (logical_vi 6) best
                     ~scenarios:D26.scenarios)));
      ]
  in
  let cfg_bench =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg_bench [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  let print_row (name, ns) =
    if ns >= 1e6 then Printf.printf "%-50s %10.3f ms/run\n" name (ns /. 1e6)
    else if ns >= 1e3 then Printf.printf "%-50s %10.3f us/run\n" name (ns /. 1e3)
    else Printf.printf "%-50s %10.1f ns/run\n" name ns
  in
  List.iter print_row (List.sort compare rows)

let all_experiments =
  [
    ("fig2", fig2_fig3);
    ("fig3", fig2_fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("overhead", overhead);
    ("leakage", leakage);
    ("dse", dse);
    ("simcheck", simcheck);
    ("ablation", ablation);
    ("speed", speed);
    ("speedup", speedup);
    ("recovery", recovery);
    ("sweep", sweep);
    ("scale", scale);
    ("delta", delta);
    ("scenario", scenario_bench);
    ("serve", serve);
    ("chaos", chaos);
    ("faults", faults);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> args
    | _ ->
      [ "fig2"; "fig4"; "fig5"; "overhead"; "leakage"; "dse"; "simcheck";
        "ablation"; "speed" ]
  in
  let ran = Hashtbl.create 8 in
  List.iter
    (fun name ->
      match List.assoc_opt name all_experiments with
      | Some f ->
        (* fig2 and fig3 share one printer; run it once *)
        let key = if name = "fig3" then "fig2" else name in
        if not (Hashtbl.mem ran key) then begin
          Hashtbl.replace ran key ();
          f ()
        end
      | None ->
        Printf.eprintf "unknown experiment %s (have: %s)\n" name
          (String.concat ", " (List.map fst all_experiments));
        exit 2)
    requested
