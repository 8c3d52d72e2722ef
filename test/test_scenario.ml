(* The multi-scenario suite: typed validation of scenarios and scenario
   sets, the JSON and spec-bundle round-trips, the scenario delta kinds
   (apply_bundle semantics, dirty classification, envelope versioning),
   and the synthesis-facing guarantees of Synth.run_scenarios — every
   scenario verifies on the selected point, the duty-weighted power
   never exceeds the naive union-spec baseline, scenario-list
   permutations are bit-identical, and a scenario-only edit re-scores
   without re-synthesizing. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module Shutdown = Noc_synthesis.Shutdown
module DP = Noc_synthesis.Design_point
module Power = Noc_models.Power
module Metrics = Noc_exec.Metrics
module Memo = Noc_cache.Memo
module Json = Noc_exec.Json
module Scenario = Noc_spec.Scenario
module Delta = Noc_spec.Delta
module Spec_io = Noc_spec.Spec_io
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Flow = Noc_spec.Flow
module Bench_case = Noc_benchmarks.Bench_case
module D12 = Noc_benchmarks.D12
module Scenario_impact = Noc_fault.Scenario_impact
module Topology = Noc_synthesis.Topology
module Synth_gen = Noc_benchmarks.Synth_gen
module Oracle = Scenario_oracle

let config = Config.default
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let soc = D12.soc
let vi = D12.default_vi
let scenarios = D12.scenarios
let cores = Soc_spec.core_count soc
let options = { Synth.Options.default with Synth.Options.domains = Some 1 }

(* ---------- typed validation ---------- *)

let test_make_checked_errors () =
  let mk ?(name = "s") ?(used = [ 0; 1 ]) ?(cores = cores) ?(duty = 0.25) ()
      =
    Scenario.make_checked ~name ~used ~cores ~duty
  in
  (match mk () with
  | Ok s ->
    checks "name lands" "s" s.Scenario.name;
    checkb "used_list is the sorted used set" true
      (Scenario.used_list s = [ 0; 1 ])
  | Error e -> Alcotest.failf "valid scenario rejected: %s" (Scenario.error_to_string e));
  (match mk ~duty:(-0.1) () with
  | Error (Scenario.Negative_duty { scenario = "s"; duty }) ->
    checkb "negative duty carried" true (duty = -0.1)
  | _ -> Alcotest.fail "negative duty not detected");
  (match mk ~duty:1.5 () with
  | Error (Scenario.Duty_above_one _) -> ()
  | _ -> Alcotest.fail "duty > 1 not detected");
  (match mk ~used:[] () with
  | Error (Scenario.No_used_cores _) -> ()
  | _ -> Alcotest.fail "empty used set not detected");
  (match mk ~used:[ 0; cores ] () with
  | Error (Scenario.Bad_core { core; _ }) -> checki "bad id" cores core
  | _ -> Alcotest.fail "out-of-range core not detected");
  (match mk ~used:[ 3; 3 ] () with
  | Error (Scenario.Duplicate_core { core = 3; _ }) -> ()
  | _ -> Alcotest.fail "duplicate core not detected");
  (* every error renders to a non-empty human string *)
  List.iter
    (fun e -> checkb "error_to_string" true (Scenario.error_to_string e <> ""))
    [
      Scenario.Negative_duty { scenario = "x"; duty = -1.0 };
      Scenario.Duty_above_one { scenario = "x"; duty = 2.0 };
      Scenario.Duty_sum_above_one { total = 1.5 };
      Scenario.Duplicate_name { scenario = "x" };
      Scenario.No_used_cores { scenario = "x" };
      Scenario.Bad_core { scenario = "x"; core = 99 };
      Scenario.Duplicate_core { scenario = "x"; core = 1 };
      Scenario.Malformed { context = "x"; message = "y" };
    ]

let test_validate_set () =
  checkb "the d12 set is valid" true
    (Scenario.validate_set scenarios = Ok ());
  let s ~name ~duty = Scenario.make ~name ~used:[ 0 ] ~cores ~duty in
  (match
     Scenario.validate_set [ s ~name:"a" ~duty:0.2; s ~name:"a" ~duty:0.1 ]
   with
  | Error (Scenario.Duplicate_name { scenario = "a" }) -> ()
  | _ -> Alcotest.fail "duplicate name not detected");
  (match
     Scenario.validate_set [ s ~name:"a" ~duty:0.7; s ~name:"b" ~duty:0.7 ]
   with
  | Error (Scenario.Duty_sum_above_one { total }) ->
    checkb "total carried" true (total > 1.0)
  | _ -> Alcotest.fail "non-normalizable duties not detected");
  (* slack below 1 is allowed: the remainder is full-power operation *)
  checkb "slack allowed" true
    (Scenario.validate_set [ s ~name:"a" ~duty:0.3 ] = Ok ())

(* ---------- JSON and spec-bundle round-trips ---------- *)

let test_json_roundtrip () =
  List.iter
    (fun s ->
      match Scenario.of_json ~cores (Scenario.to_json s) with
      | Ok s' -> checkb ("round-trip " ^ s.Scenario.name) true (Scenario.equal s s')
      | Error e ->
        Alcotest.failf "round-trip rejected: %s" (Scenario.error_to_string e))
    scenarios;
  (* integer duty is accepted (JSON writers often emit 1 for 1.0) *)
  let j =
    Json.Obj
      [
        ("name", Json.String "all_on");
        ("duty", Json.Int 1);
        ("used_cores", Json.List [ Json.Int 0; Json.Int 1 ]);
      ]
  in
  (match Scenario.of_json ~cores j with
  | Ok s -> checkb "int duty" true (s.Scenario.duty = 1.0)
  | Error e -> Alcotest.failf "int duty rejected: %s" (Scenario.error_to_string e));
  (* structural failures are Malformed, not exceptions *)
  List.iter
    (fun bad ->
      match Scenario.of_json ~cores bad with
      | Error (Scenario.Malformed _) -> ()
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed scenario accepted")
    [
      Json.Obj [ ("duty", Json.Float 0.1) ];
      Json.Obj [ ("name", Json.String "x"); ("duty", Json.String "0.1") ];
      Json.Obj
        [
          ("name", Json.String "x");
          ("duty", Json.Float 0.1);
          ("used_cores", Json.String "0,1");
        ];
      Json.Null;
    ]

let test_bundle_roundtrip () =
  let bundle = { Spec_io.soc; vi = Some vi; scenarios } in
  match Spec_io.parse (Spec_io.to_string bundle) with
  | Error msg -> Alcotest.failf "bundle re-parse failed: %s" msg
  | Ok bundle' ->
    checkb "bundle round-trips with scenarios" true
      (Spec_io.equal_bundle bundle bundle')

(* ---------- scenario deltas ---------- *)

let scenario_deltas =
  [
    Delta.Set_scenario_duty { scenario = "standby"; duty = 0.35 };
    Delta.Set_scenario_cores { scenario = "recording"; used = [ 0; 2; 9 ] };
    Delta.Add_scenario { name = "night"; duty = 0.05; used = [ 11 ] };
    Delta.Remove_scenario { scenario = "live_tv" };
  ]

let test_delta_json_roundtrip () =
  List.iter
    (fun d ->
      match Delta.of_json (Delta.to_json d) with
      | Ok d' -> checkb "delta JSON round-trip" true (d = d')
      | Error msg -> Alcotest.failf "delta round-trip failed: %s" msg)
    scenario_deltas;
  (* whole-envelope round-trip at the current schema_version *)
  (match Delta.list_of_string (Delta.list_to_string scenario_deltas) with
  | Ok ds -> checkb "envelope round-trip" true (ds = scenario_deltas)
  | Error msg -> Alcotest.failf "envelope round-trip failed: %s" msg);
  (* a version-1 envelope (pre-scenario) still reads *)
  let v1 =
    {|{"schema": "spec_delta", "schema_version": 1, "deltas": [{"kind": "set_core_freq", "core": 0, "freq_mhz": 700}]}|}
  in
  (match Delta.list_of_string v1 with
  | Ok [ Delta.Set_core_freq { core = 0; freq_mhz = 700.0 } ] -> ()
  | Ok _ -> Alcotest.fail "v1 envelope mis-decoded"
  | Error msg -> Alcotest.failf "v1 envelope rejected: %s" msg);
  (* a future version is refused with a versioned diagnostic *)
  let v99 =
    Printf.sprintf
      {|{"schema": "spec_delta", "schema_version": %d, "deltas": []}|}
      (Json.schema_version + 1)
  in
  match Delta.list_of_string v99 with
  | Error msg -> checkb "future version named" true (msg <> "")
  | Ok _ -> Alcotest.fail "future schema_version accepted"

let rejects name f =
  match f () with
  | _ -> Alcotest.failf "%s: invalid edit accepted" name
  | exception Invalid_argument _ -> ()

let test_apply_bundle () =
  let bundle = (soc, vi, scenarios) in
  let find name ss = List.find (fun s -> s.Scenario.name = name) ss in
  (* spec deltas pass the scenario list through untouched *)
  let _, _, ss =
    Delta.apply_bundle bundle
      (Delta.Set_core_freq { core = 0; freq_mhz = 600.0 })
  in
  checkb "spec delta keeps scenarios" true (ss == scenarios);
  (* plain apply refuses scenario deltas *)
  rejects "apply on scenario delta" (fun () ->
      Delta.apply (soc, vi) (List.hd scenario_deltas));
  let soc', vi', ss' = Delta.apply_bundle_all bundle scenario_deltas in
  checkb "spec untouched" true (soc' == soc && vi' == vi);
  checki "add + remove lands" (List.length scenarios) (List.length ss');
  checkb "duty revised" true ((find "standby" ss').Scenario.duty = 0.35);
  checkb "cores revised" true
    (Scenario.used_list (find "recording" ss') = [ 0; 2; 9 ]);
  checkb "added" true ((find "night" ss').Scenario.duty = 0.05);
  checkb "removed" true
    (not (List.exists (fun s -> s.Scenario.name = "live_tv") ss'));
  (* edits that break the set are refused with the edited set validated
     as a whole *)
  rejects "unknown scenario" (fun () ->
      Delta.apply_bundle bundle
        (Delta.Set_scenario_duty { scenario = "nope"; duty = 0.1 }));
  rejects "duty sum over 1" (fun () ->
      Delta.apply_bundle bundle
        (Delta.Set_scenario_duty { scenario = "standby"; duty = 0.9 }));
  rejects "duplicate name on add" (fun () ->
      Delta.apply_bundle bundle
        (Delta.Add_scenario { name = "standby"; duty = 0.05; used = [ 0 ] }));
  rejects "bad core on add" (fun () ->
      Delta.apply_bundle bundle
        (Delta.Add_scenario { name = "x"; duty = 0.05; used = [ cores ] }))

let test_dirty_classification () =
  List.iter
    (fun d ->
      checkb "is_scenario_delta" true (Delta.is_scenario_delta d);
      let _, dirty = Delta.dirty_chain_bundle (soc, vi, scenarios) [ d ] in
      checkb "scenario deltas dirty only the scenario set" true
        (dirty = { Delta.clean with Delta.scenarios = true });
      checkb "scenario deltas are synthesis-clean" true
        (Delta.synthesis_clean dirty))
    scenario_deltas;
  let flow = List.hd soc.Soc_spec.flows in
  let spec_edit =
    Delta.Set_flow_bandwidth
      {
        src = flow.Flow.src;
        dst = flow.Flow.dst;
        bandwidth_mbps = flow.Flow.bandwidth_mbps *. 0.9;
      }
  in
  checkb "spec deltas are not scenario deltas" false
    (Delta.is_scenario_delta spec_edit);
  let _, dirty = Delta.dirty_chain_bundle (soc, vi, scenarios) [ spec_edit ] in
  checkb "flow edits are synthesis-dirty" false (Delta.synthesis_clean dirty);
  (* mixed chains union both classifications *)
  let _, dirty =
    Delta.dirty_chain_bundle (soc, vi, scenarios)
      [ spec_edit; List.hd scenario_deltas ]
  in
  checkb "mixed chain: scenarios flagged" true dirty.Delta.scenarios;
  checkb "mixed chain: synthesis dirty" false (Delta.synthesis_clean dirty)

(* ---------- synthesis guarantees ---------- *)

let eval_signature (e : Synth.scenario_eval) =
  ( e.Synth.scenario.Scenario.name,
    e.Synth.gated,
    e.Synth.active_flows,
    e.Synth.parked_flows,
    Int64.bits_of_float e.Synth.power_mw,
    Result.is_ok e.Synth.verified )

let point_signature p =
  ( Int64.bits_of_float (Power.total_mw p.DP.power),
    Int64.bits_of_float p.DP.avg_latency_cycles,
    p.DP.switch_count,
    p.DP.link_count,
    p.DP.crossing_count )

let sr_signature (sr : Synth.scenarios_result) =
  ( List.map point_signature sr.Synth.union.Synth.points,
    point_signature sr.Synth.best,
    Int64.bits_of_float sr.Synth.weighted_power_mw,
    Int64.bits_of_float sr.Synth.union_baseline_mw,
    List.map eval_signature sr.Synth.evals )

let test_run_scenarios () =
  let sr = Synth.run_scenarios ~options config soc vi ~scenarios in
  checki "one eval per scenario" (List.length scenarios)
    (List.length sr.Synth.evals);
  let names = List.map (fun e -> e.Synth.scenario.Scenario.name) sr.Synth.evals in
  checkb "evals in canonical (name-sorted) order" true
    (names = List.sort compare names);
  checkb "every scenario verifies on the selected point" true
    (List.for_all (fun e -> Result.is_ok e.Synth.verified) sr.Synth.evals);
  checkb "weighted power <= union baseline" true
    (sr.Synth.weighted_power_mw <= sr.Synth.union_baseline_mw +. 1e-9);
  (* the reported weighted power is Shutdown's canonical-order fold *)
  checkb "weighted power matches Shutdown.weighted_power_mw" true
    (sr.Synth.weighted_power_mw
    = Shutdown.weighted_power_mw config soc vi sr.Synth.best ~scenarios);
  (* validation screens the inputs *)
  rejects "empty scenario set" (fun () ->
      Synth.run_scenarios ~options config soc vi ~scenarios:[]);
  rejects "core-count mismatch" (fun () ->
      Synth.run_scenarios ~options config soc vi
        ~scenarios:[ Scenario.make ~name:"tiny" ~used:[ 0 ] ~cores:2 ~duty:0.5 ])

let test_rescore_reuses_union () =
  Memo.clear_all ();
  let prev = Synth.run_scenarios ~options config soc vi ~scenarios in
  let edit = [ Delta.Set_scenario_duty { scenario = "standby"; duty = 0.2 } ] in
  let before = Metrics.counter_value "synth.scenario_rescore" in
  let (_, _, scenarios'), sr =
    Synth.rerun_scenarios ~options ~prev ~delta:edit config soc vi ~scenarios
  in
  checkb "scenario-only edit re-scores without re-synthesizing" true
    (Metrics.counter_value "synth.scenario_rescore" > before
    && sr.Synth.union == prev.Synth.union);
  (* ... and lands on exactly what a fresh multi-scenario run on the
     edited set computes *)
  let fresh = Synth.run_scenarios ~options config soc vi ~scenarios:scenarios' in
  checkb "rescore = fresh run on the edited set" true
    (sr_signature sr = sr_signature fresh);
  (* a synthesis-dirty chain goes back through the sweep *)
  let flow = List.hd soc.Soc_spec.flows in
  let chain =
    [
      Delta.Set_flow_bandwidth
        {
          src = flow.Flow.src;
          dst = flow.Flow.dst;
          bandwidth_mbps = flow.Flow.bandwidth_mbps *. 0.9;
        };
      Delta.Set_scenario_duty { scenario = "standby"; duty = 0.2 };
    ]
  in
  let (soc', vi', scenarios''), sr' =
    Synth.rerun_scenarios ~options ~prev ~delta:chain config soc vi ~scenarios
  in
  let fresh' =
    Synth.run
      ~options:{ options with Synth.Options.cache = false }
      config soc' vi'
  in
  checkb "dirty chain re-sweeps to the fresh result" true
    (sr_signature sr'
    = sr_signature (Synth.score_scenarios config soc' vi' ~scenarios:scenarios'' fresh'))

(* permutation invariance: any order of the scenario list produces a
   bit-identical scenarios_result (all weighted folds are canonical) *)
let prop_permutation_invariance =
  QCheck.Test.make ~name:"scenario-order permutation is bit-identical"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x5ce4 |] in
      let shuffle l =
        let arr = Array.of_list l in
        for i = Array.length arr - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        Array.to_list arr
      in
      let reference = Synth.run_scenarios ~options config soc vi ~scenarios in
      let permuted =
        Synth.run_scenarios ~options config soc vi
          ~scenarios:(shuffle scenarios)
      in
      sr_signature reference = sr_signature permuted)

(* the scenario digest keys the serve store: order-insensitive, exact
   over duty bits and membership *)
let test_digest () =
  checks "digest ignores order"
    (Scenario.digest scenarios)
    (Scenario.digest (List.rev scenarios));
  let bumped =
    List.map
      (fun s ->
        if s.Scenario.name = "standby" then
          { s with Scenario.duty = s.Scenario.duty +. 1e-12 }
        else s)
      scenarios
  in
  checkb "digest sees the last duty bit" false
    (Scenario.digest scenarios = Scenario.digest bumped)

let test_scenario_impact () =
  let sr = Synth.run_scenarios ~options config soc vi ~scenarios in
  let impacts =
    Scenario_impact.analyze config vi sr.Synth.best.DP.topology
      ~clocks:sr.Synth.union.Synth.clocks ~scenarios
  in
  checki "one impact per scenario" (List.length scenarios)
    (List.length impacts);
  checkb "gating only parks flows (degraded contracts clean)" true
    (Scenario_impact.all_clean impacts);
  List.iter
    (fun (i : Scenario_impact.t) ->
      checki
        ("parked = endpoint_lost for " ^ i.Scenario_impact.scenario.Scenario.name)
        i.Scenario_impact.outcome.Noc_fault.Survivability.endpoint_lost
        i.Scenario_impact.parked;
      checkb "fault set covers exactly the gated islands" true
        (List.length i.Scenario_impact.faults > 0
        || i.Scenario_impact.gated = []))
    impacts

(* ---------- one-pass scoring = the per-island oracle ---------- *)

type scoring_input = {
  label : string;
  in_config : Config.t;
  in_soc : Soc_spec.t;
  in_vi : Vi.t;
  points : DP.t list;
}

let saved_points ?(protect = false) ?(config = config) label soc vi =
  lazy
    (let options = { options with Synth.Options.protect } in
     let r = Synth.run ~options config soc vi in
     { label; in_config = config; in_soc = soc; in_vi = vi; points = r.Synth.points })

let bench_points ?protect name =
  let case = Bench_case.find name in
  saved_points ?protect name case.Bench_case.soc case.Bench_case.default_vi

let gen64 =
  let soc = Synth_gen.generate ~seed:1 { Synth_gen.default_profile with cores = 64 } in
  saved_points "gen64 pipelined"
    ~config:{ config with Config.allow_link_pipelining = true }
    soc
    (Synth_gen.random_vi ~seed:1 ~islands:4 soc)

let d26_points = bench_points "d26"

(* d26's first saved point on a copy of its topology with one flow
   rerouted through a switch of a shutdownable third island, the way
   test_synthesis's checker test sabotages a route.  Returns the point,
   the flow's two endpoint islands and the third island. *)
let injected_transit () =
  let input = Lazy.force d26_points in
  let vi = input.in_vi in
  let point = List.hd input.points in
  let topo = Topology.copy point.DP.topology in
  let pick (flow, _) =
    let si = vi.Vi.of_core.(flow.Flow.src) and di = vi.Vi.of_core.(flow.Flow.dst) in
    List.find_map
      (fun third ->
        if third <> si && third <> di && vi.Vi.shutdownable.(third) then
          match Topology.switches_of_location topo (Topology.Island third) with
          | sw :: _ -> Some (flow, si, di, third, sw.Topology.sw_id)
          | [] -> None
        else None)
      (List.init vi.Vi.islands Fun.id)
  in
  let flow, si, di, third, foreign =
    match List.find_map pick topo.Topology.routes with
    | Some found -> found
    | None -> Alcotest.fail "d26 has no flow to sabotage"
  in
  let ss = topo.Topology.core_switch.(flow.Flow.src) in
  let ds = topo.Topology.core_switch.(flow.Flow.dst) in
  topo.Topology.routes <-
    List.map
      (fun (f, r) -> if f == flow then (f, [ ss; foreign; ds ]) else (f, r))
      topo.Topology.routes;
  ({ point with DP.topology = topo }, si, di, third)

let transit_points =
  lazy
    (let input = Lazy.force d26_points in
     let point, _, _, _ = injected_transit () in
     { input with label = "d26 injected transit"; points = [ point ] })

let scoring_inputs =
  [|
    bench_points "d12";
    d26_points;
    bench_points "d36";
    bench_points ~protect:true "d26";
    gen64;
    transit_points;
  |]

(* A random valid scenario set: each scenario uses the cores of a random
   non-empty subset of islands, thinned and with the odd stray core, so
   many islands are gated; duties sum below 1; names are distinct and the
   list is not in canonical order. *)
let random_scenarios rng soc vi =
  let cores = Soc_spec.core_count soc in
  let k = 1 + Random.State.int rng 4 in
  let names =
    List.sort_uniq compare (List.init (k + 4) (fun _ -> Random.State.int rng 100))
    |> List.filteri (fun i _ -> i < k)
    |> List.map (Printf.sprintf "m%02d")
  in
  let scenario name =
    let active = Array.init vi.Vi.islands (fun _ -> Random.State.bool rng) in
    active.(Random.State.int rng vi.Vi.islands) <- true;
    let used =
      List.filter
        (fun core ->
          (active.(vi.Vi.of_core.(core)) && Random.State.int rng 5 > 0)
          || Random.State.int rng 20 = 0)
        (List.init cores Fun.id)
    in
    let used = if used = [] then [ Random.State.int rng cores ] else used in
    Scenario.make ~name ~used ~cores
      ~duty:(Random.State.float rng 1.0 /. float_of_int (List.length names))
  in
  let shuffled = Array.of_list (List.map scenario names) in
  for i = Array.length shuffled - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- t
  done;
  Array.to_list shuffled

let bits = Int64.bits_of_float

let report_bits (r : Shutdown.report) =
  ( List.map
      (fun (row : Shutdown.scenario_row) ->
        ( row.Shutdown.scenario.Scenario.name,
          row.Shutdown.gated,
          bits row.Shutdown.power_without_shutdown_mw,
          bits row.Shutdown.power_with_shutdown_mw,
          bits row.Shutdown.savings_fraction ))
      r.Shutdown.rows,
    bits r.Shutdown.weighted_savings_fraction,
    bits r.Shutdown.weighted_power_mw,
    bits r.Shutdown.full_power_mw )

let verdict = function
  | Ok () -> []
  | Error vs ->
    List.map
      (fun (v : Shutdown.violation) ->
        ( v.Shutdown.v_flow.Flow.src,
          v.Shutdown.v_flow.Flow.dst,
          v.Shutdown.v_switch,
          v.Shutdown.v_island ))
      vs

(* Every per-island leakage, report row, weighted power and survives
   verdict of every saved point equals the oracle's, bit for bit. *)
let scoring_agrees input scenarios =
  let { label; in_config = config; in_soc = soc; in_vi = vi; points } = input in
  let scoring = Shutdown.Scoring.prepare config soc vi ~scenarios in
  List.iteri
    (fun i p ->
      let topo = p.DP.topology in
      let fail what = QCheck.Test.fail_reportf "%s point %d: %s" label i what in
      let leak = Shutdown.island_noc_leakages config vi topo in
      for island = 0 to vi.Vi.islands - 1 do
        let expected = bits (Oracle.island_noc_leakage_mw config vi topo ~island) in
        if bits leak.(island) <> expected
           || bits (Shutdown.island_noc_leakage_mw config vi topo ~island) <> expected
        then fail (Printf.sprintf "island %d leakage" island)
      done;
      let expected = Oracle.leakage_report config soc vi p ~scenarios in
      if report_bits (Shutdown.leakage_report config soc vi p ~scenarios)
         <> report_bits expected
      then fail "leakage_report";
      if report_bits (Shutdown.Scoring.report scoring p) <> report_bits expected
      then fail "Scoring.report";
      let w = bits expected.Shutdown.weighted_power_mw in
      if bits (Shutdown.weighted_power_mw config soc vi p ~scenarios) <> w
         || bits (Shutdown.Scoring.weighted_power_mw scoring p) <> w
      then fail "weighted_power_mw";
      let survives_all =
        List.for_all
          (fun s ->
            let gated = Scenario.gated_islands s vi in
            let expected = Oracle.survives_gating vi topo ~gated in
            if verdict (Shutdown.survives_gating vi topo ~gated) <> verdict expected
            then fail ("survives_gating in " ^ s.Scenario.name);
            Result.is_ok expected)
          scenarios
      in
      if Shutdown.Scoring.survives scoring topo <> survives_all then
        fail "Scoring.survives")
    points;
  true

let prop_scoring_matches_oracle =
  QCheck.Test.make ~name:"one-pass scoring = per-island oracle, bit for bit"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x0ac1e |] in
      let input =
        Lazy.force
          scoring_inputs.(Random.State.int rng (Array.length scoring_inputs))
      in
      scoring_agrees input (random_scenarios rng input.in_soc input.in_vi))

(* The rejecting branch, pinned: a scenario that gates the injected
   transit's island but neither endpoint island breaks the flow, and the
   library says so exactly as the oracle does. *)
let test_injected_transit () =
  let input = Lazy.force transit_points in
  let vi = input.in_vi and soc = input.in_soc in
  let point, si, di, third = injected_transit () in
  let topo = point.DP.topology in
  let expected = Oracle.survives_gating vi topo ~gated:[ third ] in
  checkb "the oracle sees the transit" true (Result.is_error expected);
  checkb "survives_gating = oracle" true
    (verdict (Shutdown.survives_gating vi topo ~gated:[ third ]) = verdict expected);
  let endpoints_only =
    Scenario.make ~name:"endpoints" ~cores:(Soc_spec.core_count soc) ~duty:0.5
      ~used:(Vi.cores_of_island vi si @ Vi.cores_of_island vi di)
  in
  checkb "the scenario gates the third island" true
    (List.mem third (Scenario.gated_islands endpoints_only vi));
  let scoring =
    Shutdown.Scoring.prepare config soc vi ~scenarios:[ endpoints_only ]
  in
  checkb "Scoring.survives rejects the sabotaged point" false
    (Shutdown.Scoring.survives scoring topo);
  ignore (scoring_agrees input [ endpoints_only ])

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_scenario"
    [
      ( "validation",
        [
          Alcotest.test_case "make_checked typed errors" `Quick
            test_make_checked_errors;
          Alcotest.test_case "validate_set" `Quick test_validate_set;
        ] );
      ( "round-trips",
        [
          Alcotest.test_case "scenario JSON" `Quick test_json_roundtrip;
          Alcotest.test_case "spec bundle with scenarios" `Quick
            test_bundle_roundtrip;
          Alcotest.test_case "scenario digest" `Quick test_digest;
        ] );
      ( "deltas",
        [
          Alcotest.test_case "JSON round-trip + envelope versions" `Quick
            test_delta_json_roundtrip;
          Alcotest.test_case "apply_bundle semantics" `Quick test_apply_bundle;
          Alcotest.test_case "dirty classification" `Quick
            test_dirty_classification;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "run_scenarios guarantees" `Quick
            test_run_scenarios;
          Alcotest.test_case "rescore reuses the union sweep" `Quick
            test_rescore_reuses_union;
          Alcotest.test_case "scenario impact contracts" `Quick
            test_scenario_impact;
          qt prop_permutation_invariance;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "injected third-island transit" `Quick
            test_injected_transit;
          qt prop_scoring_matches_oracle;
        ] );
    ]
