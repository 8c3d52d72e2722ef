(* Tests for the extension modules: the design-rule verifier, the spec
   interchange format, SVG export, link pipelining and the width sweep. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module DP = Noc_synthesis.Design_point
module Topology = Noc_synthesis.Topology
module Verify = Noc_synthesis.Verify
module Viz = Noc_synthesis.Viz
module Explore = Noc_synthesis.Explore
module Flow = Noc_spec.Flow
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Spec_io = Noc_spec.Spec_io
module Scenario = Noc_spec.Scenario
module Link_model = Noc_models.Link_model
module Power = Noc_models.Power
module Svg = Noc_floorplan.Svg
module D26 = Noc_benchmarks.D26

let config = Config.default
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let d26 = D26.soc
let d26_vi = D26.logical_partition ~islands:6
let d26_result = lazy (Synth.run config d26 d26_vi)
let d26_best = lazy (Synth.best_power (Lazy.force d26_result))

(* ---------- Verify ---------- *)

let test_verify_clean_on_benchmarks () =
  List.iter
    (fun case ->
      let soc = case.Noc_benchmarks.Bench_case.soc in
      let vi = case.Noc_benchmarks.Bench_case.default_vi in
      let best = Synth.best_power (Synth.run config soc vi) in
      match Verify.check config soc vi best.DP.topology with
      | [] -> ()
      | violations ->
        Alcotest.failf "%s: %s" case.Noc_benchmarks.Bench_case.name
          (Format.asprintf "%a" Verify.pp_report violations))
    Noc_benchmarks.Bench_case.all

(* fresh topology we are allowed to mutate *)
let fresh_best () = Synth.best_power (Synth.run config d26 d26_vi)

let has_violation pred violations = List.exists pred violations

let test_verify_detects_missing_route () =
  let best = fresh_best () in
  let topo = best.DP.topology in
  (* drop one route *)
  topo.Topology.routes <- List.tl topo.Topology.routes;
  let violations = Verify.check config d26 d26_vi topo in
  checkb "unrouted flow flagged" true
    (has_violation (function Verify.Unrouted_flow _ -> true | _ -> false)
       violations);
  (* dropping the route also desynchronizes link bandwidth accounting *)
  checkb "bandwidth mismatch flagged" true
    (has_violation
       (function Verify.Bandwidth_mismatch _ -> true | _ -> false)
       violations)

let test_verify_detects_broken_route () =
  let best = fresh_best () in
  let topo = best.DP.topology in
  (* replace some multi-hop route with a hop over a missing link: find a
     pair of switches with no connecting link *)
  let n = Array.length topo.Topology.switches in
  let missing = ref None in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if a <> b && !missing = None
         && Topology.find_link topo ~src:a ~dst:b = None
      then missing := Some (a, b)
    done
  done;
  match !missing with
  | None -> () (* fully connected: nothing to test *)
  | Some (a, b) ->
    (match topo.Topology.routes with
     | (flow, _) :: rest ->
       topo.Topology.routes <- (flow, [ a; b ]) :: rest;
       let violations = Verify.check config d26 d26_vi topo in
       checkb "broken route flagged" true
         (has_violation
            (function Verify.Broken_route _ -> true | _ -> false)
            violations);
       checkb "wrong endpoints flagged" true
         (has_violation
            (function Verify.Wrong_endpoints _ -> true | _ -> false)
            violations)
     | [] -> Alcotest.fail "no routes")

let test_verify_detects_shutdown_violation () =
  let best = fresh_best () in
  let topo = best.DP.topology in
  let flow, _ =
    List.find
      (fun (f, _) ->
        d26_vi.Vi.of_core.(f.Flow.src) <> d26_vi.Vi.of_core.(f.Flow.dst))
      topo.Topology.routes
  in
  let si = d26_vi.Vi.of_core.(flow.Flow.src) in
  let di = d26_vi.Vi.of_core.(flow.Flow.dst) in
  let third =
    List.find
      (fun i -> i <> si && i <> di)
      (List.init d26_vi.Vi.islands (fun i -> i))
  in
  let foreign =
    (List.hd (Topology.switches_of_location topo (Topology.Island third)))
      .Topology.sw_id
  in
  let ss = topo.Topology.core_switch.(flow.Flow.src) in
  let ds = topo.Topology.core_switch.(flow.Flow.dst) in
  topo.Topology.routes <-
    List.map
      (fun (f, r) -> if f == flow then (f, [ ss; foreign; ds ]) else (f, r))
      topo.Topology.routes;
  let violations = Verify.check config d26 d26_vi topo in
  checkb "shutdown violation flagged" true
    (has_violation
       (function Verify.Shutdown_violation _ -> true | _ -> false)
       violations)

let test_verify_detects_clock_mismatch () =
  let best = fresh_best () in
  let topo = best.DP.topology in
  let sw0 = topo.Topology.switches.(0) in
  topo.Topology.switches.(0) <-
    { sw0 with Topology.freq_mhz = sw0.Topology.freq_mhz +. 123.0 };
  let violations = Verify.check config d26 d26_vi topo in
  checkb "clock mismatch flagged" true
    (has_violation
       (function Verify.Clock_mismatch _ -> true | _ -> false)
       violations)

(* ---------- Spec_io ---------- *)

let bundle_of case =
  {
    Spec_io.soc = case.Noc_benchmarks.Bench_case.soc;
    vi = Some case.Noc_benchmarks.Bench_case.default_vi;
    scenarios = case.Noc_benchmarks.Bench_case.scenarios;
  }

let test_spec_io_roundtrip_benchmarks () =
  List.iter
    (fun case ->
      let bundle = bundle_of case in
      match Spec_io.parse (Spec_io.to_string bundle) with
      | Error m ->
        Alcotest.failf "%s: %s" case.Noc_benchmarks.Bench_case.name m
      | Ok parsed ->
        checkb
          (case.Noc_benchmarks.Bench_case.name ^ " round-trips")
          true
          (Spec_io.equal_bundle bundle parsed))
    Noc_benchmarks.Bench_case.all

let prop_spec_io_roundtrip_random =
  QCheck.Test.make ~name:"random SoCs round-trip through the text format"
    ~count:40
    QCheck.(pair (int_bound 1000) (int_range 5 24))
    (fun (seed, cores) ->
      let soc =
        Noc_benchmarks.Synth_gen.generate ~seed
          { Noc_benchmarks.Synth_gen.default_profile with cores }
      in
      let islands = 1 + (seed mod min 4 cores) in
      let vi = Noc_benchmarks.Synth_gen.random_vi ~seed ~islands soc in
      let bundle = { Spec_io.soc; vi = Some vi; scenarios = [] } in
      match Spec_io.parse (Spec_io.to_string bundle) with
      | Ok parsed -> Spec_io.equal_bundle bundle parsed
      | Error _ -> false)

let test_spec_io_errors () =
  let expect_error text =
    match Spec_io.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
  in
  expect_error "flit_bits 32\n";                          (* no soc name *)
  expect_error "soc x\nunknown_directive 1\n";
  expect_error "soc x\ncore 0 a processor area 1 freq\n"; (* bad arity *)
  expect_error "soc x\ncore 0 a widget area 1 freq 100 dyn 5\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nflow 0 0 bw 10 lat 10\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nassign 0 0\n";
  (* assign without islands *)
  (* malformed core lines *)
  expect_error "soc x\ncore zero a processor area 1 freq 100 dyn 5\n";
  expect_error "soc x\ncore 0 a processor size 1 freq 100 dyn 5\n";
  expect_error "soc x\ncore 0 a processor area wide freq 100 dyn 5\n";
  (* malformed flow lines *)
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\n\
     core 1 b memory area 1 freq 100 dyn 5\nflow 0 1 bw 10\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\n\
     core 1 b memory area 1 freq 100 dyn 5\nflow 0 1 lat 10 bw 10\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\n\
     core 1 b memory area 1 freq 100 dyn 5\nflow 0 1 bw ten lat 10\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\n\
     core 1 b memory area 1 freq 100 dyn 5\nflow 0 5 bw 10 lat 10\n";
  (* duplicate core ids *)
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\n\
     core 0 b memory area 1 freq 100 dyn 5\n";
  (* malformed assign lines and out-of-range islands *)
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nislands 1\nassign 0\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nislands 1\n\
     assign 0 zero\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nislands 2\nassign 0 5\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nislands 2\nassign 5 0\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nislands 1\nassign 0 0\n\
     always_on 3\n";
  (* core left without an island assignment *)
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\n\
     core 1 b memory area 1 freq 100 dyn 5\nislands 1\nassign 0 0\n";
  (* malformed scenario lines *)
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nscenario idle\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nscenario idle high 0\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nscenario idle 0.5 7\n";
  expect_error
    "soc x\ncore 0 a processor area 1 freq 100 dyn 5\nscenario idle 1.5 0\n"

let test_spec_io_float_roundtrip_exact () =
  (* values that %.9g cannot represent: the printer must escalate towards
     %.17g until the rendering parses back bit-for-bit *)
  List.iter
    (fun bw ->
      let soc =
        Soc_spec.make ~name:"f"
          ~cores:
            [|
              Noc_spec.Core_spec.make ~id:0 ~name:"a"
                ~kind:Noc_spec.Core_spec.Processor ~area_mm2:1.0
                ~freq_mhz:100.0 ~dynamic_mw:5.0 ();
              Noc_spec.Core_spec.make ~id:1 ~name:"b"
                ~kind:Noc_spec.Core_spec.Memory ~area_mm2:1.0 ~freq_mhz:100.0
                ~dynamic_mw:5.0 ();
            |]
          ~flows:[ Flow.make ~src:0 ~dst:1 ~bw ~lat:10 ]
          ()
      in
      let bundle = { Spec_io.soc; vi = None; scenarios = [] } in
      match Spec_io.parse (Spec_io.to_string bundle) with
      | Error m -> Alcotest.fail m
      | Ok parsed ->
        let f = List.hd parsed.Spec_io.soc.Soc_spec.flows in
        if not (Float.equal f.Flow.bandwidth_mbps bw) then
          Alcotest.failf "bandwidth %h round-tripped to %h" bw
            f.Flow.bandwidth_mbps)
    [ 0.1 +. 0.2; 1234.5678901234567; 100.0 *. Float.pi; 1000.0 /. 3.0 ]

(* The printer's former linear scan over precisions 9..17, kept as the
   oracle for its bisection. *)
let print_float_linear x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else begin
    let rec shortest precision =
      let s = Printf.sprintf "%.*g" precision x in
      if precision >= 17 || float_of_string s = x then s
      else shortest (precision + 1)
    in
    shortest 9
  end

let print_float x =
  let b = Buffer.create 24 in
  Spec_io.print_float b x;
  Buffer.contents b

let prop_print_float_matches_linear =
  QCheck.Test.make
    ~name:
      "print_float bisection = linear scan (bit patterns, integers near \
       1e15, generated-spec values)"
    ~count:300
    QCheck.(triple int64 (int_range (-2000) 2000) (pair (int_bound 1000) (int_range 4 24)))
    (fun (bits, offset, (seed, cores)) ->
      let agrees x = String.equal (print_float x) (print_float_linear x) in
      let near = 1e15 +. float_of_int offset in
      let soc =
        Noc_benchmarks.Synth_gen.generate ~seed
          { Noc_benchmarks.Synth_gen.default_profile with cores }
      in
      agrees (Int64.float_of_bits bits)
      && agrees near && agrees (-.near) && agrees (near /. 7.0)
      && List.for_all (fun f -> agrees f.Flow.bandwidth_mbps) soc.Soc_spec.flows
      && Array.for_all
           (fun c ->
             agrees c.Noc_spec.Core_spec.area_mm2
             && agrees c.Noc_spec.Core_spec.freq_mhz
             && agrees c.Noc_spec.Core_spec.dynamic_mw
             && agrees c.Noc_spec.Core_spec.leakage_mw)
           soc.Soc_spec.cores)

(* A power of two is the one double whose rounding interval is lopsided
   (the gap below is half the gap above), the one place the bisection's
   monotonicity argument needs more than "closer is better": check every
   one. *)
let test_print_float_powers_of_two () =
  for k = -1074 to 1023 do
    List.iter
      (fun x ->
        let got = print_float x and want = print_float_linear x in
        if not (String.equal got want) then
          Alcotest.failf "2^%d: bisection %s, linear scan %s" k got want)
      [ ldexp 1.0 k; -.ldexp 1.0 k ]
  done

let test_spec_io_save_load () =
  let bundle = bundle_of (Noc_benchmarks.Bench_case.find "d26") in
  let path = Filename.temp_file "noc_spec" ".spec" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Spec_io.save path bundle with
       | Ok () -> ()
       | Error m -> Alcotest.failf "save failed: %s" m);
      match Spec_io.load path with
      | Error m -> Alcotest.failf "load failed: %s" m
      | Ok parsed ->
        checkb "save/load round-trips exactly" true
          (Spec_io.equal_bundle bundle parsed));
  (* no stray temp file left next to the target *)
  let dir = Filename.dirname path in
  Array.iter
    (fun f ->
      if
        String.length f > String.length (Filename.basename path)
        && String.sub f 0 (String.length (Filename.basename path))
           = Filename.basename path
      then Alcotest.failf "leftover temp file %s" f)
    (Sys.readdir dir)

let test_spec_io_save_error () =
  let bundle = bundle_of (Noc_benchmarks.Bench_case.find "d12") in
  match Spec_io.save "/nonexistent-noc-dir/out.spec" bundle with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected an error writing into a missing directory"

let test_spec_io_load_error () =
  match Spec_io.load "/nonexistent-noc-dir/in.spec" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error reading a missing file"

let test_spec_io_comments_and_defaults () =
  let text =
    "# a comment line\n\
     soc tiny   # trailing comment\n\
     core 0 a processor area 1 freq 100 dyn 5\n\
     core 1 b memory area 1 freq 100 dyn 5\n\
     flow 0 1 bw 10 lat 10\n"
  in
  match Spec_io.parse text with
  | Error m -> Alcotest.fail m
  | Ok bundle ->
    checki "default flit bits" 32 bundle.Spec_io.soc.Soc_spec.flit_bits;
    checkb "default intermediate" true
      bundle.Spec_io.soc.Soc_spec.allow_intermediate_island;
    checkb "no vi section" true (bundle.Spec_io.vi = None)

(* ---------- SVG ---------- *)

let test_svg_well_formed () =
  let result = Lazy.force d26_result in
  let best = Lazy.force d26_best in
  let svg = Viz.design_svg d26 d26_vi result.Synth.plan best.DP.topology in
  let contains needle =
    let n = String.length needle and h = String.length svg in
    let rec scan i =
      i + n <= h && (String.sub svg i n = needle || scan (i + 1))
    in
    scan 0
  in
  checkb "opens svg" true (String.length svg > 11 && String.sub svg 0 4 = "<svg");
  checkb "closes svg" true (contains "</svg>");
  checkb "has island rects" true (contains "<rect");
  checkb "has switch circles" true (contains "<circle");
  checkb "has links" true (contains "<line");
  checkb "labels cores" true (contains "arm_cpu0");
  (* every core name appears *)
  Array.iter
    (fun c ->
      checkb ("labels " ^ c.Noc_spec.Core_spec.name) true
        (contains c.Noc_spec.Core_spec.name))
    d26.Soc_spec.cores

let test_svg_escapes_markup () =
  let c = Svg.canvas ~width_mm:10.0 ~height_mm:10.0 () in
  Svg.text c (Noc_floorplan.Geometry.point 5.0 5.0) "a<b&c>d";
  let svg = Svg.render c in
  let contains needle =
    let n = String.length needle and h = String.length svg in
    let rec scan i =
      i + n <= h && (String.sub svg i n = needle || scan (i + 1))
    in
    scan 0
  in
  checkb "escaped" true (contains "a&lt;b&amp;c&gt;d")

(* ---------- Link pipelining ---------- *)

let test_stages_for_model () =
  let tech = config.Config.tech in
  let budget = Noc_models.Tech.max_unpipelined_mm tech ~freq_mhz:500.0 in
  checki "short link unpipelined" 0
    (Link_model.stages_for tech ~length_mm:(budget /. 2.0) ~freq_mhz:500.0);
  checki "just over needs one stage" 1
    (Link_model.stages_for tech ~length_mm:(budget *. 1.5) ~freq_mhz:500.0);
  checki "triple length needs two" 2
    (Link_model.stages_for tech ~length_mm:(budget *. 2.5) ~freq_mhz:500.0)

let test_pipelined_links_in_topology () =
  (* a topology with one long pipelined link: latency must include the
     stages, and Verify must accept the segmented timing *)
  let position = Noc_floorplan.Geometry.point 0.0 0.0 in
  let sw id x =
    {
      Topology.sw_id = id;
      location = Topology.Island id;
      freq_mhz = 500.0;
      vdd = 0.8;
      position = Noc_floorplan.Geometry.point x 0.0;
    }
  in
  ignore position;
  let topo =
    Topology.create ~islands:2
      ~switches:[| sw 0 0.0; sw 1 12.0 |]
      ~core_switch:[| 0; 1 |] ~flit_bits:32
  in
  let budget =
    Noc_models.Tech.max_unpipelined_mm config.Config.tech ~freq_mhz:500.0
  in
  let stages =
    Link_model.stages_for config.Config.tech ~length_mm:12.0 ~freq_mhz:500.0
  in
  checkb "long link needs stages" true (stages > 0 && 12.0 > budget);
  ignore (Topology.add_link ~stages topo ~src:0 ~dst:1 ~length_mm:12.0);
  (* 2 switches x2 + 1 link + stages + 1 crossing x4 *)
  checki "latency includes stages" (4 + 1 + stages + 4)
    (Topology.route_latency_cycles topo [ 0; 1 ])

let test_pipelining_config_end_to_end () =
  (* with pipelining on, the synthesis still produces clean designs and the
     simulator still matches the analytic latency *)
  let cfg = { config with Config.allow_link_pipelining = true } in
  let result = Synth.run cfg d26 d26_vi in
  let best = Synth.best_power result in
  checkb "timing clean under pipelining" true best.DP.timing_clean;
  (match Verify.check cfg d26 d26_vi best.DP.topology with
   | [] -> ()
   | vs -> Alcotest.failf "%a" Verify.pp_report vs);
  List.iter
    (fun (flow, sim, analytic) ->
      if Float.abs (sim -. float_of_int analytic) > 1e-6 then
        Alcotest.failf "flow %d->%d pipelined sim mismatch" flow.Flow.src
          flow.Flow.dst)
    (Noc_sim.Sim.zero_load_check d26 d26_vi best.DP.topology)

(* ---------- Width sweep ---------- *)

let test_width_sweep () =
  let points =
    Explore.width_sweep config d26 d26_vi ~widths:[ 16; 32; 64 ]
  in
  checkb "some widths feasible" true (List.length points >= 2);
  List.iter
    (fun (width, p) ->
      checki "width recorded"
        width
        p.DP.topology.Topology.flit_bits;
      checkb "positive power" true (Power.total_mw p.DP.power > 0.0))
    points;
  (* wider links let islands clock slower *)
  match (List.assoc_opt 32 points, List.assoc_opt 64 points) with
  | Some p32, Some p64 ->
    let max_freq p =
      Array.fold_left
        (fun acc sw -> Float.max acc sw.Topology.freq_mhz)
        0.0 p.DP.topology.Topology.switches
    in
    checkb "wider links slow the clock" true (max_freq p64 < max_freq p32)
  | _ -> Alcotest.fail "expected 32- and 64-bit points"

(* ---------- Implementation report ---------- *)

let test_report_complete () =
  let result = Lazy.force d26_result in
  ignore result;
  let best = Lazy.force d26_best in
  let report = Noc_synthesis.Report.build d26 d26_vi best in
  let text = Noc_synthesis.Report.to_string config d26 report in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec scan i = i + n <= h && (String.sub text i n = needle || scan (i + 1)) in
    scan 0
  in
  (* every switch and every core appears *)
  Array.iter
    (fun sw ->
      checkb
        (Printf.sprintf "mentions sw%d" sw.Topology.sw_id)
        true
        (contains (Printf.sprintf "sw%-3d" sw.Topology.sw_id)))
    best.DP.topology.Topology.switches;
  Array.iter
    (fun c -> checkb ("mentions " ^ c.Noc_spec.Core_spec.name) true
        (contains c.Noc_spec.Core_spec.name))
    d26.Soc_spec.cores;
  checkb "mentions converters" true (contains "bi-sync converter");
  checkb "per-island gating leakage" true (contains "if gated")

let test_report_link_utilization_bounded () =
  let best = Lazy.force d26_best in
  let topo = best.DP.topology in
  List.iter
    (fun link ->
      let u = Noc_synthesis.Report.link_utilization config topo link in
      checkb "utilization in [0,1]" true (u >= 0.0 && u <= 1.0 +. 1e-9))
    (Topology.links_list topo)

(* ---------- Scenario-aware selection ---------- *)

let test_scenario_weighted_selection () =
  let result = Lazy.force d26_result in
  let peak = Synth.best_power result in
  let weighted_point, weighted_mw =
    Explore.best_scenario_weighted config d26 d26_vi
      ~scenarios:D26.scenarios result
  in
  checkb "weighted power positive" true (weighted_mw > 0.0);
  (* the weighted pick is at least as good as the peak pick under the
     weighted metric, by construction *)
  let score p =
    let report =
      Noc_synthesis.Shutdown.leakage_report config d26 d26_vi p
        ~scenarios:D26.scenarios
    in
    List.fold_left
      (fun acc row ->
        acc
        +. (row.Noc_synthesis.Shutdown.scenario.Scenario.duty
            *. row.Noc_synthesis.Shutdown.power_with_shutdown_mw))
      0.0 report.Noc_synthesis.Shutdown.rows
  in
  checkb "weighted pick wins its own metric" true
    (score weighted_point <= score peak +. 1e-6)

(* ---------- Assignment-strategy ablation ---------- *)

let test_round_robin_valid_but_worse () =
  let rr =
    Synth.run
      ~options:
        {
          Synth.Options.default with
          Synth.Options.assignment_strategy =
            Noc_synthesis.Switch_alloc.Round_robin;
        }
      config d26 d26_vi
  in
  let rr_best = Synth.best_power rr in
  (* the ablation baseline still yields clean designs... *)
  (match Verify.check config d26 d26_vi rr_best.DP.topology with
   | [] -> ()
   | vs -> Alcotest.failf "%a" Verify.pp_report vs);
  (* ...but the paper's min-cut grouping is at least as good on power *)
  let mincut_best = Lazy.force d26_best in
  checkb "min-cut no worse than round-robin" true
    (Power.total_mw mincut_best.DP.power
     <= Power.total_mw rr_best.DP.power +. 1e-6)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "extensions"
    [
      ( "verify",
        [
          Alcotest.test_case "clean on every benchmark" `Slow
            test_verify_clean_on_benchmarks;
          Alcotest.test_case "missing route" `Quick
            test_verify_detects_missing_route;
          Alcotest.test_case "broken route" `Quick
            test_verify_detects_broken_route;
          Alcotest.test_case "shutdown violation" `Quick
            test_verify_detects_shutdown_violation;
          Alcotest.test_case "clock mismatch" `Quick
            test_verify_detects_clock_mismatch;
        ] );
      ( "spec_io",
        [
          Alcotest.test_case "benchmark round-trips" `Quick
            test_spec_io_roundtrip_benchmarks;
          qt prop_spec_io_roundtrip_random;
          Alcotest.test_case "parse errors" `Quick test_spec_io_errors;
          Alcotest.test_case "float round-trip exact" `Quick
            test_spec_io_float_roundtrip_exact;
          qt prop_print_float_matches_linear;
          Alcotest.test_case "print_float on every power of two" `Quick
            test_print_float_powers_of_two;
          Alcotest.test_case "save/load round-trip" `Quick
            test_spec_io_save_load;
          Alcotest.test_case "save error path" `Quick test_spec_io_save_error;
          Alcotest.test_case "load error path" `Quick test_spec_io_load_error;
          Alcotest.test_case "comments and defaults" `Quick
            test_spec_io_comments_and_defaults;
        ] );
      ( "svg",
        [
          Alcotest.test_case "well-formed design svg" `Quick
            test_svg_well_formed;
          Alcotest.test_case "markup escaped" `Quick test_svg_escapes_markup;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "stage model" `Quick test_stages_for_model;
          Alcotest.test_case "topology latency" `Quick
            test_pipelined_links_in_topology;
          Alcotest.test_case "end to end" `Slow
            test_pipelining_config_end_to_end;
        ] );
      ( "width sweep",
        [ Alcotest.test_case "16/32/64 bits" `Slow test_width_sweep ] );
      ( "report",
        [
          Alcotest.test_case "complete bill of materials" `Quick
            test_report_complete;
          Alcotest.test_case "link utilization bounded" `Quick
            test_report_link_utilization_bounded;
        ] );
      ( "scenario-aware",
        [
          Alcotest.test_case "weighted selection" `Quick
            test_scenario_weighted_selection;
        ] );
      ( "assignment ablation",
        [
          Alcotest.test_case "round-robin valid but worse" `Slow
            test_round_robin_valid_but_worse;
        ] );
    ]
