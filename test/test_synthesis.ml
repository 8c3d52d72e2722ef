(* Tests for the synthesis core: frequency assignment, the topology data
   structure, switch allocation, path allocation, the full Algorithm 1
   sweep, the shutdown invariant and the baseline comparison. *)

module Config = Noc_synthesis.Config
module Freq_assign = Noc_synthesis.Freq_assign
module Topology = Noc_synthesis.Topology
module Switch_alloc = Noc_synthesis.Switch_alloc
module Path_alloc = Noc_synthesis.Path_alloc
module Design_point = Noc_synthesis.Design_point
module Synth = Noc_synthesis.Synth
module Shutdown = Noc_synthesis.Shutdown
module Baseline = Noc_synthesis.Baseline
module Explore = Noc_synthesis.Explore
module Flow = Noc_spec.Flow
module Vi = Noc_spec.Vi
module Vcg = Noc_spec.Vcg
module Soc_spec = Noc_spec.Soc_spec
module Core_spec = Noc_spec.Core_spec
module Power = Noc_models.Power
module Geometry = Noc_floorplan.Geometry

let config = Config.default
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf tol = Alcotest.(check (float tol))

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let d26 = Noc_benchmarks.D26.soc
let d26_vi6 = Noc_benchmarks.D26.logical_partition ~islands:6

(* a tiny 4-core SoC used by the unit tests below *)
let tiny_soc ?(lat = 20) () =
  let core id =
    Core_spec.make ~id ~name:(Printf.sprintf "c%d" id)
      ~kind:Core_spec.Processor ~area_mm2:2.0 ~freq_mhz:300.0 ~dynamic_mw:30.0
      ()
  in
  Soc_spec.make ~name:"tiny"
    ~cores:(Array.init 4 core)
    ~flows:
      [
        Flow.make ~src:0 ~dst:1 ~bw:600.0 ~lat;
        Flow.make ~src:1 ~dst:0 ~bw:400.0 ~lat;
        Flow.make ~src:2 ~dst:3 ~bw:300.0 ~lat;
        Flow.make ~src:0 ~dst:2 ~bw:100.0 ~lat;
      ]
    ()

let tiny_vi = Vi.make ~islands:2 ~of_core:[| 0; 0; 1; 1 |] ()

(* ---------- Freq_assign ---------- *)

let test_freq_assign_tiny () =
  let soc = tiny_soc () in
  let clocks = Freq_assign.assign config soc tiny_vi in
  checki "one clock per island" 2 (Array.length clocks);
  (* island 0's hottest core link is 600 MB/s; at 32-bit links and 75%
     utilization that needs 600/0.75/4 = 200 MHz *)
  checkf 1e-6 "island 0 clock" 200.0 clocks.(0).Freq_assign.freq_mhz;
  checkf 1e-6 "island 1 clock" 100.0
    (Float.max clocks.(1).Freq_assign.freq_mhz Freq_assign.floor_freq_mhz);
  checkb "arity cap positive" true (clocks.(0).Freq_assign.max_arity >= 2);
  checki "min switches" 1 clocks.(0).Freq_assign.min_switches

let test_freq_assign_infeasible () =
  (* a flow so hot that even a 2x2 switch cannot clock high enough *)
  let core id =
    Core_spec.make ~id ~name:"x" ~kind:Core_spec.Memory ~area_mm2:1.0
      ~freq_mhz:1000.0 ~dynamic_mw:10.0 ()
  in
  let soc =
    Soc_spec.make ~name:"hot"
      ~cores:(Array.init 2 core)
      ~flows:[ Flow.make ~src:0 ~dst:1 ~bw:50_000.0 ~lat:10 ]
      ()
  in
  match Freq_assign.assign config soc (Vi.single_island ~cores:2) with
  | exception Freq_assign.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_intermediate_clock () =
  let clocks = Freq_assign.assign config (tiny_soc ()) tiny_vi in
  let inter = Freq_assign.intermediate_clock config clocks in
  let max_freq =
    Array.fold_left
      (fun acc c -> Float.max acc c.Freq_assign.freq_mhz)
      0.0 clocks
  in
  checkf 1e-9 "intermediate runs at the fastest island clock" max_freq
    inter.Freq_assign.freq_mhz;
  checki "island id sentinel" (-1) inter.Freq_assign.island

let test_cores_per_switch_cap () =
  let clock =
    {
      Freq_assign.island = 0;
      freq_mhz = 200.0;
      vdd = 0.7;
      max_arity = 8;
      min_switches = 1;
    }
  in
  checki "reserve when external" 7
    (Freq_assign.cores_per_switch_cap clock ~has_external:true);
  checki "no reserve when isolated" 8
    (Freq_assign.cores_per_switch_cap clock ~has_external:false)

(* ---------- Topology ---------- *)

let mk_topology () =
  let position = Geometry.point 0.0 0.0 in
  let sw id location freq =
    { Topology.sw_id = id; location; freq_mhz = freq; vdd = 0.8; position }
  in
  Topology.create ~islands:2
    ~switches:
      [|
        sw 0 (Topology.Island 0) 400.0;
        sw 1 (Topology.Island 1) 300.0;
        sw 2 Topology.Intermediate 400.0;
      |]
    ~core_switch:[| 0; 0; 1; 1 |] ~flit_bits:32

let test_topology_create_validation () =
  let position = Geometry.point 0.0 0.0 in
  let sw id location =
    { Topology.sw_id = id; location; freq_mhz = 100.0; vdd = 0.7; position }
  in
  expect_invalid "core on indirect switch" (fun () ->
      Topology.create ~islands:1
        ~switches:[| sw 0 Topology.Intermediate |]
        ~core_switch:[| 0 |] ~flit_bits:32);
  expect_invalid "switch id mismatch" (fun () ->
      Topology.create ~islands:1
        ~switches:[| sw 1 (Topology.Island 0) |]
        ~core_switch:[||] ~flit_bits:32);
  expect_invalid "unknown island" (fun () ->
      Topology.create ~islands:1
        ~switches:[| sw 0 (Topology.Island 3) |]
        ~core_switch:[||] ~flit_bits:32)

(* [ni_ports] reads a count built once by [Topology.create]; it must
   equal the attachment list it replaced, on every switch of every saved
   point and of the point's [Topology.copy], which shares the count. *)
let test_ni_ports_match_attachments () =
  let check_topo label topo =
    Array.iter
      (fun sw ->
        let id = sw.Topology.sw_id in
        let expected = List.length (Topology.attached_cores topo id) in
        if Topology.ni_ports topo id <> expected then
          Alcotest.failf "%s sw%d: ni_ports %d, attached cores %d" label id
            (Topology.ni_ports topo id) expected)
      topo.Topology.switches
  in
  let check_sweep label config soc vi =
    let options = { Synth.Options.default with Synth.Options.domains = Some 1 } in
    let r = Synth.run ~options config soc vi in
    checkb (label ^ " saves points") true (r.Synth.points <> []);
    List.iteri
      (fun i p ->
        let topo = p.Design_point.topology in
        let label = Printf.sprintf "%s point %d" label i in
        check_topo label topo;
        check_topo (label ^ " copy") (Topology.copy topo))
      r.Synth.points
  in
  let case = Noc_benchmarks.Bench_case.find "d26" in
  check_sweep "d26" config case.Noc_benchmarks.Bench_case.soc
    case.Noc_benchmarks.Bench_case.default_vi;
  let soc =
    Noc_benchmarks.Synth_gen.generate ~seed:1
      { Noc_benchmarks.Synth_gen.default_profile with cores = 64 }
  in
  check_sweep "gen64 pipelined"
    { config with Config.allow_link_pipelining = true }
    soc
    (Noc_benchmarks.Synth_gen.random_vi ~seed:1 ~islands:4 soc)

let test_topology_links_and_ports () =
  let t = mk_topology () in
  (* two cores on sw0 give it 2 NI inputs and outputs *)
  checki "ni ports" 2 (Topology.ni_ports t 0);
  checki "in = NIs" 2 (Topology.in_ports t 0);
  let link = Topology.add_link t ~src:0 ~dst:2 ~length_mm:2.0 in
  checkb "crossing to intermediate" true link.Topology.crossing;
  ignore (Topology.add_link t ~src:2 ~dst:1 ~length_mm:2.0);
  checki "out grew" 3 (Topology.out_ports t 0);
  checki "arity" 3 (Topology.arity t 0);
  expect_invalid "duplicate link" (fun () ->
      Topology.add_link t ~src:0 ~dst:2 ~length_mm:1.0);
  expect_invalid "self link" (fun () ->
      Topology.add_link t ~src:0 ~dst:0 ~length_mm:1.0)

let test_topology_routes () =
  let t = mk_topology () in
  ignore (Topology.add_link t ~src:0 ~dst:2 ~length_mm:2.0);
  ignore (Topology.add_link t ~src:2 ~dst:1 ~length_mm:2.0);
  let flow = Flow.make ~src:0 ~dst:2 ~bw:100.0 ~lat:30 in
  Topology.commit_flow t flow ~route:[ 0; 2; 1 ];
  (match Topology.find_link t ~src:0 ~dst:2 with
   | Some l -> checkf 1e-9 "bandwidth charged" 100.0 l.Topology.bw_mbps
   | None -> Alcotest.fail "link lost");
  (* 3 switches x2 + 2 links + 2 crossings x4 = 16 *)
  checki "route latency" 16 (Topology.route_latency_cycles t [ 0; 2; 1 ]);
  checki "crossings" 2 (Topology.crossings_of_route t [ 0; 2; 1 ]);
  checkf 1e-9 "average over one route" 16.0 (Topology.average_latency_cycles t);
  (match Topology.max_latency_violation t with
   | None -> ()
   | Some _ -> Alcotest.fail "30-cycle budget holds");
  let tight = Flow.make ~src:1 ~dst:3 ~bw:10.0 ~lat:10 in
  expect_invalid "route must end at dst switch" (fun () ->
      Topology.commit_flow t tight ~route:[ 0; 2 ]);
  Topology.commit_flow t tight ~route:[ 0; 2; 1 ];
  match Topology.max_latency_violation t with
  | Some (f, excess) ->
    checki "violating flow" 3 f.Flow.dst;
    checki "excess" 6 excess
  | None -> Alcotest.fail "expected violation"

(* ---------- Topology undo journal ---------- *)

let test_checkpoint_rollback () =
  let t = mk_topology () in
  let l02 = Topology.add_link t ~src:0 ~dst:2 ~length_mm:2.0 in
  ignore (Topology.add_link t ~src:2 ~dst:1 ~length_mm:2.0);
  let f1 = Flow.make ~src:0 ~dst:2 ~bw:100.0 ~lat:30 in
  Topology.commit_flow t f1 ~route:[ 0; 2; 1 ];
  let cp = Topology.checkpoint t in
  Topology.commit_flow t
    (Flow.make ~src:1 ~dst:3 ~bw:50.0 ~lat:30)
    ~route:[ 0; 2; 1 ];
  ignore (Topology.add_link t ~src:0 ~dst:1 ~length_mm:3.0);
  checkf 1e-9 "charged" 150.0 l02.Topology.bw_mbps;
  checki "out ports grew" 4 (Topology.out_ports t 0);
  Topology.rollback t cp;
  checkf 1e-9 "bandwidth restored" 100.0 l02.Topology.bw_mbps;
  checkb "speculative link gone" true
    (Topology.find_link t ~src:0 ~dst:1 = None);
  checki "routes restored" 1 (List.length t.Topology.routes);
  checki "out ports restored" 3 (Topology.out_ports t 0);
  (* rolling back to the same checkpoint again is a no-op *)
  Topology.rollback t cp;
  checki "still one route" 1 (List.length t.Topology.routes)

let test_remove_flow () =
  let t = mk_topology () in
  let l02 = Topology.add_link t ~src:0 ~dst:2 ~length_mm:2.0 in
  ignore (Topology.add_link t ~src:2 ~dst:1 ~length_mm:2.0);
  let f1 = Flow.make ~src:0 ~dst:2 ~bw:100.0 ~lat:30 in
  let f2 = Flow.make ~src:1 ~dst:3 ~bw:50.0 ~lat:30 in
  Topology.commit_flow t f1 ~route:[ 0; 2; 1 ];
  Topology.commit_flow t f2 ~route:[ 0; 2; 1 ];
  checkb "unknown flow" true
    (Topology.remove_flow t (Flow.make ~src:3 ~dst:0 ~bw:1.0 ~lat:30) = None);
  let cp = Topology.checkpoint t in
  (match Topology.remove_flow t f2 with
   | Some (route, dropped) ->
     checki "route returned" 3 (List.length route);
     checki "shared links survive" 0 (List.length dropped);
     checkf 1e-9 "discharged" 100.0 l02.Topology.bw_mbps
   | None -> Alcotest.fail "expected a committed route");
  (match Topology.remove_flow t f1 with
   | Some (_, dropped) ->
     checki "links dropped at zero bandwidth" 2 (List.length dropped)
   | None -> Alcotest.fail "expected a committed route");
  checkb "links gone" true (Topology.find_link t ~src:0 ~dst:2 = None);
  checki "no routes left" 0 (List.length t.Topology.routes);
  checki "out ports back to NIs" 2 (Topology.out_ports t 0);
  Topology.rollback t cp;
  checkb "links restored" true (Topology.find_link t ~src:0 ~dst:2 <> None);
  checkf 1e-9 "charges restored" 150.0 l02.Topology.bw_mbps;
  checki "routes restored" 2 (List.length t.Topology.routes)

let test_rollback_invalid_checkpoint () =
  let t = mk_topology () in
  let cp0 = Topology.checkpoint t in
  ignore (Topology.add_link t ~src:0 ~dst:2 ~length_mm:2.0);
  let cp1 = Topology.checkpoint t in
  Topology.rollback t cp0;
  expect_invalid "rolled-past checkpoint" (fun () -> Topology.rollback t cp1);
  ignore (Topology.add_link t ~src:0 ~dst:2 ~length_mm:2.0);
  let cp2 = Topology.checkpoint t in
  Topology.clear_journal t;
  expect_invalid "checkpoint invalidated by clear_journal" (fun () ->
      Topology.rollback t cp2);
  checkb "cleared journal keeps the edits" true
    (Topology.find_link t ~src:0 ~dst:2 <> None)

(* observable topology state: links with their charges, port counts and
   committed routes — everything rollback promises to restore *)
let observe t =
  ( List.map
      (fun l ->
        ( l.Topology.link_src,
          l.Topology.link_dst,
          l.Topology.bw_mbps,
          l.Topology.stages ))
      (Topology.links_list t),
    List.init
      (Array.length t.Topology.switches)
      (fun i -> (Topology.in_ports t i, Topology.out_ports t i)),
    List.map (fun (f, r) -> ((f.Flow.src, f.Flow.dst), r)) t.Topology.routes )

(* [remove_flows] is [remove_flow] over the list, in one pass: on saved
   d26 points and random flow subsets (duplicates, partial charges and
   an unrouted flow included), committed bandwidths (to the bit), links,
   ports and routes agree, and a rollback restores the point. *)
let d26_points =
  lazy
    (let case = Noc_benchmarks.Bench_case.find "d26" in
     (Synth.run config case.Noc_benchmarks.Bench_case.soc
        case.Noc_benchmarks.Bench_case.default_vi)
       .Synth.points)

let prop_remove_flows_is_remove_flow_each =
  QCheck.Test.make ~name:"remove_flows = remove_flow on each flow" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed; 0x4e30 |] in
      let points = Array.of_list (Lazy.force d26_points) in
      let topo =
        points.(Random.State.int rng (Array.length points)).Design_point.topology
      in
      let flows = List.map fst topo.Topology.routes in
      let routed a b =
        List.exists (fun f -> f.Flow.src = a && f.Flow.dst = b) flows
      in
      let unrouted =
        let cores = Array.length topo.Topology.core_switch in
        List.init cores (fun a -> List.init cores (fun b -> (a, b)))
        |> List.concat
        |> List.find (fun (a, b) -> a <> b && not (routed a b))
      in
      (* half the picks un-charge an odd fraction of the flow's
         bandwidth, so the result depends on the order of subtractions *)
      let pick f =
        if Random.State.bool rng then f
        else
          Flow.make ~src:f.Flow.src ~dst:f.Flow.dst
            ~bw:(f.Flow.bandwidth_mbps *. Random.State.float rng 1.0)
            ~lat:f.Flow.max_latency_cycles
      in
      let picked =
        List.map pick
          (List.filter (fun _ -> Random.State.bool rng) flows
          @ List.filter (fun _ -> Random.State.int rng 8 = 0) flows)
        @ [ Flow.make ~src:(fst unrouted) ~dst:(snd unrouted) ~bw:1.0 ~lat:30 ]
      in
      let bits_observe t =
        let links, ports, routes = observe t in
        ( List.map
            (fun (a, b, bw, stages) -> (a, b, Int64.bits_of_float bw, stages))
            links,
          ports,
          routes )
      in
      let each = Topology.copy topo and batch = Topology.copy topo in
      List.iter (fun f -> ignore (Topology.remove_flow each f)) picked;
      let cp = Topology.checkpoint batch in
      Topology.remove_flows batch picked;
      let same = bits_observe each = bits_observe batch in
      Topology.rollback batch cp;
      same && bits_observe batch = bits_observe topo)

let prop_rollback_restores_topology =
  QCheck.Test.make
    ~name:
      "checkpoint + random edits + rollback is observationally the identity"
    ~count:300
    QCheck.(small_list (pair (int_bound 2) (int_bound 11)))
    (fun ops ->
      let t = mk_topology () in
      (* pre-checkpoint state the rollback must preserve *)
      ignore (Topology.add_link t ~src:0 ~dst:2 ~length_mm:2.0);
      ignore (Topology.add_link t ~src:2 ~dst:1 ~length_mm:2.0);
      Topology.commit_flow t
        (Flow.make ~src:0 ~dst:2 ~bw:100.0 ~lat:30)
        ~route:[ 0; 2; 1 ];
      let before = observe t in
      let cp = Topology.checkpoint t in
      let flows =
        [|
          Flow.make ~src:0 ~dst:2 ~bw:80.0 ~lat:30;
          Flow.make ~src:0 ~dst:1 ~bw:50.0 ~lat:30;  (* same switch *)
          Flow.make ~src:1 ~dst:3 ~bw:75.0 ~lat:30;
          Flow.make ~src:2 ~dst:0 ~bw:60.0 ~lat:30;
          Flow.make ~src:3 ~dst:2 ~bw:40.0 ~lat:30;  (* same switch *)
        |]
      in
      let pairs = [| (0, 1); (1, 0); (1, 2); (0, 2); (2, 1); (2, 0) |] in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
            let src, dst = pairs.(k mod Array.length pairs) in
            (try ignore (Topology.add_link t ~src ~dst ~length_mm:1.5)
             with Invalid_argument _ -> () (* already exists *))
          | 1 ->
            let f = flows.(k mod Array.length flows) in
            if
              not
                (List.exists
                   (fun (g, _) ->
                     (g.Flow.src, g.Flow.dst) = (f.Flow.src, f.Flow.dst))
                   t.Topology.routes)
            then begin
              let ss = t.Topology.core_switch.(f.Flow.src) in
              let ds = t.Topology.core_switch.(f.Flow.dst) in
              let route =
                if ss = ds then [ ss ]
                else begin
                  if Topology.find_link t ~src:ss ~dst:ds = None then
                    ignore (Topology.add_link t ~src:ss ~dst:ds ~length_mm:1.0);
                  [ ss; ds ]
                end
              in
              Topology.commit_flow t f ~route
            end
          | _ -> ignore (Topology.remove_flow t flows.(k mod Array.length flows)))
        ops;
      Topology.rollback t cp;
      observe t = before)

let test_topology_single_switch_latency () =
  let t = mk_topology () in
  checki "same-switch flow costs one switch traversal" 2
    (Topology.route_latency_cycles t [ 0 ])

let test_topology_printers () =
  let best = Synth.best_power (Synth.run config d26 d26_vi6) in
  let topo = best.Design_point.topology in
  let netlist = Format.asprintf "%a" Topology.pp_netlist topo in
  checkb "netlist mentions the NoC VI or islands" true
    (String.length netlist > 200);
  let dot =
    Topology.to_dot topo ~core_name:(fun c ->
        d26.Soc_spec.cores.(c).Core_spec.name)
  in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i =
      i + n <= h && (String.sub haystack i n = needle || scan (i + 1))
    in
    scan 0
  in
  checkb "dot opens digraph" true (contains "digraph noc" dot);
  checkb "dot clusters islands" true (contains "subgraph cluster_0" dot);
  checkb "dot names cores" true (contains "arm_cpu0" dot);
  checkb "dot closes" true (contains "}" dot)

(* ---------- Path allocation on the benchmarks ---------- *)

let synth_best soc vi = Synth.best_power (Synth.run config soc vi)

(* Crafted congestion that only rip-up-and-reroute can untangle: the hot
   flow grabs the direct inter-island link first; the late tight-latency
   flow then finds that link full and the intermediate detour too slow.
   Recovery must rip up the hot flow, give the direct link to the tight
   flow, and push the hot flow through the intermediate switch. *)
let test_ripup_recovers_tight_flow () =
  let topo = mk_topology () in
  let clock island freq_mhz =
    { Freq_assign.island; freq_mhz; vdd = 0.8; max_arity = 8; min_switches = 1 }
  in
  let clocks = [| clock 0 400.0; clock 1 300.0 |] in
  (* link 0->1 capacity: 0.75 x min(400, 300) MHz x 4 B/flit = 900 MB/s *)
  let hot = Flow.make ~src:0 ~dst:2 ~bw:600.0 ~lat:30 in
  let tight = Flow.make ~src:1 ~dst:3 ~bw:400.0 ~lat:12 in
  let soc =
    Soc_spec.make ~name:"conflict"
      ~cores:(tiny_soc ()).Soc_spec.cores
      ~flows:[ hot; tight ] ()
  in
  match Path_alloc.route_all config soc topo ~clocks with
  | Error e -> Alcotest.failf "route_all failed: %a" Path_alloc.pp_error e
  | Ok stats ->
    checki "one rip-up" 1 stats.Path_alloc.ripups;
    checki "one reroute" 1 stats.Path_alloc.reroutes;
    checki "no rollback" 0 stats.Path_alloc.rollbacks;
    checki "no restart" 0 stats.Path_alloc.restarts;
    checki "both flows routed" 2 (List.length topo.Topology.routes);
    let route_of f =
      List.assoc_opt f
        (List.map
           (fun (g, r) -> ((g.Flow.src, g.Flow.dst), r))
           topo.Topology.routes)
    in
    Alcotest.(check (option (list int)))
      "tight flow owns the direct link"
      (Some [ 0; 1 ])
      (route_of (tight.Flow.src, tight.Flow.dst));
    Alcotest.(check (option (list int)))
      "hot flow detours through the intermediate switch"
      (Some [ 0; 2; 1 ])
      (route_of (hot.Flow.src, hot.Flow.dst));
    (match Topology.find_link topo ~src:0 ~dst:1 with
     | Some l -> checkf 1e-9 "direct link charge" 400.0 l.Topology.bw_mbps
     | None -> Alcotest.fail "direct link missing");
    (* port counters survived the rip-up: NIs + real links only *)
    checki "sw0 out ports" 4 (Topology.out_ports topo 0);
    checki "sw1 in ports" 4 (Topology.in_ports topo 1)

let test_route_all_infeasible_reports_error () =
  let topo = mk_topology () in
  let clock island freq_mhz =
    { Freq_assign.island; freq_mhz; vdd = 0.8; max_arity = 8; min_switches = 1 }
  in
  let clocks = [| clock 0 400.0; clock 1 300.0 |] in
  (* two hot flows that can never share any island-to-island cut *)
  let soc =
    Soc_spec.make ~name:"hopeless"
      ~cores:(tiny_soc ()).Soc_spec.cores
      ~flows:
        [
          Flow.make ~src:0 ~dst:2 ~bw:800.0 ~lat:12;
          Flow.make ~src:1 ~dst:3 ~bw:800.0 ~lat:12;
        ]
      ()
  in
  match Path_alloc.route_all config soc topo ~clocks with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an infeasible allocation"

(* The hop model is tabulated per location, so two switches of one
   island on different clocks must be refused, not priced wrongly. *)
let test_island_clock_mismatch_rejected () =
  let position = Geometry.point 0.0 0.0 in
  let sw id location freq =
    { Topology.sw_id = id; location; freq_mhz = freq; vdd = 0.8; position }
  in
  let topo =
    Topology.create ~islands:1
      ~switches:
        [| sw 0 (Topology.Island 0) 400.0; sw 1 (Topology.Island 0) 300.0 |]
      ~core_switch:[| 0; 1 |] ~flit_bits:32
  in
  let clocks =
    [|
      {
        Freq_assign.island = 0;
        freq_mhz = 400.0;
        vdd = 0.8;
        max_arity = 8;
        min_switches = 1;
      };
    |]
  in
  expect_invalid "switches of one island on two clocks" (fun () ->
      Path_alloc.session config topo ~clocks)

let test_routes_complete_and_capacitated () =
  let best = synth_best d26 d26_vi6 in
  let topo = best.Design_point.topology in
  checki "every flow routed"
    (List.length d26.Soc_spec.flows)
    (List.length topo.Topology.routes);
  (* link bandwidth within the utilization cap *)
  let clocks = Freq_assign.assign config d26 d26_vi6 in
  let inter = Freq_assign.intermediate_clock config clocks in
  let freq_of sw =
    match topo.Topology.switches.(sw).Topology.location with
    | Topology.Island i -> clocks.(i).Freq_assign.freq_mhz
    | Topology.Intermediate -> inter.Freq_assign.freq_mhz
  in
  List.iter
    (fun l ->
      let cap_mhz = Float.min (freq_of l.Topology.link_src) (freq_of l.Topology.link_dst) in
      let cap =
        config.Config.link_utilization_cap
        *. Noc_models.Units.bandwidth_mbps_of_frequency ~freq_mhz:cap_mhz
             ~flit_bits:32
      in
      if l.Topology.bw_mbps > cap +. 1e-6 then
        Alcotest.failf "link %d->%d over capacity: %g > %g" l.Topology.link_src
          l.Topology.link_dst l.Topology.bw_mbps cap)
    (Topology.links_list topo)

let test_ports_within_arity () =
  let best = synth_best d26 d26_vi6 in
  let topo = best.Design_point.topology in
  let clocks = Freq_assign.assign config d26 d26_vi6 in
  let inter = Freq_assign.intermediate_clock config clocks in
  Array.iter
    (fun sw ->
      let cap =
        match sw.Topology.location with
        | Topology.Island i -> clocks.(i).Freq_assign.max_arity
        | Topology.Intermediate -> inter.Freq_assign.max_arity
      in
      let arity = Topology.arity topo sw.Topology.sw_id in
      if arity > cap then
        Alcotest.failf "switch %d arity %d over cap %d" sw.Topology.sw_id
          arity cap)
    topo.Topology.switches

let test_latency_constraints_hold () =
  let best = synth_best d26 d26_vi6 in
  match Topology.max_latency_violation best.Design_point.topology with
  | None -> ()
  | Some (f, excess) ->
    Alcotest.failf "flow %d->%d misses budget by %d" f.Flow.src f.Flow.dst
      excess

(* ---------- Synth sweep ---------- *)

let test_synth_multiple_points () =
  let result = Synth.run config d26 d26_vi6 in
  checkb "several design points" true (List.length result.Synth.points > 5);
  checkb "tried at least as many" true
    (result.Synth.candidates_tried >= result.Synth.candidates_feasible);
  let best = Synth.best_power result in
  List.iter
    (fun p ->
      checkb "best_power is minimal" true
        (Power.total_mw best.Design_point.power
         <= Power.total_mw p.Design_point.power +. 1e-9))
    result.Synth.points;
  let fastest = Synth.best_latency result in
  List.iter
    (fun p ->
      checkb "best_latency is minimal" true
        (fastest.Design_point.avg_latency_cycles
         <= p.Design_point.avg_latency_cycles +. 1e-9))
    result.Synth.points

let test_synth_deterministic () =
  let p1 = synth_best d26 d26_vi6 in
  let p2 = synth_best d26 d26_vi6 in
  checkf 1e-12 "same power" (Power.total_mw p1.Design_point.power)
    (Power.total_mw p2.Design_point.power);
  checki "same switches" p1.Design_point.switch_count
    p2.Design_point.switch_count

let test_synth_infeasible_latency () =
  (* a 1-cycle latency budget cannot even cross a single switch *)
  let soc = tiny_soc ~lat:1 () in
  match Synth.run config soc tiny_vi with
  | exception Synth.No_feasible_design _ -> ()
  | _ -> Alcotest.fail "expected No_feasible_design"

let test_evaluate_requires_all_routes () =
  let t = mk_topology () in
  expect_invalid "unrouted flows rejected" (fun () ->
      Design_point.evaluate config (tiny_soc ()) t
        ~clocks:(Freq_assign.assign config (tiny_soc ()) tiny_vi))

(* ---------- Shutdown invariant ---------- *)

let test_invariant_all_benchmarks () =
  List.iter
    (fun case ->
      let soc = case.Noc_benchmarks.Bench_case.soc in
      let vi = case.Noc_benchmarks.Bench_case.default_vi in
      let best = synth_best soc vi in
      match Shutdown.check_topology vi best.Design_point.topology with
      | Ok () | Error [] -> ()
      | Error (v :: _) ->
        Alcotest.failf "%s: flow %d->%d transits island %d"
          case.Noc_benchmarks.Bench_case.name v.Shutdown.v_flow.Flow.src
          v.Shutdown.v_flow.Flow.dst v.Shutdown.v_island)
    Noc_benchmarks.Bench_case.all

let test_survives_every_single_gating () =
  let best = synth_best d26 d26_vi6 in
  let topo = best.Design_point.topology in
  for isl = 0 to d26_vi6.Vi.islands - 1 do
    if d26_vi6.Vi.shutdownable.(isl) then
      match Shutdown.survives_gating d26_vi6 topo ~gated:[ isl ] with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "gating island %d broke a live flow" isl
  done

let test_survives_scenario_gatings () =
  let best = synth_best d26 d26_vi6 in
  let topo = best.Design_point.topology in
  List.iter
    (fun s ->
      let gated = Noc_spec.Scenario.gated_islands s d26_vi6 in
      match Shutdown.survives_gating d26_vi6 topo ~gated with
      | Ok () -> ()
      | Error _ ->
        Alcotest.failf "scenario %s gating broke a live flow"
          s.Noc_spec.Scenario.name)
    Noc_benchmarks.D26.scenarios

let test_checker_catches_sabotage () =
  let best = synth_best d26 d26_vi6 in
  let topo = best.Design_point.topology in
  (* reroute some crossing flow through a third island's switch *)
  let flow, _ =
    List.find
      (fun (f, _) ->
        d26_vi6.Vi.of_core.(f.Flow.src) <> d26_vi6.Vi.of_core.(f.Flow.dst))
      topo.Topology.routes
  in
  let si = d26_vi6.Vi.of_core.(flow.Flow.src) in
  let di = d26_vi6.Vi.of_core.(flow.Flow.dst) in
  let third =
    List.find (fun i -> i <> si && i <> di)
      (List.init d26_vi6.Vi.islands (fun i -> i))
  in
  let foreign =
    (List.hd (Topology.switches_of_location topo (Topology.Island third)))
      .Topology.sw_id
  in
  let ss = topo.Topology.core_switch.(flow.Flow.src) in
  let ds = topo.Topology.core_switch.(flow.Flow.dst) in
  topo.Topology.routes <-
    List.map
      (fun (f, r) ->
        if f == flow then (f, [ ss; foreign; ds ]) else (f, r))
      topo.Topology.routes;
  match Shutdown.check_topology d26_vi6 topo with
  | Error (v :: _) -> checki "offending island" third v.Shutdown.v_island
  | Ok () | Error [] -> Alcotest.fail "checker missed a third-island traversal"

let test_island_leakage_partitioning () =
  let best = synth_best d26 d26_vi6 in
  let topo = best.Design_point.topology in
  let per_island =
    List.init d26_vi6.Vi.islands (fun island ->
        Shutdown.island_noc_leakage_mw config d26_vi6 topo ~island)
  in
  List.iter (fun l -> checkb "non-negative" true (l >= 0.0)) per_island;
  (* converters are attributed to exactly one island, so the per-island sum
     cannot exceed the design's total NoC leakage *)
  let total = Power.leakage_mw best.Design_point.power in
  checkb "no double counting" true
    (List.fold_left ( +. ) 0.0 per_island <= total +. 1e-6)

let test_leakage_report () =
  let best = synth_best d26 d26_vi6 in
  let report =
    Shutdown.leakage_report config d26 d26_vi6 best
      ~scenarios:Noc_benchmarks.D26.scenarios
  in
  checki "one row per scenario"
    (List.length Noc_benchmarks.D26.scenarios)
    (List.length report.Shutdown.rows);
  List.iter
    (fun row ->
      checkb "with <= without" true
        (row.Shutdown.power_with_shutdown_mw
         <= row.Shutdown.power_without_shutdown_mw +. 1e-9);
      checkb "savings sign" true (row.Shutdown.savings_fraction >= 0.0))
    report.Shutdown.rows;
  checkb "weighted savings positive" true
    (report.Shutdown.weighted_savings_fraction > 0.0)

(* ---------- Baseline ---------- *)

let test_baseline_has_no_crossings () =
  let base = Synth.best_power (Baseline.synthesize config d26) in
  checki "no converters" 0 base.Design_point.crossing_count;
  checki "no indirect switches" 0 base.Design_point.indirect_count

let test_overhead_comparison () =
  let vi_point = synth_best d26 d26_vi6 in
  let base_point = Synth.best_power (Baseline.synthesize config d26) in
  let c = Baseline.compare_designs d26 ~vi_point ~base_point in
  (* shutdown support costs something, but little at system scale *)
  checkb "power overhead positive" true (c.Baseline.system_dynamic_overhead > 0.0);
  checkb "power overhead small" true (c.Baseline.system_dynamic_overhead < 0.10);
  checkb "area overhead small" true
    (c.Baseline.system_area_overhead < 0.03
     && c.Baseline.system_area_overhead > -0.005)

(* ---------- Explore ---------- *)

let test_pareto_front () =
  let result = Synth.run config d26 d26_vi6 in
  let front = Explore.pareto result.Synth.points in
  checkb "front non-empty" true (front <> []);
  (* no front point dominated by any feasible point *)
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          let dominated =
            Power.total_mw q.Design_point.power
            < Power.total_mw p.Design_point.power -. 1e-9
            && q.Design_point.avg_latency_cycles
               < p.Design_point.avg_latency_cycles -. 1e-9
          in
          if dominated then Alcotest.fail "dominated point on the front")
        result.Synth.points)
    front;
  (* sorted by increasing power *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Power.total_mw a.Design_point.power
      <= Power.total_mw b.Design_point.power +. 1e-9
      && sorted rest
    | [ _ ] | [] -> true
  in
  checkb "front sorted" true (sorted front)

let test_island_sweep_skips_infeasible () =
  let soc = tiny_soc ~lat:1 () in
  let points =
    Explore.island_sweep config soc
      ~partitions:[ ("impossible", tiny_vi) ]
  in
  checki "infeasible partitions skipped" 0 (List.length points)

let prop_random_soc_synthesizes =
  QCheck.Test.make
    ~name:"random SoCs synthesize with every design rule intact" ~count:12
    QCheck.(pair (int_bound 100) (int_range 2 4))
    (fun (seed, islands) ->
      let soc =
        Noc_benchmarks.Synth_gen.generate ~seed
          { Noc_benchmarks.Synth_gen.default_profile with cores = 12 }
      in
      let vi = Noc_benchmarks.Synth_gen.random_vi ~seed ~islands soc in
      match
        Synth.run
          ~options:{ Synth.Options.default with Synth.Options.seed }
          config soc vi
      with
      | result ->
        let best = Synth.best_power result in
        (* the full verifier: routes, bandwidth accounting, ports, capacity,
           latency, timing, clocks and shutdown safety all re-derived *)
        Noc_synthesis.Verify.check config soc vi best.Design_point.topology
        = []
      | exception Synth.No_feasible_design _ -> true (* allowed *)
      | exception Freq_assign.Infeasible _ -> true)

let prop_random_soc_simulates =
  QCheck.Test.make
    ~name:"random SoCs: simulated zero-load equals the analytic model"
    ~count:6
    QCheck.(int_bound 100)
    (fun seed ->
      let soc =
        Noc_benchmarks.Synth_gen.generate ~seed
          { Noc_benchmarks.Synth_gen.default_profile with cores = 10 }
      in
      let vi = Noc_benchmarks.Synth_gen.random_vi ~seed ~islands:3 soc in
      match
        Synth.run
          ~options:{ Synth.Options.default with Synth.Options.seed }
          config soc vi
      with
      | result ->
        let best = Synth.best_power result in
        List.for_all
          (fun (_, sim, analytic) ->
            Float.abs (sim -. float_of_int analytic) < 1e-6)
          (Noc_sim.Sim.zero_load_check soc vi best.Design_point.topology)
      | exception Synth.No_feasible_design _ -> true
      | exception Freq_assign.Infeasible _ -> true)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_synthesis"
    [
      ( "freq_assign",
        [
          Alcotest.test_case "island clocks" `Quick test_freq_assign_tiny;
          Alcotest.test_case "infeasible hot flow" `Quick
            test_freq_assign_infeasible;
          Alcotest.test_case "intermediate clock" `Quick test_intermediate_clock;
          Alcotest.test_case "cores per switch" `Quick test_cores_per_switch_cap;
        ] );
      ( "topology",
        [
          Alcotest.test_case "validation" `Quick test_topology_create_validation;
          Alcotest.test_case "links and ports" `Quick test_topology_links_and_ports;
          Alcotest.test_case "ni_ports = attached cores on sweeps" `Quick
            test_ni_ports_match_attachments;
          Alcotest.test_case "routes" `Quick test_topology_routes;
          Alcotest.test_case "single switch latency" `Quick
            test_topology_single_switch_latency;
          Alcotest.test_case "printers" `Quick test_topology_printers;
        ] );
      ( "topology journal",
        [
          Alcotest.test_case "checkpoint and rollback" `Quick
            test_checkpoint_rollback;
          Alcotest.test_case "remove_flow" `Quick test_remove_flow;
          Alcotest.test_case "invalid checkpoints" `Quick
            test_rollback_invalid_checkpoint;
          qt prop_rollback_restores_topology;
          qt prop_remove_flows_is_remove_flow_each;
        ] );
      ( "path allocation",
        [
          Alcotest.test_case "complete and capacitated" `Quick
            test_routes_complete_and_capacitated;
          Alcotest.test_case "ports within arity" `Quick test_ports_within_arity;
          Alcotest.test_case "latency constraints" `Quick
            test_latency_constraints_hold;
          Alcotest.test_case "rip-up recovers a tight flow" `Quick
            test_ripup_recovers_tight_flow;
          Alcotest.test_case "infeasible allocation reported" `Quick
            test_route_all_infeasible_reports_error;
          Alcotest.test_case "island clock mismatch rejected" `Quick
            test_island_clock_mismatch_rejected;
        ] );
      ( "synth sweep",
        [
          Alcotest.test_case "multiple points, extremal picks" `Quick
            test_synth_multiple_points;
          Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
          Alcotest.test_case "infeasible latency" `Quick
            test_synth_infeasible_latency;
          Alcotest.test_case "evaluate needs all routes" `Quick
            test_evaluate_requires_all_routes;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "invariant on every benchmark" `Slow
            test_invariant_all_benchmarks;
          Alcotest.test_case "single-island gating" `Quick
            test_survives_every_single_gating;
          Alcotest.test_case "scenario gating" `Quick
            test_survives_scenario_gatings;
          Alcotest.test_case "checker catches sabotage" `Quick
            test_checker_catches_sabotage;
          Alcotest.test_case "island leakage partitioning" `Quick
            test_island_leakage_partitioning;
          Alcotest.test_case "leakage report" `Quick test_leakage_report;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "no crossings" `Quick test_baseline_has_no_crossings;
          Alcotest.test_case "overhead comparison" `Quick
            test_overhead_comparison;
        ] );
      ( "explore",
        [
          Alcotest.test_case "pareto front" `Quick test_pareto_front;
          Alcotest.test_case "sweep skips infeasible" `Quick
            test_island_sweep_skips_infeasible;
          qt prop_random_soc_synthesizes;
          qt prop_random_soc_simulates;
        ] );
    ]
