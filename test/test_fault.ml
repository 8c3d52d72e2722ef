(* Tests for the fault layer: the fault model, deterministic campaign
   generators, the survivability analyzer's transactional repair, protected
   (backup-route) synthesis, and simulator failover. *)

module Flow = Noc_spec.Flow
module Topology = Noc_synthesis.Topology
module Synth = Noc_synthesis.Synth
module DP = Noc_synthesis.Design_point
module Verify = Noc_synthesis.Verify
module Path_alloc = Noc_synthesis.Path_alloc
module Bench_case = Noc_benchmarks.Bench_case
module Fault_model = Noc_fault.Fault_model
module Campaign = Noc_fault.Campaign
module Survivability = Noc_fault.Survivability
module Metrics = Noc_exec.Metrics

let config = Noc_synthesis.Config.default
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let flow_key f = (f.Flow.src, f.Flow.dst)

(* memoized synthesis: several tests share the same designs *)
let setup name ~protect =
  lazy
    (let case = Bench_case.find name in
     let soc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
     let result =
       Synth.run
         ~options:{ Synth.Options.default with Synth.Options.protect }
         config soc vi
     in
     (soc, vi, result))

let d12 = setup "d12" ~protect:false
let d16 = setup "d16" ~protect:false
let d12_protected = setup "d12" ~protect:true

let topo_of (_, _, result) = (Synth.best_power result).DP.topology

(* ---------- fault model ---------- *)

let test_mask () =
  let m = Fault_model.mask [ Dead_switch 3; Dead_link (0, 1) ] in
  checkb "dead switch" true (m.Path_alloc.dead_switch 3);
  checkb "live switch" false (m.Path_alloc.dead_switch 0);
  checkb "dead link" true (m.Path_alloc.dead_link 0 1);
  checkb "reverse direction lives" false (m.Path_alloc.dead_link 1 0);
  (* links touching a dead switch die with it *)
  checkb "link into dead switch" true (m.Path_alloc.dead_link 0 3);
  checkb "link out of dead switch" true (m.Path_alloc.dead_link 3 5);
  checkb "route through dead switch" true
    (Fault_model.route_affected m [ 0; 3; 5 ]);
  checkb "route over dead link" true (Fault_model.route_affected m [ 0; 1 ]);
  checkb "clean route" false (Fault_model.route_affected m [ 4; 5; 6 ])

let test_campaign_shapes () =
  let topo = topo_of (Lazy.force d12) in
  let switches = Array.length topo.Topology.switches in
  let links = List.length (Topology.links_list topo) in
  checki "one set per switch" switches
    (List.length (Campaign.single_switch topo));
  checki "one set per link" links (List.length (Campaign.single_link topo));
  checki "universe covers both" (switches + links)
    (List.length (Campaign.universe topo));
  List.iter
    (fun sets -> List.iter (fun s -> checki "singleton" 1 (List.length s)) sets)
    [ Campaign.single_switch topo; Campaign.single_link topo ]

let test_campaign_random_deterministic () =
  let topo = topo_of (Lazy.force d12) in
  let a = Campaign.random_k ~seed:7 ~k:2 ~count:16 topo in
  let b = Campaign.random_k ~seed:7 ~k:2 ~count:16 topo in
  checkb "same seed, same campaign" true (a = b);
  let c = Campaign.random_k ~seed:8 ~k:2 ~count:16 topo in
  checkb "different seed, different campaign" true (a <> c);
  checki "count respected" 16 (List.length a);
  List.iter
    (fun s ->
      checki "k faults per set" 2 (List.length s);
      checkb "faults distinct" true (List.nth s 0 <> List.nth s 1))
    a;
  (* k is clamped to the universe *)
  let huge = Campaign.random_k ~k:10_000 ~count:1 topo in
  checki "k clamped" (List.length (Campaign.universe topo))
    (List.length (List.hd huge));
  (match Campaign.random_k ~k:0 ~count:1 topo with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "k = 0 must raise");
  match Campaign.random_k ~k:1 ~count:(-1) topo with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count must raise"

(* ---------- survivability analyzer ---------- *)

let test_analyze_no_fault () =
  let ((soc, vi, _) as d) = Lazy.force d12 in
  let _, _, result = d in
  let topo = topo_of d in
  let o = Survivability.analyze config topo ~clocks:result.Synth.clocks [] in
  checki "no flow affected" (List.length topo.Topology.routes)
    o.Survivability.unaffected;
  checki "none lost" 0 o.Survivability.lost;
  checkb "survivor verifies" true
    (Verify.check_all config soc vi o.Survivability.topology = Ok ())

let test_analyze_counters () =
  let ((_, _, result) as d) = Lazy.force d12 in
  let topo = topo_of d in
  let before = Metrics.counter_value "fault.injected" in
  let faults = [ Fault_model.Dead_switch 0; Fault_model.Dead_link (0, 1) ] in
  ignore (Survivability.analyze config topo ~clocks:result.Synth.clocks faults);
  checki "fault.injected counts the set" (before + 2)
    (Metrics.counter_value "fault.injected")

(* The tentpole property: repairing any single-switch fault leaves the
   survivor topology either fully verified (nothing lost) or verified up
   to exactly the flows it explicitly declared Lost — never corrupt. *)
let prop_single_switch_repair_never_corrupts =
  QCheck.Test.make ~count:60
    ~name:"single-switch repair verifies or is an explicit Lost"
    QCheck.(pair bool small_nat)
    (fun (use_d16, sw_choice) ->
      let ((soc, vi, result) as d) =
        Lazy.force (if use_d16 then d16 else d12)
      in
      let topo = topo_of d in
      let sw = sw_choice mod Array.length topo.Topology.switches in
      let o =
        Survivability.analyze config topo ~clocks:result.Synth.clocks
          [ Fault_model.Dead_switch sw ]
      in
      let total = List.length topo.Topology.routes in
      let accounted =
        o.Survivability.unaffected + o.Survivability.repaired
        + o.Survivability.lost
        = total
      in
      let lost_keys =
        List.filter_map
          (fun fo ->
            if fo.Survivability.verdict = Survivability.Lost then
              Some (flow_key fo.Survivability.flow)
            else None)
          o.Survivability.flows
      in
      let verified =
        match Verify.check_all config soc vi o.Survivability.topology with
        | Ok () -> o.Survivability.lost = 0
        | Error violations ->
          o.Survivability.lost > 0
          && List.for_all
               (function
                 | Verify.Unrouted_flow f -> List.mem (flow_key f) lost_keys
                 | _ -> false)
               violations
      in
      (* the input topology is never touched: analyze works on a copy *)
      let input_intact = Verify.check_all config soc vi topo = Ok () in
      accounted && verified && input_intact)

(* ---------- protected synthesis ---------- *)

let test_protected_backups_verify () =
  let ((soc, vi, _) as d) = Lazy.force d12_protected in
  let topo = topo_of d in
  checkb "protection contract holds" true
    (Verify.check_all ~require_backups:true config soc vi topo = Ok ());
  (* spot-check the disjointness by hand *)
  let links route =
    let rec go acc = function
      | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
      | [ _ ] | [] -> acc
    in
    go [] route
  in
  List.iter
    (fun (flow, primary) ->
      match primary with
      | [ _ ] -> ()
      | _ ->
        (match Topology.backup_route topo flow with
         | None -> Alcotest.failf "flow %d->%d has no backup" flow.Flow.src flow.Flow.dst
         | Some backup ->
           List.iter
             (fun l ->
               checkb "backup shares no directed link with primary" false
                 (List.mem l (links primary)))
             (links backup)))
    topo.Topology.routes

let test_protected_single_link_zero_lost () =
  let ((_, _, result) as d) = Lazy.force d12_protected in
  let topo = topo_of d in
  let outcomes =
    Survivability.run config topo ~clocks:result.Synth.clocks
      (Campaign.single_link topo)
  in
  let s = Survivability.summarize outcomes in
  checki "no flow lost to any single link fault" 0
    s.Survivability.total_lost

let test_protected_switch_losses_are_endpoint_only () =
  let ((_, _, result) as d) = Lazy.force d12_protected in
  let topo = topo_of d in
  let outcomes =
    Survivability.run config topo ~clocks:result.Synth.clocks
      (Campaign.single_switch topo)
  in
  let s = Survivability.summarize outcomes in
  checki "every loss is a dead NI switch" s.Survivability.total_endpoint_lost
    s.Survivability.total_lost

let test_campaign_parallel_deterministic () =
  let ((_, _, result) as d) = Lazy.force d16 in
  let topo = topo_of d in
  let campaign = Campaign.single_switch topo in
  let json domains =
    Survivability.to_json ~benchmark:"d16" ~campaign:"single-switch"
      ~protected:false
      (Survivability.run
         ~options:{ Survivability.Options.domains = Some domains }
         config topo ~clocks:result.Synth.clocks campaign)
  in
  Alcotest.(check string) "1 domain vs 4 domains byte-identical" (json 1)
    (json 4)

(* ---------- simulator failover ---------- *)

(* a link in the middle of the fabric that carries at least one primary *)
let faulted_link topo =
  let rec first_multihop = function
    | (_, (_ :: _ :: _ as route)) :: _ -> route
    | _ :: rest -> first_multihop rest
    | [] -> Alcotest.fail "no multi-hop route to break"
  in
  match first_multihop topo.Topology.routes with
  | a :: b :: _ -> Fault_model.Dead_link (a, b)
  | _ -> assert false

let test_sim_failover_protected_delivers () =
  let ((soc, vi, _) as dp) = Lazy.force d12_protected in
  let ((soc_u, vi_u, _) as du) = Lazy.force d12 in
  let protected_topo = topo_of dp and unprotected_topo = topo_of du in
  let run soc vi topo =
    Noc_sim.Sim.run_with_fault ~fault:(faulted_link topo) ~at:2_000.0 soc vi
      topo
  in
  let rp = run soc vi protected_topo in
  let ru = run soc_u vi_u unprotected_topo in
  checkb "unprotected run loses flits" true (ru.Noc_sim.Stats.total_lost > 0);
  checkb "protected keeps delivering" true
    (rp.Noc_sim.Stats.total_delivered > 0);
  (* failover bounds the damage to the flits in flight at the fault *)
  checkb "protection loses fewer flits" true
    (rp.Noc_sim.Stats.total_lost < ru.Noc_sim.Stats.total_lost)

let test_sim_fault_time_validated () =
  let ((soc, vi, _) as d) = Lazy.force d12 in
  let topo = topo_of d in
  match
    Noc_sim.Sim.run_with_fault ~fault:(Fault_model.Dead_switch 0) ~at:(-1.0)
      soc vi topo
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative fault time must raise"

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_fault"
    [
      ( "model",
        [
          Alcotest.test_case "mask semantics" `Quick test_mask;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "exhaustive shapes" `Quick test_campaign_shapes;
          Alcotest.test_case "random is seeded" `Quick
            test_campaign_random_deterministic;
        ] );
      ( "survivability",
        [
          Alcotest.test_case "empty fault set" `Quick test_analyze_no_fault;
          Alcotest.test_case "metrics counters" `Quick test_analyze_counters;
          qt prop_single_switch_repair_never_corrupts;
          Alcotest.test_case "parallel campaign deterministic" `Slow
            test_campaign_parallel_deterministic;
        ] );
      ( "protection",
        [
          Alcotest.test_case "backups verify and are disjoint" `Quick
            test_protected_backups_verify;
          Alcotest.test_case "single-link faults lose nothing" `Quick
            test_protected_single_link_zero_lost;
          Alcotest.test_case "switch losses are dead NIs only" `Quick
            test_protected_switch_losses_are_endpoint_only;
        ] );
      ( "failover",
        [
          Alcotest.test_case "protected run out-delivers" `Quick
            test_sim_failover_protected_delivers;
          Alcotest.test_case "fault time validated" `Quick
            test_sim_fault_time_validated;
        ] );
    ]
