(* The scenario-scoring rules written the slow, obvious way: the identity
   oracle for [Shutdown]'s one-pass walks, as [Dijkstra_oracle] is for
   A*.  Every (scenario, gated island) pair walks the whole topology for
   that island's NoC leakage, counting a switch's NI ports from its
   attachment list and its link ports from the link list; every scenario
   rescans every primary route for the third-island rule; every report
   recomputes the scenario-only sums.  The float operations and their
   order are the library's, so the results must agree bit for bit. *)

module Topology = Noc_synthesis.Topology
module Shutdown = Noc_synthesis.Shutdown
module Config = Noc_synthesis.Config
module DP = Noc_synthesis.Design_point
module Flow = Noc_spec.Flow
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Scenario = Noc_spec.Scenario
module Core_spec = Noc_spec.Core_spec
module Power = Noc_models.Power
module Switch_model = Noc_models.Switch_model
module Ni_model = Noc_models.Ni_model
module Sync_model = Noc_models.Sync_model

let ports topo sw ~dir =
  List.length (Topology.attached_cores topo sw)
  + List.length
      (List.filter
         (fun l ->
           (match dir with `In -> l.Topology.link_dst | `Out -> l.Topology.link_src)
           = sw)
         (Topology.links_list topo))

let island_noc_leakage_mw config vi topo ~island =
  let tech = config.Config.tech in
  let flit_bits = topo.Topology.flit_bits in
  let total = ref 0.0 in
  Array.iter
    (fun sw ->
      if Topology.location_equal sw.Topology.location (Topology.Island island)
      then begin
        let cfg =
          {
            Switch_model.inputs = max 1 (ports topo sw.Topology.sw_id ~dir:`In);
            outputs = max 1 (ports topo sw.Topology.sw_id ~dir:`Out);
            flit_bits;
            buffer_depth = config.Config.buffer_depth;
          }
        in
        total := !total +. Switch_model.leakage_mw tech cfg ~vdd:sw.Topology.vdd
      end)
    topo.Topology.switches;
  Array.iteri
    (fun core sw ->
      if vi.Vi.of_core.(core) = island then
        total :=
          !total
          +. Ni_model.leakage_mw tech ~flit_bits
               ~vdd:topo.Topology.switches.(sw).Topology.vdd)
    topo.Topology.core_switch;
  List.iter
    (fun link ->
      if link.Topology.crossing then begin
        let location sw = topo.Topology.switches.(sw).Topology.location in
        let owner =
          match location link.Topology.link_src with
          | Topology.Island isl -> Some isl
          | Topology.Intermediate -> (
            match location link.Topology.link_dst with
            | Topology.Island isl -> Some isl
            | Topology.Intermediate -> None)
        in
        if owner = Some island then begin
          let vdd =
            Float.max
              topo.Topology.switches.(link.Topology.link_src).Topology.vdd
              topo.Topology.switches.(link.Topology.link_dst).Topology.vdd
          in
          total :=
            !total
            +. Sync_model.leakage_mw tech ~flit_bits
                 ~depth:Sync_model.default_depth ~vdd
        end
      end)
    (Topology.links_list topo);
  !total

let leakage_report config soc vi point ~scenarios : Shutdown.report =
  Scenario.validate_duties scenarios;
  let topo = point.DP.topology in
  let noc_dynamic = Power.dynamic_mw point.DP.power in
  let noc_leakage = Power.leakage_mw point.DP.power in
  let total_flow_bw =
    List.fold_left (fun acc f -> acc +. f.Flow.bandwidth_mbps) 0.0
      soc.Soc_spec.flows
  in
  let all_core_leak = Soc_spec.total_core_leakage_mw soc in
  let full_power =
    Soc_spec.total_core_dynamic_mw soc +. all_core_leak +. noc_dynamic
    +. noc_leakage
  in
  let row scenario : Shutdown.scenario_row =
    let used = scenario.Scenario.used_cores in
    let core_dynamic =
      Array.fold_left ( +. ) 0.0
        (Array.mapi
           (fun core c -> if used.(core) then c.Core_spec.dynamic_mw else 0.0)
           soc.Soc_spec.cores)
    in
    let active_bw =
      List.fold_left
        (fun acc f ->
          if used.(f.Flow.src) && used.(f.Flow.dst) then
            acc +. f.Flow.bandwidth_mbps
          else acc)
        0.0 soc.Soc_spec.flows
    in
    let activity =
      if total_flow_bw > 0.0 then active_bw /. total_flow_bw else 0.0
    in
    let without =
      core_dynamic +. all_core_leak +. (noc_dynamic *. activity) +. noc_leakage
    in
    let gated = Scenario.gated_islands scenario vi in
    let saved =
      List.fold_left
        (fun acc island ->
          let core_leak =
            List.fold_left
              (fun a core -> a +. soc.Soc_spec.cores.(core).Core_spec.leakage_mw)
              0.0
              (Vi.cores_of_island vi island)
          in
          acc +. core_leak +. island_noc_leakage_mw config vi topo ~island)
        0.0 gated
    in
    {
      Shutdown.scenario;
      gated;
      power_without_shutdown_mw = without;
      power_with_shutdown_mw = without -. saved;
      savings_fraction = (if without > 0.0 then saved /. without else 0.0);
    }
  in
  let rows = List.map row scenarios in
  let canonical_rows =
    List.sort
      (fun (a : Shutdown.scenario_row) (b : Shutdown.scenario_row) ->
        String.compare a.Shutdown.scenario.Scenario.name
          b.Shutdown.scenario.Scenario.name)
      rows
  in
  let duty_total =
    List.fold_left
      (fun a (r : Shutdown.scenario_row) -> a +. r.Shutdown.scenario.Scenario.duty)
      0.0 canonical_rows
  in
  let rest = Float.max 0.0 (1.0 -. duty_total) in
  let weighted f =
    List.fold_left
      (fun acc (r : Shutdown.scenario_row) ->
        acc +. (r.Shutdown.scenario.Scenario.duty *. f r))
      0.0 canonical_rows
    +. (rest *. full_power)
  in
  let avg_without = weighted (fun r -> r.Shutdown.power_without_shutdown_mw) in
  let avg_with = weighted (fun r -> r.Shutdown.power_with_shutdown_mw) in
  {
    Shutdown.rows;
    weighted_savings_fraction =
      (if avg_without > 0.0 then (avg_without -. avg_with) /. avg_without
       else 0.0);
    weighted_power_mw = avg_with;
    full_power_mw = full_power;
  }

let survives_gating vi topo ~gated : (unit, Shutdown.violation list) result =
  let gated_set = Array.make vi.Vi.islands false in
  List.iter (fun isl -> gated_set.(isl) <- true) gated;
  let check (flow, route) =
    let si = vi.Vi.of_core.(flow.Flow.src) in
    let di = vi.Vi.of_core.(flow.Flow.dst) in
    if gated_set.(si) || gated_set.(di) then []
    else
      List.filter_map
        (fun sw ->
          match topo.Topology.switches.(sw).Topology.location with
          | Topology.Intermediate -> None
          | Topology.Island isl ->
            if isl <> si && isl <> di && gated_set.(isl) then
              Some { Shutdown.v_flow = flow; v_switch = sw; v_island = isl }
            else None)
        route
  in
  match List.concat_map check topo.Topology.routes with
  | [] -> Ok ()
  | violations -> Error violations
