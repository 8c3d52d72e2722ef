module Flow = Noc_spec.Flow
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Scenario = Noc_spec.Scenario
module Core_spec = Noc_spec.Core_spec
module Power = Noc_models.Power
module Switch_model = Noc_models.Switch_model
module Ni_model = Noc_models.Ni_model
module Sync_model = Noc_models.Sync_model

type violation = {
  v_flow : Flow.t;
  v_switch : int;
  v_island : int;
}

let pp_violation ppf v =
  Format.fprintf ppf "flow %a transits sw%d in third island %d" Flow.pp
    v.v_flow v.v_switch v.v_island

(* ---------- the third-island rule ---------- *)

(* Every switch of the route that sits in an island other than the
   flow's two endpoint islands, in route order.  This is the one
   definition of the rule: [check_topology], the gating checks below and
   [Verify] all read it. *)
let rec transits_of_hops switches flow si di = function
  | [] -> []
  | sw :: rest -> (
    match switches.(sw).Topology.location with
    | Topology.Island isl when isl <> si && isl <> di ->
      { v_flow = flow; v_switch = sw; v_island = isl }
      :: transits_of_hops switches flow si di rest
    | Topology.Island _ | Topology.Intermediate ->
      transits_of_hops switches flow si di rest)

let route_transits vi topo (flow, route) =
  transits_of_hops topo.Topology.switches flow
    vi.Vi.of_core.(flow.Flow.src)
    vi.Vi.of_core.(flow.Flow.dst)
    route

let transits vi topo routes = List.concat_map (route_transits vi topo) routes

let check_topology vi topo =
  match
    transits vi topo (topo.Topology.routes @ topo.Topology.backup_routes)
  with
  | [] -> Ok ()
  | violations -> Error violations

(* A transit breaks a live flow under a gating exactly when its island
   is gated and neither endpoint island is (a flow with a gated endpoint
   is off by design). *)
let blocks vi gated v =
  gated.(v.v_island)
  && (not gated.(vi.Vi.of_core.(v.v_flow.Flow.src)))
  && not gated.(vi.Vi.of_core.(v.v_flow.Flow.dst))

let gated_mask vi gated =
  let mask = Array.make vi.Vi.islands false in
  List.iter
    (fun isl ->
      if isl < 0 || isl >= vi.Vi.islands then
        invalid_arg "Shutdown.survives_gating: bad island id";
      mask.(isl) <- true)
    gated;
  mask

let survives_gating vi topo ~gated =
  let mask = gated_mask vi gated in
  match List.filter (blocks vi mask) (transits vi topo topo.Topology.routes) with
  | [] -> Ok ()
  | violations -> Error violations

(* ---------- the island-leakage rule ---------- *)

(* The NoC leakage gated together with each island, indexed by island,
   in one pass over the topology: the island's switches in switch order,
   then the NIs of its cores in core order, then the converters it owns
   in (src, dst) link order.  A converter belongs to its source switch's
   island, or to the destination's when the source sits in the
   intermediate VI, so summing over islands never double-counts.  Each
   island's accumulator gets exactly the additions, in the same order,
   that a walk over that island alone would make, so every entry is the
   same float bit for bit. *)
let island_noc_leakages config vi topo =
  let tech = config.Config.tech in
  let flit_bits = topo.Topology.flit_bits in
  let switches = topo.Topology.switches in
  let islands = vi.Vi.islands in
  let owned isl = isl >= 0 && isl < islands in
  let total = Array.make islands 0.0 in
  Array.iter
    (fun sw ->
      match sw.Topology.location with
      | Topology.Island isl when owned isl ->
        let cfg =
          {
            Switch_model.inputs = max 1 (Topology.in_ports topo sw.Topology.sw_id);
            outputs = max 1 (Topology.out_ports topo sw.Topology.sw_id);
            flit_bits;
            buffer_depth = config.Config.buffer_depth;
          }
        in
        total.(isl) <-
          total.(isl) +. Switch_model.leakage_mw tech cfg ~vdd:sw.Topology.vdd
      | Topology.Island _ | Topology.Intermediate -> ())
    switches;
  Array.iteri
    (fun core sw ->
      let isl = vi.Vi.of_core.(core) in
      if owned isl then
        total.(isl) <-
          total.(isl)
          +. Ni_model.leakage_mw tech ~flit_bits ~vdd:switches.(sw).Topology.vdd)
    topo.Topology.core_switch;
  Noc_graph.Flat.iter
    (fun _ _ link ->
      if link.Topology.crossing then begin
        let src = switches.(link.Topology.link_src)
        and dst = switches.(link.Topology.link_dst) in
        let owner =
          match (src.Topology.location, dst.Topology.location) with
          | Topology.Island isl, _ | Topology.Intermediate, Topology.Island isl
            ->
            isl
          | Topology.Intermediate, Topology.Intermediate -> -1
        in
        if owned owner then begin
          let vdd = Float.max src.Topology.vdd dst.Topology.vdd in
          total.(owner) <-
            total.(owner)
            +. Sync_model.leakage_mw tech ~flit_bits
                 ~depth:Sync_model.default_depth ~vdd
        end
      end)
    topo.Topology.links;
  total

let island_noc_leakage_mw config vi topo ~island =
  if island < 0 || island >= vi.Vi.islands then
    invalid_arg "Shutdown.island_noc_leakage_mw: bad island";
  (island_noc_leakages config vi topo).(island)

(* ---------- scenario power accounting ---------- *)

type scenario_row = {
  scenario : Scenario.t;
  gated : int list;
  power_without_shutdown_mw : float;
  power_with_shutdown_mw : float;
  savings_fraction : float;
}

type report = {
  rows : scenario_row list;
  weighted_savings_fraction : float;
  weighted_power_mw : float;
  full_power_mw : float;
}

module Scoring = struct
  (* What one scenario contributes independently of the design point. *)
  type part = {
    scenario : Scenario.t;
    gated : int list;
    mask : bool array;  (* [gated] as a per-island mask *)
    cores_mw : float;  (* used cores' dynamic + every core's leakage *)
    activity : float;  (* share of the spec's bandwidth still flowing *)
  }

  type t = {
    config : Config.t;
    vi : Vi.t;
    parts : part array;  (* in the given scenario order *)
    canonical : int array;  (* [parts] indices in name-sorted order *)
    rest : float;  (* duty left to all-on operation *)
    all_cores_mw : float;  (* every core's dynamic + leakage *)
    island_core_leak : float array;
  }

  let prepare config soc vi ~scenarios =
    Scenario.validate_duties scenarios;
    let total_flow_bw =
      List.fold_left (fun acc f -> acc +. f.Flow.bandwidth_mbps) 0.0
        soc.Soc_spec.flows
    in
    let all_core_leak = Soc_spec.total_core_leakage_mw soc in
    let part scenario =
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
      let gated = Scenario.gated_islands scenario vi in
      {
        scenario;
        gated;
        mask = gated_mask vi gated;
        cores_mw = core_dynamic +. all_core_leak;
        activity =
          (if total_flow_bw > 0.0 then active_bw /. total_flow_bw else 0.0);
      }
    in
    let parts = Array.of_list (List.map part scenarios) in
    (* The weighted folds run in canonical (name-sorted) order: float
       addition is not associative, so folding in list order would make
       the totals depend on scenario-list permutation. *)
    let canonical =
      List.init (Array.length parts) Fun.id
      |> List.sort (fun a b ->
             String.compare parts.(a).scenario.Scenario.name
               parts.(b).scenario.Scenario.name)
      |> Array.of_list
    in
    let duty_total =
      Array.fold_left
        (fun a i -> a +. parts.(i).scenario.Scenario.duty)
        0.0 canonical
    in
    {
      config;
      vi;
      parts;
      canonical;
      rest = Float.max 0.0 (1.0 -. duty_total);
      all_cores_mw = Soc_spec.total_core_dynamic_mw soc +. all_core_leak;
      island_core_leak =
        Array.init vi.Vi.islands (fun island ->
            List.fold_left
              (fun a core -> a +. soc.Soc_spec.cores.(core).Core_spec.leakage_mw)
              0.0
              (Vi.cores_of_island vi island));
    }

  (* One design point: the all-on power, and each scenario's power
     without and with its islands gated, in [parts] order. *)
  let powers t point =
    let noc_power = point.Design_point.power in
    let noc_dynamic = Power.dynamic_mw noc_power in
    let noc_leakage = Power.leakage_mw noc_power in
    let noc_leak = island_noc_leakages t.config t.vi point.Design_point.topology in
    let without =
      Array.map
        (fun p -> p.cores_mw +. (noc_dynamic *. p.activity) +. noc_leakage)
        t.parts
    in
    let saved =
      Array.map
        (fun p ->
          List.fold_left
            (fun acc island ->
              acc +. t.island_core_leak.(island) +. noc_leak.(island))
            0.0 p.gated)
        t.parts
    in
    let full = t.all_cores_mw +. noc_dynamic +. noc_leakage in
    (full, without, saved)

  (* The duty-weighted mean of a per-scenario power, the residual duty
     charged at the all-on power [full]. *)
  let weighted t full per_scenario =
    let acc = ref 0.0 in
    for j = 0 to Array.length t.canonical - 1 do
      let i = t.canonical.(j) in
      acc := !acc +. (t.parts.(i).scenario.Scenario.duty *. per_scenario.(i))
    done;
    !acc +. (t.rest *. full)

  let weighted_power_mw t point =
    let full, without, saved = powers t point in
    weighted t full (Array.map2 ( -. ) without saved)

  let report t point =
    let full, without, saved = powers t point in
    let with_shutdown = Array.map2 ( -. ) without saved in
    let rows =
      List.init (Array.length t.parts) (fun i ->
          let p = t.parts.(i) in
          {
            scenario = p.scenario;
            gated = p.gated;
            power_without_shutdown_mw = without.(i);
            power_with_shutdown_mw = with_shutdown.(i);
            savings_fraction =
              (if without.(i) > 0.0 then saved.(i) /. without.(i) else 0.0);
          })
    in
    let avg_without = weighted t full without in
    let avg_with = weighted t full with_shutdown in
    {
      rows;
      weighted_savings_fraction =
        (if avg_without > 0.0 then (avg_without -. avg_with) /. avg_without
         else 0.0);
      weighted_power_mw = avg_with;
      full_power_mw = full;
    }

  let survives t topo =
    match transits t.vi topo topo.Topology.routes with
    | [] -> true
    | transits ->
      Array.for_all
        (fun p -> not (List.exists (blocks t.vi p.mask) transits))
        t.parts
end

let leakage_report config soc vi point ~scenarios =
  Scoring.report (Scoring.prepare config soc vi ~scenarios) point

let weighted_power_mw config soc vi point ~scenarios =
  Scoring.weighted_power_mw (Scoring.prepare config soc vi ~scenarios) point

let pp_report ppf report =
  Format.fprintf ppf "@[<v>shutdown leakage analysis:";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "@,  %-16s duty %3.0f%%  gated [%a]  %.1f -> %.1f mW  (-%.1f%%)"
        r.scenario.Scenario.name
        (100.0 *. r.scenario.Scenario.duty)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        r.gated r.power_without_shutdown_mw r.power_with_shutdown_mw
        (100.0 *. r.savings_fraction))
    report.rows;
  Format.fprintf ppf "@,  duty-weighted total power reduction: %.1f%%@]"
    (100.0 *. report.weighted_savings_fraction)
