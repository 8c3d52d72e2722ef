module Json = Noc_exec.Json
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Core_spec = Noc_spec.Core_spec
module Units = Noc_models.Units
module Switch_model = Noc_models.Switch_model
module Ni_model = Noc_models.Ni_model
module Sync_model = Noc_models.Sync_model
module Power = Noc_models.Power
module Geometry = Noc_floorplan.Geometry

type t = {
  design_name : string;
  point : Design_point.t;
  vi : Vi.t;
}

let build soc vi point =
  { design_name = soc.Soc_spec.name; point; vi }

let link_utilization config topo link =
  let freq sw = topo.Topology.switches.(sw).Topology.freq_mhz in
  let cap_mhz =
    Float.min (freq link.Topology.link_src) (freq link.Topology.link_dst)
  in
  let cap =
    config.Config.link_utilization_cap
    *. Units.bandwidth_mbps_of_frequency ~freq_mhz:cap_mhz
         ~flit_bits:topo.Topology.flit_bits
  in
  if cap <= 0.0 then 0.0 else link.Topology.bw_mbps /. cap

let location_name islands = function
  | Topology.Island i ->
    if i >= 0 && i < islands then Printf.sprintf "VI%d" i else "VI?"
  | Topology.Intermediate -> "NoC-VI"

let pp config soc ppf report =
  let point = report.point in
  let topo = point.Design_point.topology in
  let tech = config.Config.tech in
  let flit_bits = topo.Topology.flit_bits in
  Format.fprintf ppf "@[<v>=== implementation report: %s ===@,"
    report.design_name;
  Format.fprintf ppf
    "link data width %d bits, %d direct + %d indirect switches, %d links \
     (%d island crossings)@,"
    flit_bits point.Design_point.switch_count point.Design_point.indirect_count
    point.Design_point.link_count point.Design_point.crossing_count;
  Format.fprintf ppf "%a@," Power.pp point.Design_point.power;
  Format.fprintf ppf
    "area: %.3f mm2 (switches %.3f, NIs %.3f, converters %.3f, wires %.3f)@,"
    (Design_point.total_area_mm2 point.Design_point.area)
    point.Design_point.area.Design_point.switch_mm2
    point.Design_point.area.Design_point.ni_mm2
    point.Design_point.area.Design_point.sync_mm2
    point.Design_point.area.Design_point.link_mm2;
  (* --- switches --- *)
  Format.fprintf ppf "@,switches:@,";
  Array.iter
    (fun sw ->
      let id = sw.Topology.sw_id in
      let cfg =
        {
          Switch_model.inputs = max 1 (Topology.in_ports topo id);
          outputs = max 1 (Topology.out_ports topo id);
          flit_bits;
          buffer_depth = config.Config.buffer_depth;
        }
      in
      Format.fprintf ppf
        "  sw%-3d %-7s %2dx%-2d  %4.0f MHz %.2f V  at %a  %.4f mm2  leak \
         %.3f mW@,"
        id
        (location_name topo.Topology.islands sw.Topology.location)
        cfg.Switch_model.inputs cfg.Switch_model.outputs sw.Topology.freq_mhz
        sw.Topology.vdd Geometry.pp_point sw.Topology.position
        (Switch_model.area_mm2 cfg)
        (Switch_model.leakage_mw tech cfg ~vdd:sw.Topology.vdd))
    topo.Topology.switches;
  (* --- NIs --- *)
  Format.fprintf ppf "@,network interfaces:@,";
  Array.iteri
    (fun core sw ->
      let c = soc.Soc_spec.cores.(core) in
      Format.fprintf ppf
        "  ni%-3d core %-12s -> sw%-3d  core clock %4.0f MHz, NoC clock \
         %4.0f MHz%s@,"
        core c.Core_spec.name sw c.Core_spec.freq_mhz
        topo.Topology.switches.(sw).Topology.freq_mhz
        (if
           Float.abs
             (c.Core_spec.freq_mhz
              -. topo.Topology.switches.(sw).Topology.freq_mhz)
           > 1e-6
         then " (clock conversion)"
         else "")
    )
    topo.Topology.core_switch;
  (* --- links --- *)
  Format.fprintf ppf "@,links:@,";
  List.iter
    (fun link ->
      Format.fprintf ppf
        "  sw%-3d -> sw%-3d  %5.2f mm%s  %6.0f MB/s (%.0f%% used)%s@,"
        link.Topology.link_src link.Topology.link_dst link.Topology.length_mm
        (if link.Topology.stages > 0 then
           Printf.sprintf " (%d-stage)" link.Topology.stages
         else "")
        link.Topology.bw_mbps
        (100.0 *. link_utilization config topo link)
        (if link.Topology.crossing then "  + bi-sync converter" else ""))
    (Topology.links_list topo);
  (* --- converters --- *)
  let converters =
    List.filter (fun l -> l.Topology.crossing) (Topology.links_list topo)
  in
  if converters <> [] then begin
    Format.fprintf ppf "@,voltage/frequency converters: %d x (depth %d, \
                        %.4f mm2 each, 4-cycle crossing)@,"
      (List.length converters) Sync_model.default_depth
      (Sync_model.area_mm2 ~flit_bits ~depth:Sync_model.default_depth)
  end;
  (* --- per-island summary --- *)
  Format.fprintf ppf "@,islands:@,";
  let noc_leakage = Shutdown.island_noc_leakages config report.vi topo in
  for isl = 0 to report.vi.Vi.islands - 1 do
    let members = Vi.cores_of_island report.vi isl in
    let switches =
      Topology.switches_of_location topo (Topology.Island isl)
    in
    Format.fprintf ppf
      "  VI%d%s: %d cores, %d switches, NoC leakage if gated %.2f mW@," isl
      (if report.vi.Vi.shutdownable.(isl) then "" else " (always-on)")
      (List.length members) (List.length switches)
      noc_leakage.(isl)
  done;
  Format.fprintf ppf
    "@,zero-load latency: avg %.2f cycles, worst slack %d cycles; wiring \
     %.1f mm total, timing %s@]"
    point.Design_point.avg_latency_cycles point.Design_point.worst_latency_slack
    point.Design_point.total_wire_mm
    (if point.Design_point.timing_clean then "clean" else "VIOLATED")

let to_string config soc report = Format.asprintf "%a" (pp config soc) report
