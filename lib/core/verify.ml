module Flow = Noc_spec.Flow
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Units = Noc_models.Units
module Tech = Noc_models.Tech

type violation =
  | Unrouted_flow of Flow.t
  | Duplicate_route of Flow.t
  | Broken_route of { flow : Flow.t; from_sw : int; to_sw : int }
  | Wrong_endpoints of Flow.t
  | Bandwidth_mismatch of {
      src : int;
      dst : int;
      committed : float;
      recomputed : float;
    }
  | Port_overflow of { switch : int; arity : int; cap : int }
  | Capacity_overflow of {
      src : int;
      dst : int;
      bw_mbps : float;
      cap_mbps : float;
    }
  | Latency_violation of { flow : Flow.t; excess_cycles : int }
  | Timing_violation of {
      src : int;
      dst : int;
      length_mm : float;
      budget_mm : float;
    }
  | Clock_mismatch of { switch : int; expected_mhz : float; actual_mhz : float }
  | Shutdown_violation of { flow : Flow.t; switch : int; island : int }
  | Missing_backup of Flow.t
  | Backup_not_disjoint of { flow : Flow.t; src : int; dst : int }

let flow_key f = (f.Flow.src, f.Flow.dst)

let check_routes soc topo push =
  let routed = Hashtbl.create 64 in
  List.iter
    (fun ((flow, route) as entry) ->
      let key = flow_key flow in
      if Hashtbl.mem routed key then push (Duplicate_route flow)
      else Hashtbl.replace routed key entry;
      (match route with
       | [] -> push (Wrong_endpoints flow)
       | first :: _ ->
         let rec last = function
           | [ x ] -> x
           | _ :: rest -> last rest
           | [] -> assert false (* route non-empty here *)
         in
         if
           topo.Topology.core_switch.(flow.Flow.src) <> first
           || topo.Topology.core_switch.(flow.Flow.dst) <> last route
         then push (Wrong_endpoints flow));
      let rec hops = function
        | a :: (b :: _ as rest) ->
          (match Topology.find_link topo ~src:a ~dst:b with
           | Some _ -> ()
           | None -> push (Broken_route { flow; from_sw = a; to_sw = b }));
          hops rest
        | [ _ ] | [] -> ()
      in
      hops route)
    topo.Topology.routes;
  List.iter
    (fun flow ->
      if not (Hashtbl.mem routed (flow_key flow)) then
        push (Unrouted_flow flow))
    soc.Soc_spec.flows

let check_bandwidth topo push =
  let recomputed = Hashtbl.create 64 in
  List.iter
    (fun (flow, route) ->
      let rec hops = function
        | a :: (b :: _ as rest) ->
          let key = (a, b) in
          let current =
            match Hashtbl.find_opt recomputed key with
            | Some x -> x
            | None -> 0.0
          in
          Hashtbl.replace recomputed key (current +. flow.Flow.bandwidth_mbps);
          hops rest
        | [ _ ] | [] -> ()
      in
      hops route)
    topo.Topology.routes;
  List.iter
    (fun link ->
      let key = (link.Topology.link_src, link.Topology.link_dst) in
      let expected =
        match Hashtbl.find_opt recomputed key with Some x -> x | None -> 0.0
      in
      if Float.abs (expected -. link.Topology.bw_mbps) > 1e-6 then
        push
          (Bandwidth_mismatch
             {
               src = link.Topology.link_src;
               dst = link.Topology.link_dst;
               committed = link.Topology.bw_mbps;
               recomputed = expected;
             }))
    (Topology.links_list topo)

let check_resources ?clocks config soc vi topo push =
  let clocks =
    match clocks with
    | Some clocks -> clocks
    | None -> Freq_assign.assign config soc vi
  in
  let inter = lazy (Freq_assign.intermediate_clock config clocks) in
  let clock_of sw =
    match topo.Topology.switches.(sw).Topology.location with
    | Topology.Island isl -> clocks.(isl)
    | Topology.Intermediate -> Lazy.force inter
  in
  Array.iter
    (fun sw ->
      let id = sw.Topology.sw_id in
      let clock = clock_of id in
      if Float.abs (sw.Topology.freq_mhz -. clock.Freq_assign.freq_mhz) > 1e-6
      then
        push
          (Clock_mismatch
             {
               switch = id;
               expected_mhz = clock.Freq_assign.freq_mhz;
               actual_mhz = sw.Topology.freq_mhz;
             });
      let arity = Topology.arity topo id in
      if arity > clock.Freq_assign.max_arity then
        push
          (Port_overflow
             { switch = id; arity; cap = clock.Freq_assign.max_arity }))
    topo.Topology.switches;
  let tech = config.Config.tech in
  List.iter
    (fun link ->
      let src = link.Topology.link_src and dst = link.Topology.link_dst in
      let cap_mhz =
        Float.min (clock_of src).Freq_assign.freq_mhz
          (clock_of dst).Freq_assign.freq_mhz
      in
      let cap_mbps =
        config.Config.link_utilization_cap
        *. Units.bandwidth_mbps_of_frequency ~freq_mhz:cap_mhz
             ~flit_bits:topo.Topology.flit_bits
      in
      if link.Topology.bw_mbps > cap_mbps +. 1e-6 then
        push
          (Capacity_overflow
             { src; dst; bw_mbps = link.Topology.bw_mbps; cap_mbps });
      let budget_mm =
        Tech.max_unpipelined_mm tech
          ~freq_mhz:topo.Topology.switches.(src).Topology.freq_mhz
      in
      let segment_mm =
        link.Topology.length_mm /. float_of_int (link.Topology.stages + 1)
      in
      if segment_mm > budget_mm +. 1e-9 then
        push
          (Timing_violation
             { src; dst; length_mm = segment_mm; budget_mm }))
    (Topology.links_list topo)

let check_latency topo push =
  List.iter
    (fun (flow, route) ->
      let latency = Topology.route_latency_cycles topo route in
      if latency > flow.Flow.max_latency_cycles then
        push
          (Latency_violation
             { flow; excess_cycles = latency - flow.Flow.max_latency_cycles }))
    topo.Topology.routes

let push_transits vi topo push entry =
  List.iter
    (fun (v : Shutdown.violation) ->
      push
        (Shutdown_violation
           {
             flow = v.Shutdown.v_flow;
             switch = v.Shutdown.v_switch;
             island = v.Shutdown.v_island;
           }))
    (Shutdown.route_transits vi topo entry)

let check_shutdown vi topo push =
  List.iter (push_transits vi topo push) topo.Topology.routes

(* Backup (protection) routes obey every rule a primary does except
   bandwidth accounting (they commit none): real links, right endpoints,
   the latency budget (slacked by [Config.protect_latency_slack] — backups
   serve degraded post-fault operation), and shutdown safety.  With
   [require_backups] the protection contract itself is enforced: every
   multi-hop flow carries a backup, link-disjoint (directed) from its
   primary. *)
let check_backups ~require_backups config vi topo push =
  let backup_of = Hashtbl.create 16 in
  List.iter
    (fun ((flow, route) as entry) ->
      let key = flow_key flow in
      if Hashtbl.mem backup_of key then push (Duplicate_route flow)
      else Hashtbl.replace backup_of key entry;
      (match route with
       | [] -> push (Wrong_endpoints flow)
       | first :: _ ->
         let rec last = function
           | [ x ] -> x
           | _ :: rest -> last rest
           | [] -> assert false (* route non-empty here *)
         in
         if
           topo.Topology.core_switch.(flow.Flow.src) <> first
           || topo.Topology.core_switch.(flow.Flow.dst) <> last route
         then push (Wrong_endpoints flow));
      let rec hops = function
        | a :: (b :: _ as rest) ->
          (match Topology.find_link topo ~src:a ~dst:b with
           | Some _ -> ()
           | None -> push (Broken_route { flow; from_sw = a; to_sw = b }));
          hops rest
        | [ _ ] | [] -> ()
      in
      hops route;
      (match route with
       | [] -> ()
       | _ ->
         let budget =
           int_of_float
             (config.Config.protect_latency_slack
             *. float_of_int flow.Flow.max_latency_cycles)
         in
         let latency = Topology.route_latency_cycles topo route in
         if latency > budget then
           push
             (Latency_violation { flow; excess_cycles = latency - budget }));
      push_transits vi topo push entry)
    topo.Topology.backup_routes;
  if require_backups then begin
    let links_of route =
      let rec go acc = function
        | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
        | [ _ ] | [] -> acc
      in
      go [] route
    in
    List.iter
      (fun (flow, primary) ->
        match primary with
        | [ _ ] -> () (* NI-local: nothing in the fabric to protect *)
        | _ ->
          (match Hashtbl.find_opt backup_of (flow_key flow) with
           | None -> push (Missing_backup flow)
           | Some (_, backup) ->
             let prim = links_of primary in
             List.iter
               (fun (src, dst) ->
                 if List.mem (src, dst) prim then
                   push (Backup_not_disjoint { flow; src; dst }))
               (List.rev (links_of backup))))
      topo.Topology.routes
  end

let check ?(require_backups = false) ?clocks config soc vi topo =
  Config.validate config;
  let violations = ref [] in
  let push v = violations := v :: !violations in
  check_routes soc topo push;
  check_bandwidth topo push;
  check_resources ?clocks config soc vi topo push;
  check_latency topo push;
  check_shutdown vi topo push;
  check_backups ~require_backups config vi topo push;
  List.rev !violations

let check_all ?require_backups ?clocks config soc vi topo =
  match check ?require_backups ?clocks config soc vi topo with
  | [] -> Ok ()
  | violations -> Error violations

let pp_violation ppf = function
  | Unrouted_flow f -> Format.fprintf ppf "unrouted flow %a" Flow.pp f
  | Duplicate_route f -> Format.fprintf ppf "duplicate route for %a" Flow.pp f
  | Broken_route { flow; from_sw; to_sw } ->
    Format.fprintf ppf "route of %a uses missing link sw%d->sw%d" Flow.pp flow
      from_sw to_sw
  | Wrong_endpoints f ->
    Format.fprintf ppf "route of %a does not join its NI switches" Flow.pp f
  | Bandwidth_mismatch { src; dst; committed; recomputed } ->
    Format.fprintf ppf
      "link sw%d->sw%d bandwidth accounting: committed %.1f, flows sum to %.1f"
      src dst committed recomputed
  | Port_overflow { switch; arity; cap } ->
    Format.fprintf ppf "switch sw%d arity %d exceeds max_sw_size %d" switch
      arity cap
  | Capacity_overflow { src; dst; bw_mbps; cap_mbps } ->
    Format.fprintf ppf "link sw%d->sw%d carries %.1f MB/s over cap %.1f" src
      dst bw_mbps cap_mbps
  | Latency_violation { flow; excess_cycles } ->
    Format.fprintf ppf "flow %a misses its latency budget by %d cycles"
      Flow.pp flow excess_cycles
  | Timing_violation { src; dst; length_mm; budget_mm } ->
    Format.fprintf ppf
      "link sw%d->sw%d is %.2f mm, over the %.2f mm single-cycle budget" src
      dst length_mm budget_mm
  | Clock_mismatch { switch; expected_mhz; actual_mhz } ->
    Format.fprintf ppf "switch sw%d clocked at %.0f MHz, island needs %.0f"
      switch actual_mhz expected_mhz
  | Shutdown_violation { flow; switch; island } ->
    Format.fprintf ppf
      "flow %a transits sw%d in third island %d (blocks its shutdown)"
      Flow.pp flow switch island
  | Missing_backup f ->
    Format.fprintf ppf "protected flow %a has no backup route" Flow.pp f
  | Backup_not_disjoint { flow; src; dst } ->
    Format.fprintf ppf
      "backup of %a shares link sw%d->sw%d with its primary" Flow.pp flow src
      dst

let pp_report ppf = function
  | [] -> Format.fprintf ppf "design is clean: all invariants hold"
  | violations ->
    Format.fprintf ppf "@[<v>%d violation(s):" (List.length violations);
    List.iter
      (fun v -> Format.fprintf ppf "@,  %a" pp_violation v)
      violations;
    Format.fprintf ppf "@]"
