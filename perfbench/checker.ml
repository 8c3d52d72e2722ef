(* A design checker written apart from [Verify]: it reads the raw routes,
   links and switches of a design point and re-derives the paper's rules
   from them.

   The topology is first flattened into a plain [view], so corrupted
   copies for the negative controls are ordinary record edits. *)

module Topology = Noc_synthesis.Topology
module Design_point = Noc_synthesis.Design_point
module Freq_assign = Noc_synthesis.Freq_assign
module Config = Noc_synthesis.Config
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Flow = Noc_spec.Flow

type link = {
  src : int;
  dst : int;
  bw : float;  (** committed MB/s *)
  stages : int;
}

type view = {
  location : int array;  (** island of each switch, [-1] = intermediate *)
  freq : float array;  (** clock of each switch's location, MHz *)
  cap : int array;  (** arity cap of each switch's location *)
  core_switch : int array;
  links : link list;
  routes : (Flow.t * int list) list;
  flit_bits : int;
  avg_latency : float;  (** what the design point claims *)
}

type rule =
  | Routing  (** each flow routed once, right endpoints, existing links *)
  | Shutdown  (** no route switch in a third island *)
  | Latency  (** budget, and the claimed average *)
  | Bandwidth  (** committed = sum of flows, within capacity *)
  | Arity  (** ports within the location's cap *)

let rule_name = function
  | Routing -> "routing"
  | Shutdown -> "shutdown"
  | Latency -> "latency"
  | Bandwidth -> "bandwidth"
  | Arity -> "arity"

let view config (p : Design_point.t) =
  let topo = p.Design_point.topology in
  let inter = Freq_assign.intermediate_clock config p.Design_point.clocks in
  let clock sw =
    match topo.Topology.switches.(sw).Topology.location with
    | Topology.Island i -> (i, p.Design_point.clocks.(i))
    | Topology.Intermediate -> (-1, inter)
  in
  let n = Array.length topo.Topology.switches in
  {
    location = Array.init n (fun sw -> fst (clock sw));
    freq = Array.init n (fun sw -> (snd (clock sw)).Freq_assign.freq_mhz);
    cap = Array.init n (fun sw -> (snd (clock sw)).Freq_assign.max_arity);
    core_switch = Array.copy topo.Topology.core_switch;
    links =
      List.map
        (fun (l : Topology.link) ->
          {
            src = l.Topology.link_src;
            dst = l.Topology.link_dst;
            bw = l.Topology.bw_mbps;
            stages = l.Topology.stages;
          })
        (Topology.links_list topo);
    routes = topo.Topology.routes;
    flit_bits = topo.Topology.flit_bits;
    avg_latency = p.Design_point.avg_latency_cycles;
  }

let rec hops = function a :: (b :: _ as rest) -> (a, b) :: hops rest | _ -> []

let last l = List.nth l (List.length l - 1)

(* Fig. 3: 2 cycles per switch, 1 per link plus its pipeline stages, 4
   more per link between two locations. *)
let latency v link_of route =
  List.fold_left
    (fun acc (a, b) ->
      let stages = match link_of a b with Some l -> l.stages | None -> 0 in
      let crossing = if v.location.(a) <> v.location.(b) then 4 else 0 in
      acc + 1 + stages + crossing)
    (2 * List.length route)
    (hops route)

(* Every broken rule, with a one-line reason each; [] means clean. *)
let check config (soc : Soc_spec.t) (vi : Vi.t) v =
  let found = ref [] in
  let fail rule fmt = Printf.ksprintf (fun m -> found := (rule, m) :: !found) fmt in
  let table = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace table (l.src, l.dst) l) v.links;
  let link_of a b = Hashtbl.find_opt table (a, b) in
  (* routing *)
  let count = Hashtbl.create 64 in
  List.iter
    (fun ((f : Flow.t), _) ->
      let k = (f.Flow.src, f.Flow.dst) in
      Hashtbl.replace count k (1 + Option.value (Hashtbl.find_opt count k) ~default:0))
    v.routes;
  List.iter
    (fun (f : Flow.t) ->
      match Hashtbl.find_opt count (f.Flow.src, f.Flow.dst) with
      | Some 1 -> ()
      | n ->
        fail Routing "flow %d->%d routed %d times" f.Flow.src f.Flow.dst
          (Option.value n ~default:0))
    soc.Soc_spec.flows;
  if List.length v.routes <> List.length soc.Soc_spec.flows then
    fail Routing "%d routes for %d flows" (List.length v.routes)
      (List.length soc.Soc_spec.flows);
  List.iter
    (fun ((f : Flow.t), route) ->
      if route = [] then
        fail Routing "flow %d->%d has an empty route" f.Flow.src f.Flow.dst
      else begin
        if
          List.hd route <> v.core_switch.(f.Flow.src)
          || last route <> v.core_switch.(f.Flow.dst)
        then fail Routing "flow %d->%d has wrong endpoints" f.Flow.src f.Flow.dst;
        List.iter
          (fun (a, b) ->
            if link_of a b = None then
              fail Routing "flow %d->%d uses missing link %d->%d" f.Flow.src
                f.Flow.dst a b)
          (hops route)
      end)
    v.routes;
  (* shutdown safety *)
  List.iter
    (fun ((f : Flow.t), route) ->
      let si = vi.Vi.of_core.(f.Flow.src) and di = vi.Vi.of_core.(f.Flow.dst) in
      List.iter
        (fun sw ->
          let isl = v.location.(sw) in
          if isl >= 0 && isl <> si && isl <> di then
            fail Shutdown "flow %d->%d crosses island %d at switch %d" f.Flow.src
              f.Flow.dst isl sw)
        route)
    v.routes;
  (* latency *)
  let total = ref 0 in
  List.iter
    (fun ((f : Flow.t), route) ->
      if route <> [] then begin
        let l = latency v link_of route in
        total := !total + l;
        if l > f.Flow.max_latency_cycles then
          fail Latency "flow %d->%d takes %d cycles, budget %d" f.Flow.src
            f.Flow.dst l f.Flow.max_latency_cycles
      end)
    v.routes;
  (match v.routes with
  | [] -> ()
  | routes ->
    let avg = float_of_int !total /. float_of_int (List.length routes) in
    if Float.abs (avg -. v.avg_latency) > 1e-9 *. Float.max 1.0 avg then
      fail Latency "average latency %.6f, point claims %.6f" avg v.avg_latency);
  (* bandwidth and capacity *)
  let charged = Hashtbl.create 64 in
  List.iter
    (fun ((f : Flow.t), route) ->
      List.iter
        (fun k ->
          Hashtbl.replace charged k
            (f.Flow.bandwidth_mbps
            +. Option.value (Hashtbl.find_opt charged k) ~default:0.0))
        (hops route))
    v.routes;
  List.iter
    (fun l ->
      let sum = Option.value (Hashtbl.find_opt charged (l.src, l.dst)) ~default:0.0 in
      if Float.abs (sum -. l.bw) > 1e-6 *. Float.max 1.0 sum then
        fail Bandwidth "link %d->%d carries %.3f MB/s, flows sum to %.3f" l.src
          l.dst l.bw sum;
      let mhz = Float.min v.freq.(l.src) v.freq.(l.dst) in
      let capacity =
        config.Config.link_utilization_cap *. mhz *. float_of_int v.flit_bits /. 8.0
      in
      if l.bw > capacity +. 1e-6 then
        fail Bandwidth "link %d->%d carries %.3f MB/s over capacity %.3f" l.src
          l.dst l.bw capacity)
    v.links;
  (* ports: one in and one out per attached NI, plus the links *)
  let n = Array.length v.location in
  let ins = Array.make n 0 and outs = Array.make n 0 in
  Array.iter
    (fun sw ->
      ins.(sw) <- ins.(sw) + 1;
      outs.(sw) <- outs.(sw) + 1)
    v.core_switch;
  List.iter
    (fun l ->
      outs.(l.src) <- outs.(l.src) + 1;
      ins.(l.dst) <- ins.(l.dst) + 1)
    v.links;
  for sw = 0 to n - 1 do
    let arity = max ins.(sw) outs.(sw) in
    if arity > v.cap.(sw) then
      fail Arity "switch %d has %d ports, cap %d" sw arity v.cap.(sw)
  done;
  List.rev !found

let check_point config soc vi p = check config soc vi (view config p)

(* ---------- negative controls ---------- *)

(* One corrupted copy per rule, each made from a clean view.  [None] when
   the point offers nothing to corrupt that way (e.g. no third island). *)
let corruptions (soc : Soc_spec.t) (vi : Vi.t) v =
  let multi_hop =
    List.filter (fun (_, route) -> List.length route >= 2) v.routes
  in
  let third_island =
    (* reroute a flow through a switch of an island it neither starts nor
       ends in, re-charging bandwidth so only the island rule breaks *)
    List.find_map
      (fun ((f : Flow.t), route) ->
        let si = vi.Vi.of_core.(f.Flow.src) and di = vi.Vi.of_core.(f.Flow.dst) in
        let first = List.hd route and final = last route in
        let third = ref None in
        Array.iteri
          (fun sw isl ->
            if !third = None && isl >= 0 && isl <> si && isl <> di
               && sw <> first && sw <> final
            then third := Some sw)
          v.location;
        match !third with
        | None -> None
        | Some w ->
          let route' = [ first; w; final ] in
          let uncharge =
            List.map
              (fun l ->
                if List.mem (l.src, l.dst) (hops route) then
                  { l with bw = l.bw -. f.Flow.bandwidth_mbps }
                else l)
              v.links
          in
          let links =
            List.fold_left
              (fun links (a, b) ->
                if List.exists (fun l -> l.src = a && l.dst = b) links then
                  List.map
                    (fun l ->
                      if l.src = a && l.dst = b then
                        { l with bw = l.bw +. f.Flow.bandwidth_mbps }
                      else l)
                    links
                else
                  { src = a; dst = b; bw = f.Flow.bandwidth_mbps; stages = 0 }
                  :: links)
              uncharge (hops route')
          in
          let routes =
            List.map
              (fun ((g : Flow.t), r) -> if g == f then (g, route') else (g, r))
              v.routes
          in
          Some { v with links; routes })
      v.routes
  in
  let dropped_link =
    match multi_hop with
    | (_, a :: b :: _) :: _ ->
      Some
        { v with links = List.filter (fun l -> not (l.src = a && l.dst = b)) v.links }
    | _ -> None
  in
  let over_budget =
    (* add pipeline stages to the first hop of a flow until it misses
       its budget *)
    match multi_hop with
    | ((f : Flow.t), (a :: b :: _ as route)) :: _ ->
      let table = Hashtbl.create 64 in
      List.iter (fun l -> Hashtbl.replace table (l.src, l.dst) l) v.links;
      let now = latency v (fun x y -> Hashtbl.find_opt table (x, y)) route in
      let extra = f.Flow.max_latency_cycles - now + 1 in
      Some
        {
          v with
          links =
            List.map
              (fun l ->
                if l.src = a && l.dst = b then { l with stages = l.stages + extra }
                else l)
              v.links;
        }
    | _ -> None
  in
  let mischarged =
    match v.links with
    | l0 :: _ ->
      Some
        {
          v with
          links =
            List.map
              (fun l -> if l == l0 then { l with bw = l.bw +. 1.0 } else l)
              v.links;
        }
    | [] -> None
  in
  let extra_port =
    (* link spare switches into the busiest one until it overflows *)
    let n = Array.length v.location in
    let ins = Array.make n 0 in
    Array.iter (fun sw -> ins.(sw) <- ins.(sw) + 1) v.core_switch;
    List.iter (fun l -> ins.(l.dst) <- ins.(l.dst) + 1) v.links;
    let target = ref 0 in
    Array.iteri
      (fun sw k ->
        if k - v.cap.(sw) > ins.(!target) - v.cap.(!target) then target := sw)
      ins;
    let t = !target in
    let need = v.cap.(t) - ins.(t) + 1 in
    let spare =
      List.filter
        (fun s -> s <> t && not (List.exists (fun l -> l.src = s && l.dst = t) v.links))
        (List.init n Fun.id)
    in
    if List.length spare < need then None
    else
      Some
        {
          v with
          links =
            List.filteri (fun i _ -> i < need) spare
            |> List.map (fun s -> { src = s; dst = t; bw = 0.0; stages = 0 })
            |> List.append v.links;
        }
  in
  ignore soc;
  [
    (Shutdown, third_island);
    (Routing, dropped_link);
    (Latency, over_budget);
    (Bandwidth, mischarged);
    (Arity, extra_port);
  ]

(* Run every control on a clean point: the checker must flag each
   corrupted copy under its own rule.  Returns the failures. *)
let controls config soc vi p =
  let v = view config p in
  let problems = ref [] in
  if check config soc vi v <> [] then
    problems := "control base point is not clean" :: !problems;
  List.iter
    (fun (rule, copy) ->
      match copy with
      | None ->
        problems :=
          Printf.sprintf "no %s corruption possible" (rule_name rule) :: !problems
      | Some bad ->
        if not (List.exists (fun (r, _) -> r = rule) (check config soc vi bad)) then
          problems :=
            Printf.sprintf "checker accepted a %s corruption" (rule_name rule)
            :: !problems)
    (corruptions soc vi v);
  List.rev !problems
