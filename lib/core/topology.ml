module Flow = Noc_spec.Flow
module Geometry = Noc_floorplan.Geometry
module Flat = Noc_graph.Flat

type location = Island of int | Intermediate

type switch = {
  sw_id : int;
  location : location;
  freq_mhz : float;
  vdd : float;
  position : Geometry.point;
}

type link = {
  link_src : int;
  link_dst : int;
  mutable bw_mbps : float;
  length_mm : float;
  crossing : bool;
  stages : int;
}

(* Undo journal: every structural edit (link creation/removal, bandwidth
   charge, routes update) pushes the information needed to reverse it.
   [checkpoint] captures the current journal suffix; [rollback] pops and
   reverses entries until that suffix is reached again.  Entries hold the
   link records themselves, so a charge can be undone even after the link
   was dropped and resurrected — record identity survives both. *)
type edit =
  | Link_added of int  (* packed link key *)
  | Link_removed of link
  | Bw_set of link * float  (* previous committed bandwidth *)
  | Routes_set of (Flow.t * int list) list  (* previous routes list *)
  | Backups_set of (Flow.t * int list) list  (* previous backup routes *)

type t = {
  islands : int;
  switches : switch array;
  core_switch : int array;
  ni_count : int array;  (* NIs per switch, fixed by [create] *)
  links : link Flat.t;  (* dense (src, dst)-indexed adjacency *)
  mutable routes : (Flow.t * int list) list;
  mutable backup_routes : (Flow.t * int list) list;
  flit_bits : int;
  mutable journal : edit list;
}

type checkpoint = edit list

(* The link container is the flat structure-of-arrays adjacency from
   [Noc_graph.Flat]: a probe in the A* inner loop is two array
   loads returning the stored option (no tuple, no hash, no [Some]
   boxing), and the per-switch port-arity checks read O(1) degree
   counters instead of folding over every link.  Journal entries still
   carry the packed (src, dst) key — [create] bounds the switch count to
   keep the packing injective. *)
let link_key ~src ~dst = (src lsl 20) lor dst
let key_src key = key lsr 20
let key_dst key = key land 0xFFFFF

let location_equal a b =
  match (a, b) with
  | Island i, Island j -> i = j
  | Intermediate, Intermediate -> true
  | Island _, Intermediate | Intermediate, Island _ -> false

let create ~islands ~switches ~core_switch ~flit_bits =
  if Array.length switches = 0 then invalid_arg "Topology.create: no switch";
  if Array.length switches > 0xFFFFF then
    invalid_arg "Topology.create: too many switches";
  if islands < 1 then invalid_arg "Topology.create: islands < 1";
  if flit_bits <= 0 then invalid_arg "Topology.create: flit_bits <= 0";
  Array.iteri
    (fun i sw ->
      if sw.sw_id <> i then invalid_arg "Topology.create: switch id mismatch";
      match sw.location with
      | Island isl when isl < 0 || isl >= islands ->
        invalid_arg "Topology.create: switch on unknown island"
      | Island _ | Intermediate -> ())
    switches;
  Array.iteri
    (fun core sw ->
      if sw < 0 || sw >= Array.length switches then
        invalid_arg
          (Printf.sprintf "Topology.create: core %d on unknown switch %d" core
             sw);
      match switches.(sw).location with
      | Intermediate ->
        invalid_arg "Topology.create: core attached to an indirect switch"
      | Island _ -> ())
    core_switch;
  (* Attachments never change after [create], so the per-switch NI count
     is built once here and [ni_ports] is an array read. *)
  let ni_count = Array.make (Array.length switches) 0 in
  Array.iter (fun sw -> ni_count.(sw) <- ni_count.(sw) + 1) core_switch;
  {
    islands;
    switches;
    core_switch = Array.copy core_switch;
    ni_count;
    links = Flat.create (Array.length switches);
    routes = [];
    backup_routes = [];
    flit_bits;
    journal = [];
  }

let checkpoint t = t.journal

let rollback t cp =
  let undo = function
    | Link_added key -> Flat.remove t.links (key_src key) (key_dst key)
    | Link_removed link -> Flat.set t.links link.link_src link.link_dst link
    | Bw_set (link, bw) -> link.bw_mbps <- bw
    | Routes_set routes -> t.routes <- routes
    | Backups_set backups -> t.backup_routes <- backups
  in
  let rec pop () =
    if t.journal != cp then
      match t.journal with
      | [] ->
        invalid_arg
          "Topology.rollback: checkpoint does not belong to this topology \
           (or the journal was cleared)"
      | e :: rest ->
        t.journal <- rest;
        undo e;
        pop ()
  in
  pop ()

let clear_journal t = t.journal <- []

let check_switch t s name =
  if s < 0 || s >= Array.length t.switches then
    invalid_arg (Printf.sprintf "Topology.%s: bad switch id %d" name s)

let is_crossing t a b =
  check_switch t a "is_crossing";
  check_switch t b "is_crossing";
  not (location_equal t.switches.(a).location t.switches.(b).location)

let add_link ?(stages = 0) t ~src ~dst ~length_mm =
  check_switch t src "add_link";
  check_switch t dst "add_link";
  if src = dst then invalid_arg "Topology.add_link: self link";
  if length_mm < 0.0 then invalid_arg "Topology.add_link: negative length";
  if stages < 0 then invalid_arg "Topology.add_link: negative stages";
  if Flat.mem t.links src dst then invalid_arg "Topology.add_link: link exists";
  let link =
    {
      link_src = src;
      link_dst = dst;
      bw_mbps = 0.0;
      length_mm;
      crossing = is_crossing t src dst;
      stages;
    }
  in
  Flat.set t.links src dst link;
  t.journal <- Link_added (link_key ~src ~dst) :: t.journal;
  link

let find_link t ~src ~dst =
  check_switch t src "find_link";
  check_switch t dst "find_link";
  Flat.get t.links src dst

let link_count t = Flat.edge_count t.links

(* [Flat.fold] already visits edges in ascending (src, dst) order. *)
let links_list t = List.rev (Flat.fold (fun _ _ l acc -> l :: acc) t.links [])

let commit_flow t flow ~route =
  (match route with
   | [] -> invalid_arg "Topology.commit_flow: empty route"
   | first :: _ ->
     if t.core_switch.(flow.Flow.src) <> first then
       invalid_arg "Topology.commit_flow: route does not start at source switch");
  let rec last = function
    | [] -> assert false
    | [ x ] -> x
    | _ :: rest -> last rest
  in
  if t.core_switch.(flow.Flow.dst) <> last route then
    invalid_arg "Topology.commit_flow: route does not end at destination switch";
  let rec charge = function
    | a :: (b :: _ as rest) ->
      (match find_link t ~src:a ~dst:b with
       | Some link ->
         t.journal <- Bw_set (link, link.bw_mbps) :: t.journal;
         link.bw_mbps <- link.bw_mbps +. flow.Flow.bandwidth_mbps
       | None ->
         invalid_arg
           (Printf.sprintf "Topology.commit_flow: missing link %d->%d" a b));
      charge rest
    | [ _ ] | [] -> ()
  in
  charge route;
  t.journal <- Routes_set t.routes :: t.journal;
  t.routes <- (flow, route) :: t.routes

(* Links whose committed bandwidth returns to (numerically) zero when a
   flow is ripped up are dropped: their ports and standing power must not
   survive the flow they were opened for. *)
let zero_bw_mbps = 1e-6

(* Un-charge the flow's bandwidth from every link of the route, in route
   order, dropping each link whose charge returns to zero; journaled.
   Returns the dropped links, newest first. *)
let discharge t flow route =
  let rec go dropped = function
    | a :: (b :: _ as rest) -> (
      match find_link t ~src:a ~dst:b with
      | Some link ->
        t.journal <- Bw_set (link, link.bw_mbps) :: t.journal;
        link.bw_mbps <- link.bw_mbps -. flow.Flow.bandwidth_mbps;
        if Float.abs link.bw_mbps <= zero_bw_mbps then begin
          link.bw_mbps <- 0.0;
          Flat.remove t.links a b;
          t.journal <- Link_removed link :: t.journal;
          go (link :: dropped) rest
        end
        else go dropped rest
      | None ->
        invalid_arg
          (Printf.sprintf "Topology.remove_flow: missing link %d->%d" a b))
    | [ _ ] | [] -> dropped
  in
  go [] route

let flow_key f = (f.Flow.src, f.Flow.dst)

let remove_flow t flow =
  let key = flow_key flow in
  let is_entry (f, _) = flow_key f = key in
  match List.find_opt is_entry t.routes with
  | None -> None
  | Some (_, route) ->
    t.journal <- Routes_set t.routes :: t.journal;
    t.routes <- List.filter (fun e -> not (is_entry e)) t.routes;
    Some (route, List.rev (discharge t flow route))

(* [remove_flow] of each flow in turn, with one pass over the routes
   instead of one per flow: every link sees the same subtractions in the
   same order, so committed bandwidths and dropped links come out
   identical. *)
let remove_flows t flows =
  let first_entry = Hashtbl.create 64 in
  List.iter
    (fun ((f, _) as entry) ->
      let key = flow_key f in
      if not (Hashtbl.mem first_entry key) then Hashtbl.add first_entry key entry)
    t.routes;
  let removed = Hashtbl.create 64 in
  List.iter
    (fun flow ->
      let key = flow_key flow in
      match Hashtbl.find_opt first_entry key with
      | Some (_, route) when not (Hashtbl.mem removed key) ->
        Hashtbl.add removed key ();
        ignore (discharge t flow route)
      | Some _ | None -> ())
    flows;
  if Hashtbl.length removed > 0 then begin
    t.journal <- Routes_set t.routes :: t.journal;
    t.routes <-
      List.filter (fun (f, _) -> not (Hashtbl.mem removed (flow_key f))) t.routes
  end

(* Backup routes ride on real links and ports but commit no bandwidth:
   they only carry traffic after a fault, when the primary's charge is
   gone anyway. *)
let commit_backup t flow ~route =
  (match route with
   | [] -> invalid_arg "Topology.commit_backup: empty route"
   | first :: _ ->
     if t.core_switch.(flow.Flow.src) <> first then
       invalid_arg
         "Topology.commit_backup: route does not start at source switch");
  let rec last = function
    | [] -> assert false
    | [ x ] -> x
    | _ :: rest -> last rest
  in
  if t.core_switch.(flow.Flow.dst) <> last route then
    invalid_arg "Topology.commit_backup: route does not end at destination switch";
  let rec check = function
    | a :: (b :: _ as rest) ->
      if not (Flat.mem t.links a b) then
        invalid_arg
          (Printf.sprintf "Topology.commit_backup: missing link %d->%d" a b);
      check rest
    | [ _ ] | [] -> ()
  in
  check route;
  t.journal <- Backups_set t.backup_routes :: t.journal;
  t.backup_routes <- (flow, route) :: t.backup_routes

let backup_route t flow =
  let key = (flow.Flow.src, flow.Flow.dst) in
  List.find_map
    (fun (f, route) ->
      if (f.Flow.src, f.Flow.dst) = key then Some route else None)
    t.backup_routes

(* An independent deep copy: link records are fresh (their committed
   bandwidth mutates independently), the journal starts empty.  Switches
   and route entries are immutable and shared. *)
let copy t =
  let links =
    Flat.copy
      ~f:(fun l ->
        {
          link_src = l.link_src;
          link_dst = l.link_dst;
          bw_mbps = l.bw_mbps;
          length_mm = l.length_mm;
          crossing = l.crossing;
          stages = l.stages;
        })
      t.links
  in
  {
    islands = t.islands;
    switches = t.switches;
    core_switch = Array.copy t.core_switch;
    ni_count = t.ni_count;
    links;
    routes = t.routes;
    backup_routes = t.backup_routes;
    flit_bits = t.flit_bits;
    journal = [];
  }

let attached_cores t sw =
  check_switch t sw "attached_cores";
  let members = ref [] in
  for core = Array.length t.core_switch - 1 downto 0 do
    if t.core_switch.(core) = sw then members := core :: !members
  done;
  !members

let ni_ports t sw =
  check_switch t sw "ni_ports";
  t.ni_count.(sw)

let in_ports t sw =
  check_switch t sw "in_ports";
  t.ni_count.(sw) + Flat.in_degree t.links sw

let out_ports t sw =
  check_switch t sw "out_ports";
  t.ni_count.(sw) + Flat.out_degree t.links sw

let arity t sw = max (in_ports t sw) (out_ports t sw)

let switches_of_location t location =
  Array.to_list
    (Array.of_seq
       (Seq.filter
          (fun sw -> location_equal sw.location location)
          (Array.to_seq t.switches)))

let crossings_of_route t route =
  let rec count = function
    | a :: (b :: _ as rest) ->
      (if is_crossing t a b then 1 else 0) + count rest
    | [ _ ] | [] -> 0
  in
  count route

let route_latency_cycles t route =
  match route with
  | [] -> invalid_arg "Topology.route_latency_cycles: empty route"
  | _ ->
    let switches = List.length route in
    let links = switches - 1 in
    let crossings = crossings_of_route t route in
    (* pipeline stages on existing links; a hypothetical hop with no link
       yet counts as unpipelined *)
    let rec stage_sum = function
      | a :: (b :: _ as rest) ->
        (match Flat.get t.links a b with
         | Some link -> link.stages
         | None -> 0)
        + stage_sum rest
      | [ _ ] | [] -> 0
    in
    (Noc_models.Switch_model.pipeline_latency_cycles * switches)
    + (Noc_models.Link_model.traversal_cycles * links)
    + (Noc_models.Sync_model.crossing_latency_cycles * crossings)
    + stage_sum route

let average_latency_cycles t =
  match t.routes with
  | [] -> invalid_arg "Topology.average_latency_cycles: no route"
  | routes ->
    let total =
      List.fold_left
        (fun acc (_, route) -> acc + route_latency_cycles t route)
        0 routes
    in
    float_of_int total /. float_of_int (List.length routes)

let max_latency_violation t =
  List.fold_left
    (fun worst (flow, route) ->
      let excess =
        route_latency_cycles t route - flow.Flow.max_latency_cycles
      in
      if excess <= 0 then worst
      else
        match worst with
        | Some (_, w) when w >= excess -> worst
        | _ -> Some (flow, excess))
    None t.routes

let total_link_length_mm t =
  Flat.fold (fun _ _ l acc -> acc +. l.length_mm) t.links 0.0

let location_name = function
  | Island i -> Printf.sprintf "VI%d" i
  | Intermediate -> "NoC-VI"

let pp_netlist ppf t =
  Format.fprintf ppf "@[<v>topology: %d switches, %d links, %d routed flows"
    (Array.length t.switches)
    (Flat.edge_count t.links)
    (List.length t.routes);
  let locations =
    List.init t.islands (fun i -> Island i)
    @ if List.exists (fun s -> s.location = Intermediate)
           (Array.to_list t.switches)
      then [ Intermediate ]
      else []
  in
  let describe location =
    let members = switches_of_location t location in
    if members <> [] then begin
      Format.fprintf ppf "@,%s (%.0f MHz, %.2f V):" (location_name location)
        (List.hd members).freq_mhz (List.hd members).vdd;
      List.iter
        (fun sw ->
          let cores = attached_cores t sw.sw_id in
          Format.fprintf ppf "@,  sw%d %dx%d cores[%a]" sw.sw_id
            (in_ports t sw.sw_id) (out_ports t sw.sw_id)
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
               Format.pp_print_int)
            cores)
        members
    end
  in
  List.iter describe locations;
  Format.fprintf ppf "@,links:";
  List.iter
    (fun l ->
      Format.fprintf ppf "@,  sw%d -> sw%d%s%s %.0f MB/s %.2f mm" l.link_src
        l.link_dst
        (if l.crossing then " [bisync]" else "")
        (if l.stages > 0 then Printf.sprintf " [%d-stage]" l.stages else "")
        l.bw_mbps l.length_mm)
    (links_list t);
  Format.fprintf ppf "@]"

let to_dot t ~core_name =
  let buffer = Buffer.create 1024 in
  Buffer.add_string buffer "digraph noc {\n  rankdir=LR;\n";
  let cluster location =
    let members = switches_of_location t location in
    if members <> [] then begin
      let id =
        match location with Island i -> string_of_int i | Intermediate -> "noc"
      in
      Buffer.add_string buffer
        (Printf.sprintf "  subgraph cluster_%s {\n    label=\"%s\";\n" id
           (location_name location));
      List.iter
        (fun sw ->
          Buffer.add_string buffer
            (Printf.sprintf "    sw%d [shape=box label=\"sw%d\"];\n" sw.sw_id
               sw.sw_id);
          List.iter
            (fun core ->
              Buffer.add_string buffer
                (Printf.sprintf
                   "    core%d [shape=ellipse label=\"%s\"];\n    core%d -> \
                    sw%d [dir=both style=dashed];\n"
                   core (core_name core) core sw.sw_id))
            (attached_cores t sw.sw_id))
        members;
      Buffer.add_string buffer "  }\n"
    end
  in
  List.iter cluster (List.init t.islands (fun i -> Island i));
  cluster Intermediate;
  List.iter
    (fun l ->
      Buffer.add_string buffer
        (Printf.sprintf "  sw%d -> sw%d [label=\"%.0f\"%s];\n" l.link_src
           l.link_dst l.bw_mbps
           (if l.crossing then " color=red" else "")))
    (links_list t);
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer
