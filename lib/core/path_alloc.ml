module Flow = Noc_spec.Flow
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Units = Noc_models.Units
module Tech = Noc_models.Tech
module Switch_model = Noc_models.Switch_model
module Link_model = Noc_models.Link_model
module Sync_model = Noc_models.Sync_model
module Astar = Noc_graph.Astar
module Flat = Noc_graph.Flat
module Geometry = Noc_floorplan.Geometry
module Metrics = Noc_exec.Metrics

type error = {
  flow : Flow.t;
  reason : [ `No_path | `Latency of int ];
}

type stats = {
  ripups : int;
  reroutes : int;
  rollbacks : int;
  restarts : int;
}

let no_stats = { ripups = 0; reroutes = 0; rollbacks = 0; restarts = 0 }

let pp_error ppf e =
  match e.reason with
  | `No_path -> Format.fprintf ppf "no path for flow %a" Flow.pp e.flow
  | `Latency excess ->
    Format.fprintf ppf "flow %a misses latency by %d cycles" Flow.pp e.flow
      excess

type mask = {
  dead_switch : int -> bool;
  dead_link : int -> int -> bool;
}

let no_mask = { dead_switch = (fun _ -> false); dead_link = (fun _ _ -> false) }

let mask_union a b =
  {
    dead_switch = (fun s -> a.dead_switch s || b.dead_switch s);
    dead_link = (fun u v -> a.dead_link u v || b.dead_link u v);
  }

type engine = Flat

(* One search's flow-dependent constants, rewritten before each search.
   An all-float record is stored flat, so rewriting it allocates
   nothing and the hop kernel reads the fields unboxed. *)
type search = {
  mutable bw : float;        (* the flow's MB/s *)
  mutable rate : float;      (* its flits/s *)
  mutable beta : float;      (* power's share of the relax weight *)
  mutable p_norm : float;    (* [reference_hop_power_mw] of the flow *)
  mutable lat_norm : float;  (* its latency budget, cycles *)
  mutable floor : float;     (* A*'s constant heuristic: min w(u, target) *)
  (* The lower-bound skip's coefficients (see [expand_node]); all 0 when
     the weight's terms are not all non-negative, which disables it. *)
  mutable lb_switch : float;   (* per pJ of switch traversal energy *)
  mutable lb_latency : float;  (* the 3-cycle minimum hop latency *)
  mutable lb_open : float;     (* per mW of a new link's standing power *)
  mutable open_energy : float; (* the opening penalty's mW at this rate *)
}

(* Per-call search counters, flushed to Metrics once per [route_all] or
   session call: the global counters' mutex must not be taken per hop. *)
type counts = {
  mutable searches : int;
  mutable hop_costs : int;  (* kernel evaluations, floor pass included *)
  mutable hop_skips : int;  (* hops dropped by the lower-bound skip *)
}

(* Mutable routing state: port counters are maintained incrementally because
   recounting them from the link table inside the search would be
   quadratic.  The hop model's constants are fixed per state: switch
   locations, positions, supplies and clocks never change under routing,
   so everything the kernel reads apart from the port counts, the link
   table and the flow is tabulated here once. *)
type state = {
  config : Config.t;
  topo : Topology.t;
  n : int;  (* switch count: node ids of the search graph are [0, n) *)
  mask : mask;  (* switches/links the search must neither reuse nor open *)
  max_arity : int array;   (* per switch *)
  in_ports : int array;
  out_ports : int array;
  capacity : float array;  (* usable MB/s of a link driven by this switch *)
  has_indirect : bool;
  out_to_inter : bool array;
      (* direct switch already owns a link towards the intermediate VI *)
  in_from_inter : bool array;
  loc : int array;
      (* per switch: its island id, or [inter] for the intermediate VI —
         what the admissibility tests read, and the row of the
         per-location tables below *)
  inter : int;  (* the intermediate VI's location: the island count *)
  allowed_memo : int array array;
      (* per (si, di) flow islands: the ascending switch ids the flow may
         visit, [||] until first asked — a pure function of the fixed
         switch locations.  Fault masks are checked per lookup, never
         baked in, so states sharing these tables across a mask change
         ([route_backup]) stay correct. *)
  arena : Astar.arena;
      (* the reusable search arena; shared by design with the
         functional-update copies [route_backup_with] makes — one domain,
         one search at a time *)
  (* ---- the hop model's constants ---- *)
  locs : int;  (* islands + 1 *)
  px : float array;  (* switch positions, mm *)
  py : float array;
  energy_scale : float array;  (* per switch: [Tech.energy_scale] at its vdd *)
  register_pj : float array;   (* per switch: one pipeline register's pJ/flit *)
  port_clock_mw : float array; (* per switch: one port's clock power *)
  budget_mm : float array;
      (* per switch: the unpipelined length budget of a link it drives,
         [infinity] when pipelining is off (a new link then has 0 stages) *)
  sync_pj : float array;
      (* per (loc u, loc v): the converter's pJ/flit, 0 inside one location *)
  sync_mw : float array;
      (* per (loc u, loc v): the converter's leakage and clock power *)
  arity_cap : int;  (* largest arity [switch_pj] tabulates *)
  switch_pj : float array;
      (* per (loc, arity): switch traversal pJ/flit, rows of
         [arity_cap + 1] *)
  wire_pj_per_mm_bit : float;
  toggling_bits : float;  (* the wire model's half-toggling flit *)
  open_pj : float;  (* [Config.new_link_penalty_pj] *)
  to_target : float array;
      (* per switch, written by the floor pass of the current search:
         the weight of hop u->target, [infinity] when inadmissible *)
  search : search;
  counts : counts;
}

(* The per-domain pooled search arena: [route_all] states are strictly
   scoped to one call on one domain, so they borrow it instead of
   allocating fresh arrays per candidate.  The arena is epoch-stamped
   internally, so hand-off between borrowers needs no reset.  Sessions
   outlive their creating call and may overlap, so they never pool. *)
let arena_key = Domain.DLS.new_key Astar.create

(* The location (island id, or [islands] for the intermediate VI) whose
   supply and clock a switch shares. *)
let location_index islands sw =
  match sw.Topology.location with
  | Topology.Island isl -> isl
  | Topology.Intermediate -> islands

let port_clock_mw tech sw =
  Units.power_mw_of_energy
    ~energy_pj:(1.0 *. Tech.energy_scale tech ~vdd:sw.Topology.vdd)
    ~events_per_second:(sw.Topology.freq_mhz *. 1e6)

let switch_energy_pj config ~flit_bits ~vdd arity =
  Switch_model.energy_per_flit_pj config.Config.tech
    {
      Switch_model.inputs = arity;
      outputs = arity;
      flit_bits;
      buffer_depth = config.Config.buffer_depth;
    }
    ~vdd

let make_state ?(mask = no_mask) ?(pooled = false) config topo ~clocks =
  let tech = config.Config.tech in
  let switches = topo.Topology.switches in
  let n = Array.length switches in
  let islands = topo.Topology.islands in
  let flit_bits = topo.Topology.flit_bits in
  let inter = lazy (Freq_assign.intermediate_clock config clocks) in
  let arity_of sw =
    match sw.Topology.location with
    | Topology.Island isl -> clocks.(isl).Freq_assign.max_arity
    | Topology.Intermediate -> (Lazy.force inter).Freq_assign.max_arity
  in
  let capacity_of sw =
    config.Config.link_utilization_cap
    *. Units.bandwidth_mbps_of_frequency ~freq_mhz:sw.Topology.freq_mhz
         ~flit_bits
  in
  let has_indirect =
    Array.exists (fun sw -> sw.Topology.location = Topology.Intermediate) switches
  in
  let max_arity = Array.map arity_of switches in
  let in_ports = Array.init n (fun sw -> Topology.in_ports topo sw) in
  let out_ports = Array.init n (fun sw -> Topology.out_ports topo sw) in
  (* Every switch of a location shares its supply and clock, which is
     what lets the converter and switch energies be tabulated per
     location.  Check it rather than assume it. *)
  let locs = islands + 1 in
  let loc = Array.map (location_index islands) switches in
  let rep = Array.make locs None in
  Array.iter
    (fun sw ->
      let l = location_index islands sw in
      match rep.(l) with
      | None -> rep.(l) <- Some sw
      | Some r ->
        if
          not
            (Float.equal r.Topology.vdd sw.Topology.vdd
            && Float.equal r.Topology.freq_mhz sw.Topology.freq_mhz)
        then
          invalid_arg
            (Printf.sprintf
               "Path_alloc: switch %d disagrees with switch %d of its \
                location on supply or clock"
               sw.Topology.sw_id r.Topology.sw_id))
    switches;
  let pair_table f =
    Array.init (locs * locs) (fun i ->
        let a = i / locs and b = i mod locs in
        match (rep.(a), rep.(b)) with
        | Some sa, Some sb when a <> b -> f sa sb
        | _ -> 0.0)
  in
  let sync_vdd sa sb = Float.max sa.Topology.vdd sb.Topology.vdd in
  (* Port counts only grow through [may_open], which keeps them within
     [max_arity]; anything beyond the table still prices through the
     model ([switch_pj_beyond]). *)
  let arity_cap = ref 2 in
  for s = 0 to n - 1 do
    arity_cap :=
      max !arity_cap
        (max max_arity.(s) (max (in_ports.(s) + 1) out_ports.(s)))
  done;
  let arity_cap = !arity_cap in
  let switch_pj =
    Array.init (locs * (arity_cap + 1)) (fun i ->
        let l = i / (arity_cap + 1) and a = i mod (arity_cap + 1) in
        match rep.(l) with
        | Some sw when a >= 2 ->
          switch_energy_pj config ~flit_bits ~vdd:sw.Topology.vdd a
        | _ -> 0.0)
  in
  {
    config;
    topo;
    n;
    mask;
    max_arity;
    in_ports;
    out_ports;
    capacity = Array.map capacity_of switches;
    has_indirect;
    out_to_inter = Array.make n false;
    in_from_inter = Array.make n false;
    loc;
    inter = islands;
    allowed_memo = Array.make (islands * islands) [||];
    arena = (if pooled then Domain.DLS.get arena_key else Astar.create ());
    locs;
    px = Array.map (fun sw -> sw.Topology.position.Geometry.x) switches;
    py = Array.map (fun sw -> sw.Topology.position.Geometry.y) switches;
    energy_scale =
      Array.map (fun sw -> Tech.energy_scale tech ~vdd:sw.Topology.vdd) switches;
    register_pj =
      Array.map
        (fun sw ->
          Link_model.register_energy_per_flit_pj tech ~flit_bits
            ~vdd:sw.Topology.vdd)
        switches;
    port_clock_mw = Array.map (port_clock_mw tech) switches;
    budget_mm =
      Array.map
        (fun sw ->
          if config.Config.allow_link_pipelining then
            Tech.max_unpipelined_mm tech ~freq_mhz:sw.Topology.freq_mhz
          else infinity)
        switches;
    sync_pj =
      pair_table (fun sa sb ->
          Sync_model.energy_per_flit_pj tech ~flit_bits ~vdd:(sync_vdd sa sb));
    sync_mw =
      pair_table (fun sa sb ->
          let vdd = sync_vdd sa sb in
          Sync_model.leakage_mw tech ~flit_bits ~depth:Sync_model.default_depth
            ~vdd
          +. Sync_model.clock_power_mw tech ~flit_bits ~vdd
               ~freq_mhz:(Float.max sa.Topology.freq_mhz sb.Topology.freq_mhz));
    arity_cap;
    switch_pj;
    wire_pj_per_mm_bit = tech.Tech.wire_energy_pj_per_mm_bit;
    toggling_bits = 0.5 *. float_of_int flit_bits;
    open_pj = config.Config.new_link_penalty_pj;
    to_target = Array.make n infinity;
    search =
      {
        bw = 0.0;
        rate = 0.0;
        beta = 0.0;
        p_norm = 1.0;
        lat_norm = 1.0;
        floor = infinity;
        lb_switch = 0.0;
        lb_latency = 0.0;
        lb_open = 0.0;
        open_energy = 0.0;
      };
    counts = { searches = 0; hop_costs = 0; hop_skips = 0 };
  }

let flush_counts state =
  let c = state.counts in
  let flush name by = if by > 0 then Metrics.incr ~by name in
  flush "path_alloc.searches" c.searches;
  flush "path_alloc.hop_costs" c.hop_costs;
  flush "path_alloc.hop_skips" c.hop_skips;
  c.searches <- 0;
  c.hop_costs <- 0;
  c.hop_skips <- 0

let is_intermediate state s = state.loc.(s) = state.inter

let node_allowed state ~si ~di s =
  let a = state.loc.(s) in
  a = state.inter || a = si || a = di

(* Usable bandwidth of link u->v: the slower end's.  Capacities are
   positive and finite, so this is [Float.min] without its NaN and
   signed-zero cases. *)
let[@inline] link_capacity state u v =
  let cap_u = state.capacity.(u) and cap_v = state.capacity.(v) in
  if cap_u <= cap_v then cap_u else cap_v

(* pipeline registers needed on a prospective link driven by [sw_u] *)
let stages_needed config sw_u ~length_mm =
  if config.Config.allow_link_pipelining then
    Link_model.stages_for config.Config.tech ~length_mm
      ~freq_mhz:sw_u.Topology.freq_mhz
  else 0

(* Normalization so the beta mix is dimensionless: a "typical" hop is a 5x5
   switch plus 2 mm of wire at nominal supply. *)
let reference_hop_power_mw config topo flow =
  let tech = config.Config.tech in
  let flit_bits = topo.Topology.flit_bits in
  let rate =
    Units.flits_per_second ~bw_mbps:flow.Flow.bandwidth_mbps ~flit_bits
  in
  let cfg =
    {
      Switch_model.inputs = 5;
      outputs = 5;
      flit_bits;
      buffer_depth = config.Config.buffer_depth;
    }
  in
  let e =
    Switch_model.energy_per_flit_pj tech cfg ~vdd:tech.Noc_models.Tech.vdd_nominal
    +. Link_model.energy_per_flit_pj tech ~length_mm:2.0 ~flit_bits
         ~vdd:tech.Noc_models.Tech.vdd_nominal
  in
  Float.max 1e-9 (Units.power_mw_of_energy ~energy_pj:e ~events_per_second:rate)

(* Ascending ids of the switches an (si, di) flow may visit — a pure
   function of the topology's fixed switch locations, so it is memoized
   per state (fault masks are deliberately NOT baked in: a
   [route_backup] state shares these tables across a mask change). *)
let allowed_nodes state ~si ~di =
  let key = (si * state.topo.Topology.islands) + di in
  match state.allowed_memo.(key) with
  | [||] ->
    let buf = Array.make state.n 0 in
    let count = ref 0 in
    for v = 0 to state.n - 1 do
      if node_allowed state ~si ~di v then begin
        buf.(!count) <- v;
        incr count
      end
    done;
    let nodes = Array.sub buf 0 !count in
    state.allowed_memo.(key) <- nodes;
    nodes
  | nodes -> nodes

(* ---------- the hop kernel ---------- *)

(* A hop's switch and link cycles; a crossing adds the converter's. *)
let hop_cycles =
  Switch_model.pipeline_latency_cycles + Link_model.traversal_cycles

(* Each helper below marked [@inline] is written once and inlined into
   both callers, the expansion [expand_node] and the A* floor pass
   [target_floor].  The build has no flambda and compiles library
   modules [-opaque]: closure-mode ocamlopt honours [@inline] only when
   the body holds no local closure, no [let rec] and no optional
   argument, and a call into another module is never inlined, so the
   rare paths that need the model functions are out-of-line calls. *)

let[@inline] manhattan state u v =
  Float.abs (state.px.(u) -. state.px.(v))
  +. Float.abs (state.py.(u) -. state.py.(v))

(* Pipeline stages of a prospective u->v link of [length] mm: none
   within u's budget (always, with pipelining off), else the model's
   count. *)
let[@inline] new_link_stages state u ~length =
  if length <= state.budget_mm.(u) then 0
  else
    Link_model.stages_for state.config.Config.tech ~length_mm:length
      ~freq_mhz:state.topo.Topology.switches.(u).Topology.freq_mhz

(* A switch priced beyond the tabulated arities: straight from the model,
   as every arity in the table was. *)
let switch_pj_beyond state v arity =
  switch_energy_pj state.config ~flit_bits:state.topo.Topology.flit_bits
    ~vdd:state.topo.Topology.switches.(v).Topology.vdd arity

(* Switch traversal pJ/flit of entering [v] with [inputs] input and
   [outputs] output ports — the model's [max 2] floor on each, then its
   arity [max inputs outputs]. *)
let[@inline] switch_pj state v ~inputs ~outputs =
  let a = if inputs > outputs then inputs else outputs in
  let a = if a > 2 then a else 2 in
  if a <= state.arity_cap then
    state.switch_pj.((state.loc.(v) * (state.arity_cap + 1)) + a)
  else switch_pj_beyond state v a

(* The hop kernel: the relax weight of pushing the search's flow through
   hop u->v, entering switch v; [is_new] adds the opening penalty and
   the standing power of the new link — both ends' port clocks and, on
   a crossing, the converter's leakage and clock.  The weight is the
   [beta] mix of the power increase and the hop latency, each
   normalized ([p_norm], [lat_norm]), floored at 1e-9 so every edge is
   strictly positive.

   Every term is a tabulated value of the model function that priced it
   before, composed in that function's association: the wire term as
   [Link_model.energy_per_flit_pj] writes it, [e_link +. e_sync +.
   e_registers +. e_open], [e_switch +. e_wire], then
   [Units.power_mw_of_energy]'s [energy *. rate *. 1e-9] plus the
   standing power.  Float arithmetic is deterministic for a fixed
   association, so the weights are bit-identical to the model's (see
   docs/ALGORITHM.md, "The closed-form hop kernel"). *)
let[@inline] hop_weight state ~is_new ~stages ~length u v =
  let sp = state.search in
  let pair = (state.loc.(u) * state.locs) + state.loc.(v) in
  let e_link =
    state.wire_pj_per_mm_bit *. length *. state.toggling_bits
    *. state.energy_scale.(u)
  in
  let e_wire =
    e_link +. state.sync_pj.(pair)
    +. (float_of_int stages *. state.register_pj.(u))
    +. if is_new then state.open_pj else 0.0
  in
  let e_switch =
    switch_pj state v
      ~inputs:(state.in_ports.(v) + if is_new then 1 else 0)
      ~outputs:state.out_ports.(v)
  in
  let standing =
    if is_new then
      state.port_clock_mw.(u) +. state.port_clock_mw.(v) +. state.sync_mw.(pair)
    else 0.0
  in
  let power = ((e_switch +. e_wire) *. sp.rate *. 1e-9) +. standing in
  let cycles =
    hop_cycles + stages
    + if state.loc.(u) <> state.loc.(v) then Sync_model.crossing_latency_cycles
      else 0
  in
  let cost =
    (sp.beta *. (power /. sp.p_norm))
    +. ((1.0 -. sp.beta) *. (float_of_int cycles /. sp.lat_norm))
  in
  state.counts.hop_costs <- state.counts.hop_costs + 1;
  if cost > 1e-9 then cost else 1e-9

(* May a flow of [bw] MB/s reuse the existing link u->v? *)
let[@inline] may_reuse state ~bw link u v =
  link.Topology.bw_mbps +. bw <= link_capacity state u v +. 1e-9

(* May a flow of [bw] MB/s from island [si] to island [di] open a new
   link u->v?  First the paper's shutdown-safe opening rule, over the
   locations ([inter] is the always-on intermediate VI): a new link stays
   inside one island, goes straight from [si] to [di], leaves [si] for
   the intermediate VI, enters [di] from it, or stays inside it — never
   through a third, shutdownable island.  Then the port budgets: while a
   direct switch has no link to (from) the intermediate VI yet, one of its
   output (input) ports is held back for that link — otherwise the
   highest-bandwidth flows exhaust the crossbar on direct island-to-island
   links and leave low-rate fan-out flows with no legal path at all — and
   a link touching the intermediate VI may take the held port, since that
   is what it is held for.  Last, the new link's capacity. *)
let[@inline] may_open state ~si ~di ~bw u v =
  let inter = state.inter in
  let isl_u = state.loc.(u) and isl_v = state.loc.(v) in
  (if isl_u <> inter then
     if isl_v = inter then isl_u = si
     else isl_u = isl_v || (isl_u = si && isl_v = di)
   else isl_v = inter || isl_v = di)
  && (let held = state.has_indirect && isl_u <> inter && isl_v <> inter in
      state.out_ports.(u) + 1
      <= state.max_arity.(u)
         - (if held && not state.out_to_inter.(u) then 1 else 0)
      && state.in_ports.(v) + 1
         <= state.max_arity.(v)
            - (if held && not state.in_from_inter.(v) then 1 else 0))
  && bw <= link_capacity state u v +. 1e-9

(* Is hop u->v outside the mask?  The expansion asks this of the head
   only: the tail is the node being expanded, and no caller searches from
   a dead switch ([route_flow] rejects dead endpoints, backup masks spare
   both). *)
let[@inline] live state u v =
  state.mask == no_mask
  || ((not (state.mask.dead_switch v)) && not (state.mask.dead_link u v))

(* The floor pass: the weight of every admissible hop into [target],
   kept in [to_target] for the expansion, and their exact float minimum
   in [search.floor] — A*'s constant heuristic.  During one search the
   routing state is immutable, so this set and each hop's weight are
   fixed; h(v) = floor for v <> target and h(target) = 0 is therefore
   consistent, and with the heap's (f, g, id) ordering A* pops non-target
   nodes in exactly Dijkstra's (g, id) order (see docs/ALGORITHM.md for
   the identity argument).  [infinity] when no hop can enter the target:
   the target is then unreachable (a dead target too), and the search
   proves it. *)
let target_floor state ~si ~di ~allowed ~target =
  let sp = state.search in
  let links = state.topo.Topology.links in
  let bw = sp.bw in
  sp.floor <- infinity;
  for i = 0 to Array.length allowed - 1 do
    let u = allowed.(i) in
    let w =
      if
        u = target
        || not
             (live state u target
             && (state.mask == no_mask || not (state.mask.dead_switch u)))
      then infinity
      else
        match Flat.get links u target with
        | Some link ->
          if may_reuse state ~bw link u target then
            hop_weight state ~is_new:false ~stages:link.Topology.stages
              ~length:(manhattan state u target) u target
          else infinity
        | None ->
          if may_open state ~si ~di ~bw u target then begin
            let length = manhattan state u target in
            hop_weight state ~is_new:true
              ~stages:(new_link_stages state u ~length)
              ~length u target
          end
          else infinity
    in
    state.to_target.(u) <- w;
    if w < sp.floor then sp.floor <- w
  done

(* [1 - 1e-9]: the lower bound's margin against rounding (see
   [expand_node]). *)
let lb_shrink = 1.0 -. 1e-9

(* The expansion of [u], labeled [d], under the target label [bound]
   ([infinity] while unlabeled): write every admissible hop out of [u]
   with its weight into [succ]/[weight] and return their count.

   The hop into the target comes first, with the weight the floor pass
   already computed, and it lowers the bound to [d +. w(u, target)] —
   the target's label once A* relaxes it.  Every other candidate [v] is
   then tested against a lower bound on its weight before anything else
   is spent on it:
     lb(v) = beta * e_sw(v at its current arity) * rate * 1e-9 / p_norm
             + (1 - beta) * 3 / lat_norm,
   plus, for a new link, beta * (port clock of u and v
   + opening penalty * rate * 1e-9) / p_norm.  Every term of the true
   weight is non-negative, a new link only raises v's arity, and a hop
   takes at least 3 cycles, so lb(v) is at most the weight in exact
   arithmetic; shrunk by [lb_shrink], it stays below the float weight,
   whose few roundings err by ~1e-15 relative.  If [d +. lb + floor]
   already reaches the bound, the hop's f would too, and A*'s goal-bound
   prune would discard it: skipping it before the mask, the admissibility
   tests and the kernel changes nothing.  Admissible nodes are visited in
   descending id order, the relax order every earlier revision used. *)
let expand_node state ~si ~di ~allowed ~target u d bound succ weight =
  let sp = state.search in
  let row_u = Flat.out_row state.topo.Topology.links u in
  let bw = sp.bw and floor = sp.floor in
  let count = ref 0 in
  let w_ut = state.to_target.(u) in
  let bound =
    if w_ut < infinity then begin
      succ.(0) <- target;
      weight.(0) <- w_ut;
      count := 1;
      let via = d +. w_ut in
      if via < bound then via else bound
    end
    else bound
  in
  let lb_switch = sp.lb_switch and lb_latency = sp.lb_latency in
  let lb_open_u = sp.lb_open and open_mw = sp.open_energy in
  let clock_u = state.port_clock_mw.(u) in
  for i = Array.length allowed - 1 downto 0 do
    let v = allowed.(i) in
    if v <> u && v <> target then begin
      let cell = match row_u with None -> None | Some row -> row.(v) in
      let lb =
        (lb_switch
         *. switch_pj state v ~inputs:state.in_ports.(v)
              ~outputs:state.out_ports.(v))
        +. lb_latency
      in
      let lb =
        match cell with
        | Some _ -> lb
        | None ->
          lb +. (lb_open_u *. (clock_u +. state.port_clock_mw.(v) +. open_mw))
      in
      if d +. (lb *. lb_shrink) +. floor >= bound then
        state.counts.hop_skips <- state.counts.hop_skips + 1
      else if live state u v then
        match cell with
        | Some link ->
          if may_reuse state ~bw link u v then begin
            succ.(!count) <- v;
            weight.(!count) <-
              hop_weight state ~is_new:false ~stages:link.Topology.stages
                ~length:(manhattan state u v) u v;
            incr count
          end
        | None ->
          if may_open state ~si ~di ~bw u v then begin
            let length = manhattan state u v in
            succ.(!count) <- v;
            weight.(!count) <-
              hop_weight state ~is_new:true
                ~stages:(new_link_stages state u ~length)
                ~length u v;
            incr count
          end
    end
  done;
  !count

(* One least-cost search (Algorithm 1, step 15): A* from [source] to
   [target] over the admissible hops, with the target floor as its
   constant heuristic, in the state's reusable arena. *)
let shortest_path state flow ~si ~di ~beta ~p_norm ~allowed ~source ~target =
  let sp = state.search in
  let bw = flow.Flow.bandwidth_mbps in
  let rate =
    Units.flits_per_second ~bw_mbps:bw ~flit_bits:state.topo.Topology.flit_bits
  in
  let lat_norm = float_of_int flow.Flow.max_latency_cycles in
  sp.bw <- bw;
  sp.rate <- rate;
  sp.beta <- beta;
  sp.p_norm <- p_norm;
  sp.lat_norm <- lat_norm;
  (* the bound needs every term of the weight non-negative *)
  if beta >= 0.0 && beta <= 1.0 && state.open_pj >= 0.0 && lat_norm > 0.0
  then begin
    sp.lb_switch <- beta *. rate *. 1e-9 /. p_norm;
    sp.lb_latency <- (1.0 -. beta) *. float_of_int hop_cycles /. lat_norm;
    sp.lb_open <- beta /. p_norm;
    sp.open_energy <- state.open_pj *. rate *. 1e-9
  end
  else begin
    sp.lb_switch <- 0.0;
    sp.lb_latency <- 0.0;
    sp.lb_open <- 0.0;
    sp.open_energy <- 0.0
  end;
  target_floor state ~si ~di ~allowed ~target;
  state.counts.searches <- state.counts.searches + 1;
  Astar.run_to_const state.arena ~n:state.n
    ~expand:(fun u d bound succ weight ->
      expand_node state ~si ~di ~allowed ~target u d bound succ weight)
    ~floor:sp.floor ~source ~target

let open_missing config state route =
  let topo = state.topo in
  let rec go = function
    | a :: (b :: _ as rest) ->
      (match Topology.find_link topo ~src:a ~dst:b with
       | Some _ -> ()
       | None ->
         let length =
           Geometry.manhattan topo.Topology.switches.(a).Topology.position
             topo.Topology.switches.(b).Topology.position
         in
         let stages =
           stages_needed config topo.Topology.switches.(a) ~length_mm:length
         in
         ignore (Topology.add_link ~stages topo ~src:a ~dst:b ~length_mm:length);
         state.out_ports.(a) <- state.out_ports.(a) + 1;
         state.in_ports.(b) <- state.in_ports.(b) + 1;
         if is_intermediate state b then state.out_to_inter.(a) <- true;
         if is_intermediate state a then state.in_from_inter.(b) <- true);
      go rest
    | [ _ ] | [] -> ()
  in
  go route

let commit config state flow route =
  open_missing config state route;
  Topology.commit_flow state.topo flow ~route

let route_flow config state flow =
  let topo = state.topo in
  let si = ref 0 and di = ref 0 in
  (match
     ( topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.src))
         .Topology.location,
       topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.dst))
         .Topology.location )
   with
   | Topology.Island a, Topology.Island b ->
     si := a;
     di := b
   | _ -> assert false (* cores never attach to indirect switches *));
  let ss = topo.Topology.core_switch.(flow.Flow.src) in
  let ds = topo.Topology.core_switch.(flow.Flow.dst) in
  if state.mask.dead_switch ss || state.mask.dead_switch ds then
    (* a dead endpoint switch strands the flow's NI — nothing to route *)
    Error { flow; reason = `No_path }
  else if ss = ds then begin
    commit config state flow [ ss ];
    Ok ()
  end
  else begin
    let p_norm = reference_hop_power_mw config topo flow in
    (* one memo lookup per flow, not one per node expansion *)
    let allowed = allowed_nodes state ~si:!si ~di:!di in
    let attempt beta =
      shortest_path state flow ~si:!si ~di:!di ~beta ~p_norm ~allowed
        ~source:ss ~target:ds
    in
    let try_route beta =
      match attempt beta with
      | None -> Error { flow; reason = `No_path }
      | Some (_, route) ->
        let latency = Topology.route_latency_cycles topo route in
        if latency <= flow.Flow.max_latency_cycles then begin
          commit config state flow route;
          Ok ()
        end
        else Error { flow; reason = `Latency (latency - flow.Flow.max_latency_cycles) }
    in
    match try_route config.Config.beta with
    | Ok () -> Ok ()
    | Error { reason = `Latency _; _ } when config.Config.beta > 0.0 ->
      (* power-cheapest path was too slow: retry latency-driven *)
      try_route 0.0
    | Error _ as e -> e
  end

(* ---------- transactional rip-up and reroute ---------- *)

(* A consistent snapshot of the mutable routing state: the topology's
   journal checkpoint plus copies of the incremental port/reserve
   counters.  [restore] brings both back in one step, so the allocator can
   speculate freely and abandon a failed recovery without rebuilding
   anything. *)
type snapshot = {
  cp : Topology.checkpoint;
  in_ports_snap : int array;
  out_ports_snap : int array;
  out_to_inter_snap : bool array;
  in_from_inter_snap : bool array;
}

let save state =
  {
    cp = Topology.checkpoint state.topo;
    in_ports_snap = Array.copy state.in_ports;
    out_ports_snap = Array.copy state.out_ports;
    out_to_inter_snap = Array.copy state.out_to_inter;
    in_from_inter_snap = Array.copy state.in_from_inter;
  }

let restore state snap =
  Topology.rollback state.topo snap.cp;
  Array.blit snap.in_ports_snap 0 state.in_ports 0
    (Array.length state.in_ports);
  Array.blit snap.out_ports_snap 0 state.out_ports 0
    (Array.length state.out_ports);
  Array.blit snap.out_to_inter_snap 0 state.out_to_inter 0
    (Array.length state.out_to_inter);
  Array.blit snap.in_from_inter_snap 0 state.in_from_inter 0
    (Array.length state.in_from_inter)

let intermediate_switches state =
  let acc = ref [] in
  Array.iter
    (fun sw ->
      if sw.Topology.location = Topology.Intermediate then
        acc := sw.Topology.sw_id :: !acc)
    state.topo.Topology.switches;
  List.rev !acc

(* Update the incremental counters after [Topology.remove_flow] dropped
   zero-bandwidth links, keeping them equal to what a recount would
   give. *)
let note_dropped_links state dropped =
  let inter = lazy (intermediate_switches state) in
  List.iter
    (fun link ->
      let u = link.Topology.link_src and v = link.Topology.link_dst in
      state.out_ports.(u) <- state.out_ports.(u) - 1;
      state.in_ports.(v) <- state.in_ports.(v) - 1;
      if is_intermediate state v then
        state.out_to_inter.(u) <-
          List.exists
            (fun w ->
              Topology.find_link state.topo ~src:u ~dst:w <> None)
            (Lazy.force inter);
      if is_intermediate state u then
        state.in_from_inter.(v) <-
          List.exists
            (fun w ->
              Topology.find_link state.topo ~src:w ~dst:v <> None)
            (Lazy.force inter))
    dropped

(* The routing order: decreasing bandwidth, ties by (src, dst). *)
let by_bandwidth a b =
  match Float.compare b.Flow.bandwidth_mbps a.Flow.bandwidth_mbps with
  | 0 ->
    (match Int.compare a.Flow.src b.Flow.src with
     | 0 -> Int.compare a.Flow.dst b.Flow.dst
     | c -> c)
  | c -> c

(* Committed flows standing in the failed flow's way, cheapest first: any
   flow routed over a link, inside the failed flow's legal switch region,
   that is either too full to take the flow's bandwidth or driven
   from/into a port-saturated switch.  Those are exactly the resources a
   capacity- or port-starved flow needs back. *)
let conflict_victims state flow ~si ~di =
  let topo = state.topo in
  let congested (u, v) link =
    node_allowed state ~si ~di u
    && node_allowed state ~si ~di v
    && (link.Topology.bw_mbps +. flow.Flow.bandwidth_mbps
        > link_capacity state u v +. 1e-9
        || state.out_ports.(u) + 1 > state.max_arity.(u)
        || state.in_ports.(v) + 1 > state.max_arity.(v))
  in
  let congested_links =
    List.filter
      (fun l -> congested (l.Topology.link_src, l.Topology.link_dst) l)
      (Topology.links_list topo)
  in
  if congested_links = [] then []
  else begin
    let on_link (a, b) route =
      let rec scan = function
        | x :: (y :: _ as rest) -> (x = a && y = b) || scan rest
        | [ _ ] | [] -> false
      in
      scan route
    in
    let seen = Hashtbl.create 16 in
    let victims =
      List.filter
        (fun (f, route) ->
          let k = (f.Flow.src, f.Flow.dst) in
          if Hashtbl.mem seen k then false
          else if
            List.exists
              (fun l ->
                on_link (l.Topology.link_src, l.Topology.link_dst) route)
              congested_links
          then begin
            Hashtbl.add seen k ();
            true
          end
          else false)
        topo.Topology.routes
      |> List.map fst
    in
    (* cheapest first: ripping up a low-bandwidth flow frees capacity at
       the smallest reroute risk; ties broken by (src, dst) so recovery is
       deterministic *)
    List.sort
      (fun a b ->
        match compare a.Flow.bandwidth_mbps b.Flow.bandwidth_mbps with
        | 0 -> compare (a.Flow.src, a.Flow.dst) (b.Flow.src, b.Flow.dst)
        | c -> c)
      victims
  end

(* Recovery is bounded: past this many rip-ups the congestion is
   structural and a full restart (or rejecting the candidate) is
   cheaper than continuing to dig. *)
let max_ripups_per_recovery = 8

(* Rip up the cheapest conflicting flows one at a time until the failed
   flow routes, then put every ripped-up flow back (hottest first, like
   the main order).  Returns the number of flows ripped up on success;
   rolls the topology and counters back to [snap]-time state on
   failure. *)
let rip_up_and_reroute config state flow ~si ~di =
  let snap = save state in
  let victims = conflict_victims state flow ~si ~di in
  (* [`Failed rolled_back]: whether any speculation had to be undone, as
     opposed to finding no victim to rip up at all *)
  let roll_back ripped =
    restore state snap;
    if ripped <> [] then Metrics.incr "path_alloc.rollbacks";
    `Failed (ripped <> [])
  in
  let rec rip ripped = function
    | [] -> Error ripped
    | _ when List.length ripped >= max_ripups_per_recovery -> Error ripped
    | victim :: rest ->
      (match Topology.remove_flow state.topo victim with
       | None -> rip ripped rest (* stale: already ripped up *)
       | Some (_route, dropped) ->
         note_dropped_links state dropped;
         Metrics.incr "path_alloc.ripups";
         let ripped = victim :: ripped in
         (match route_flow config state flow with
          | Ok () -> Ok ripped
          | Error _ -> rip ripped rest))
  in
  match rip [] victims with
  | Error ripped -> roll_back ripped
  | Ok ripped ->
    (* reroute the victims in the main loop's order *)
    let rec reroute = function
      | [] -> true
      | v :: rest ->
        (match route_flow config state v with
         | Ok () ->
           Metrics.incr "path_alloc.reroutes";
           reroute rest
         | Error _ -> false)
    in
    if reroute (List.sort by_bandwidth ripped) then
      `Recovered (List.length ripped)
    else roll_back ripped

let islands_of_flow state flow =
  let topo = state.topo in
  match
    ( topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.src))
        .Topology.location,
      topo.Topology.switches.(topo.Topology.core_switch.(flow.Flow.dst))
        .Topology.location )
  with
  | Topology.Island a, Topology.Island b -> (a, b)
  | _ -> assert false (* cores never attach to indirect switches *)

(* One-entry, per-domain memo of [List.sort by_bandwidth soc.flows]: the
   flow list is the same physical value for every candidate of a sweep
   and the comparator is pure, so the sweep sorts it once instead of once
   per candidate.  Keyed by physical identity — a different (even equal)
   list just recomputes. *)
let sorted_flows_key :
    (Flow.t list * Flow.t list) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let sorted_by_bandwidth flows =
  let cell = Domain.DLS.get sorted_flows_key in
  match !cell with
  | Some (key, sorted) when key == flows -> sorted
  | _ ->
    let sorted = List.sort by_bandwidth flows in
    cell := Some (flows, sorted);
    sorted

let route_all ?(priority = []) ?cache:(_ : bool option)
    ?engine:(_ : engine option) config soc topo ~clocks =
  Metrics.time "path_alloc.route_all" @@ fun () ->
  let state = make_state ~pooled:true config topo ~clocks in
  let pristine = save state in
  let flows_of priority =
    match priority with
    | [] ->
      (* every rank ties at max_int — skip the per-comparison hashing
         (and its key-tuple allocation) the ranked path pays *)
      sorted_by_bandwidth soc.Soc_spec.flows
    | _ ->
      (* position in the priority list, or max_int for unlisted flows *)
      let rank_tbl = Hashtbl.create (List.length priority * 2 + 1) in
      List.iteri
        (fun i key ->
          if not (Hashtbl.mem rank_tbl key) then Hashtbl.add rank_tbl key i)
        priority;
      let rank f =
        match Hashtbl.find_opt rank_tbl (f.Flow.src, f.Flow.dst) with
        | Some i -> i
        | None -> max_int
      in
      let by_priority_then_bandwidth a b =
        match compare (rank a) (rank b) with
        | 0 -> by_bandwidth a b
        | c -> c
      in
      List.sort by_priority_then_bandwidth soc.Soc_spec.flows
  in
  (* One pass over the flows.  A failure first tries in-place recovery
     (rip up the cheapest conflicting committed flows, route the failed
     flow, put the victims back); if recovery fails, the whole allocation
     restarts from the pristine state with the troublesome flows routed
     first — the rebuild-free equivalent of the old
     rebuild-the-candidate retry, since a rebuilt candidate is
     deterministic and identical to the pristine rollback. *)
  let rec attempt priority restarts_left stats =
    let rec go stats = function
      | [] -> Ok stats
      | flow :: rest ->
        (match route_flow config state flow with
         | Ok () -> go stats rest
         | Error e ->
           let si, di = islands_of_flow state flow in
           (match rip_up_and_reroute config state flow ~si ~di with
            | `Recovered ripped ->
              go
                {
                  stats with
                  ripups = stats.ripups + ripped;
                  reroutes = stats.reroutes + ripped;
                }
                rest
            | `Failed rolled_back ->
              let stats =
                if rolled_back then
                  { stats with rollbacks = stats.rollbacks + 1 }
                else stats
              in
              let key = (flow.Flow.src, flow.Flow.dst) in
              if restarts_left > 0 && not (List.mem key priority) then begin
                restore state pristine;
                Metrics.incr "path_alloc.restarts";
                attempt (priority @ [ key ])
                  (restarts_left - 1)
                  { stats with restarts = stats.restarts + 1 }
              end
              else Error e))
    in
    go stats (flows_of priority)
  in
  let result = attempt priority 2 no_stats in
  (match result with
   | Ok _ -> Topology.clear_journal topo
   | Error _ -> ());
  flush_counts state;
  result

(* ---------- incremental sessions (fault repair) ---------- *)

(* A session wraps the mutable routing state for callers outside the main
   [route_all] sweep: the fault analyzer repairs severed flows one at a
   time, and protected synthesis allocates backup routes.  The optional
   mask removes faulted switches/links from the search's view — they can be
   neither reused nor reopened. *)
type session = {
  s_config : Config.t;
  s_state : state;
}

let session ?mask config topo ~clocks =
  { s_config = config; s_state = make_state ?mask config topo ~clocks }

let discard { s_state = state; _ } flow =
  match Topology.remove_flow state.topo flow with
  | None -> false
  | Some (_route, dropped) ->
    note_dropped_links state dropped;
    true

let reroute { s_config = config; s_state = state } flow =
  let result =
    match route_flow config state flow with
    | Ok () -> Ok ()
    | Error e ->
      let si, di = islands_of_flow state flow in
      (match rip_up_and_reroute config state flow ~si ~di with
       | `Recovered _ -> Ok ()
       | `Failed _ -> Error e)
  in
  flush_counts state;
  result

(* ---------- protection (backup) routes ---------- *)

let links_of_route route =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go ((a, b) :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] route

let route_backup_with config state flow ~si ~di ~ss ~ds mask =
  let masked = { state with mask } in
  let topo = state.topo in
  let p_norm = reference_hop_power_mw config topo flow in
  let allowed = allowed_nodes masked ~si ~di in
  let attempt beta =
    shortest_path masked flow ~si ~di ~beta ~p_norm ~allowed ~source:ss
      ~target:ds
  in
  (* Backups only carry traffic after a fault, in degraded mode; they get
     a slacked latency budget where primaries must meet the deadline. *)
  let budget =
    int_of_float
      (config.Config.protect_latency_slack
      *. float_of_int flow.Flow.max_latency_cycles)
  in
  let finish route =
    let latency = Topology.route_latency_cycles topo route in
    if latency <= budget then begin
      open_missing config state route;
      Topology.commit_backup topo flow ~route;
      Ok ()
    end
    else Error { flow; reason = `Latency (latency - budget) }
  in
  match attempt config.Config.beta with
  | None -> Error { flow; reason = `No_path }
  | Some (_, route) ->
    (match finish route with
     | Ok () -> Ok ()
     | Error { reason = `Latency _; _ } when config.Config.beta > 0.0 ->
       (* power-cheapest backup was too slow: retry latency-driven *)
       (match attempt 0.0 with
        | None -> Error { flow; reason = `No_path }
        | Some (_, route) -> finish route)
     | Error _ as e -> e)

let route_backup { s_config = config; s_state = state } flow =
  let topo = state.topo in
  let ss = topo.Topology.core_switch.(flow.Flow.src) in
  let ds = topo.Topology.core_switch.(flow.Flow.dst) in
  if ss = ds then Ok () (* NI-local flow: no fabric hop to protect *)
  else begin
    let primary =
      match
        List.find_opt
          (fun (f, _) ->
            (f.Flow.src, f.Flow.dst) = (flow.Flow.src, flow.Flow.dst))
          topo.Topology.routes
      with
      | Some (_, r) -> r
      | None ->
        invalid_arg "Path_alloc.route_backup: flow has no committed primary"
    in
    let si, di = islands_of_flow state flow in
    let prim_links = links_of_route primary in
    (* link-disjoint is the guarantee; switch-disjointness is attempted
       first and degrades gracefully when port budgets are too tight *)
    let link_disjoint =
      {
        dead_switch = (fun _ -> false);
        dead_link = (fun u v -> List.mem (u, v) prim_links);
      }
    in
    let switch_disjoint =
      {
        link_disjoint with
        dead_switch = (fun s -> s <> ss && s <> ds && List.mem s primary);
      }
    in
    let attempt m =
      route_backup_with config state flow ~si ~di ~ss ~ds
        (mask_union state.mask m)
    in
    let result =
      match attempt switch_disjoint with
      | Ok () -> Ok ()
      | Error _ -> attempt link_disjoint
    in
    flush_counts state;
    result
  end
