module Flow = Noc_spec.Flow
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Units = Noc_models.Units
module Switch_model = Noc_models.Switch_model
module Link_model = Noc_models.Link_model
module Sync_model = Noc_models.Sync_model
module Astar = Noc_graph.Astar
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

(* Scratch cell the hop kernel writes into.  An all-float record is
   stored flat (fields unboxed), so a kernel call allocates nothing. *)
type hop_out = { mutable out_power : float; mutable out_latency : float }

(* The hop-energy memo, laid out for the search's inner loop: directly
   indexed slots — no hashing, no allocation — holding the
   flow-independent cost factors, each tagged with the inputs it was
   computed from (a slot whose tag no longer matches is recomputed and
   overwritten).  The factors are cached separately because they drift at
   very different rates: the wire part of a hop (link, converter and
   register energy, standing power, latency) is pure in the fixed
   geometry and [stages], which is constant per (is_new, u, v) pair in
   practice — while the switch-traversal part depends on v's live port
   counts, which change every time routing opens a link.  Coupling them
   under one tag would throw away the expensive wire model on every port
   drift. *)
type hop_cache = {
  wire_tag : int array;
      (* (memo_epoch lsl 16) lor stages, or -1 cold — per (is_new, u, v).
         Pipeline stages are a handful of registers on a die-scale wire,
         far below 2^16, so the epoch field never aliases. *)
  wire_energy : float array;  (* energy_pj of the wire part of the hop *)
  wire_standing : float array; (* standing mW of opening the link *)
  wire_latency : float array; (* hop latency in cycles, as the search uses it *)
  sw_tag : int array;
      (* (memo_epoch lsl 20) lor packed ports, or -1 cold — per (is_new, v);
         the port packing is 20 bits by construction *)
  sw_energy : float array;    (* energy_pj of traversing switch v *)
}

(* Per-domain pool for the O(n²) memo arrays above.  A sweep calls
   [route_all] once per candidate, and a fresh [make_state] used to push
   five major-heap arrays per call — at d48 the resulting GC pressure
   (marking + sweeping) cost more than the routing itself.  [route_all]
   states are strictly scoped to one call on one domain, so they borrow
   the domain's scratch instead: reuse just bumps [sc_epoch], which every
   memo tag carries — all stored entries go stale in O(1), with no
   per-candidate refill at all (value arrays are tag-gated and need no
   reset).  The A* search arena rides along for the same reason: one
   live search per domain.  Sessions outlive their creating call and may
   overlap arbitrarily, so they never pool. *)
type scratch = {
  mutable sc_cap : int; (* node count the arrays are sized for *)
  mutable sc_epoch : int;
      (* current borrower's epoch, baked into every memo tag
         ([state.memo_epoch]); bumping it on reuse invalidates all stored
         entries in O(1) — no O(n²) refill per candidate *)
  mutable sc_wire_tag : int array;
  mutable sc_wire_energy : float array;
  mutable sc_wire_standing : float array;
  mutable sc_wire_latency : float array;
  mutable sc_sw_tag : int array;
  mutable sc_sw_energy : float array;
  mutable sc_new_stages : int array;
  sc_arena : Astar.arena;
      (* the domain's reusable search arena — internally epoch-stamped,
         so hand-off between borrowers needs no reset either *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        sc_cap = 0;
        sc_epoch = 0;
        sc_wire_tag = [||];
        sc_wire_energy = [||];
        sc_wire_standing = [||];
        sc_wire_latency = [||];
        sc_sw_tag = [||];
        sc_sw_energy = [||];
        sc_new_stages = [||];
        sc_arena = Astar.create ();
      })

let borrow_scratch n =
  let sc = Domain.DLS.get scratch_key in
  (* epoch 0 is reserved for unpooled states, whose arrays start -1-filled *)
  sc.sc_epoch <- sc.sc_epoch + 1;
  if n > sc.sc_cap then begin
    let cap = max n (2 * sc.sc_cap) in
    sc.sc_cap <- cap;
    sc.sc_wire_tag <- Array.make (2 * cap * cap) (-1);
    sc.sc_wire_energy <- Array.make (2 * cap * cap) 0.0;
    sc.sc_wire_standing <- Array.make (2 * cap * cap) 0.0;
    sc.sc_wire_latency <- Array.make (2 * cap * cap) 0.0;
    sc.sc_sw_tag <- Array.make (2 * cap) (-1);
    sc.sc_sw_energy <- Array.make (2 * cap) 0.0;
    sc.sc_new_stages <- Array.make (cap * cap) (-1)
  end;
  sc

(* Mutable routing state: port counters are maintained incrementally because
   recounting them from the link table inside the search would be
   quadratic. *)
type state = {
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
  hop_cache : hop_cache option;
      (* direct-indexed (energy_pj, standing_mw) per (is_new, u, v) hop,
         tag-validated against the evolving (stages, ports) inputs — see
         [hop_kernel].  Local to this state (one domain), no lock. *)
  new_stages : int array option;
      (* pipeline stages of a prospective u->v link, encoded
         [(memo_epoch lsl 16) lor stages] ([-1] cold) — pure in
         the fixed geometry and u's clock, so one manhattan/stage model
         evaluation per pair instead of one per search probe. *)
  memo_epoch : int;
      (* epoch baked into this state's [hop_cache]/[new_stages] tags: a
         pooled state inherits the scratch arrays without clearing them,
         and the fresh epoch makes every stale entry miss.  0 for
         unpooled states (whose arrays start cold-filled). *)
  allowed_memo : (int, int array) Hashtbl.t option;
      (* ascending switch ids admissible for an (si, di) flow — a pure
         function of the fixed switch locations.  Fault masks are checked
         per lookup, never baked in, so states sharing these tables across
         a mask change ([route_backup]) stay correct. *)
  hop_hits : int ref;   (* flushed to Metrics in batch: the global counter *)
  hop_misses : int ref; (* mutex must not be taken per search edge *)
  arena : Astar.arena;
      (* the reusable search arena (dist/pred/heap scratch); shared by
         design with the functional-update copies [route_backup_with]
         makes — one domain, one search at a time *)
  hop_out : hop_out;  (* the hop kernel's scratch cell *)
  island : int array;
      (* per switch: its island id, or -1 for the intermediate VI.  Switch
         locations are fixed for the lifetime of a topology, so the
         admissibility tests read this flat copy instead of chasing
         [switches.(s).location] per probe. *)
}

let make_state ?(mask = no_mask) ?(cache = true) ?(pooled = false) config
    topo ~clocks =
  let n = Array.length topo.Topology.switches in
  let inter = lazy (Freq_assign.intermediate_clock config clocks) in
  let arity_of sw =
    match sw.Topology.location with
    | Topology.Island isl -> clocks.(isl).Freq_assign.max_arity
    | Topology.Intermediate -> (Lazy.force inter).Freq_assign.max_arity
  in
  let capacity_of sw =
    config.Config.link_utilization_cap
    *. Units.bandwidth_mbps_of_frequency ~freq_mhz:sw.Topology.freq_mhz
         ~flit_bits:topo.Topology.flit_bits
  in
  let has_indirect =
    Array.exists
      (fun sw -> sw.Topology.location = Topology.Intermediate)
      topo.Topology.switches
  in
  let pooled_sc = if cache && pooled then Some (borrow_scratch n) else None in
  {
    topo;
    n;
    mask;
    max_arity = Array.map arity_of topo.Topology.switches;
    in_ports = Array.init n (fun sw -> Topology.in_ports topo sw);
    out_ports = Array.init n (fun sw -> Topology.out_ports topo sw);
    capacity = Array.map capacity_of topo.Topology.switches;
    has_indirect;
    out_to_inter = Array.make n false;
    in_from_inter = Array.make n false;
    hop_cache =
      (match pooled_sc with
       | Some sc ->
         Some
           {
             wire_tag = sc.sc_wire_tag;
             wire_energy = sc.sc_wire_energy;
             wire_standing = sc.sc_wire_standing;
             wire_latency = sc.sc_wire_latency;
             sw_tag = sc.sc_sw_tag;
             sw_energy = sc.sc_sw_energy;
           }
       | None ->
         if cache then
           Some
             {
               wire_tag = Array.make (2 * n * n) (-1);
               wire_energy = Array.make (2 * n * n) 0.0;
               wire_standing = Array.make (2 * n * n) 0.0;
               wire_latency = Array.make (2 * n * n) 0.0;
               sw_tag = Array.make (2 * n) (-1);
               sw_energy = Array.make (2 * n) 0.0;
             }
         else None);
    new_stages =
      (match pooled_sc with
       | Some sc -> Some sc.sc_new_stages
       | None -> if cache then Some (Array.make (n * n) (-1)) else None);
    memo_epoch =
      (match pooled_sc with Some sc -> sc.sc_epoch | None -> 0);
    allowed_memo = (if cache then Some (Hashtbl.create 16) else None);
    hop_hits = ref 0;
    hop_misses = ref 0;
    arena =
      (match pooled_sc with Some sc -> sc.sc_arena | None -> Astar.create ());
    hop_out = { out_power = 0.0; out_latency = 0.0 };
    island =
      Array.map
        (fun sw ->
          match sw.Topology.location with
          | Topology.Island isl -> isl
          | Topology.Intermediate -> -1)
        topo.Topology.switches;
  }

let flush_hop_metrics state =
  if !(state.hop_hits) > 0 then begin
    Metrics.incr ~by:!(state.hop_hits) "cache.hop_energy.hits";
    state.hop_hits := 0
  end;
  if !(state.hop_misses) > 0 then begin
    Metrics.incr ~by:!(state.hop_misses) "cache.hop_energy.misses";
    state.hop_misses := 0
  end

let is_intermediate state s = state.island.(s) < 0

let node_allowed state ~si ~di s =
  let a = state.island.(s) in
  a < 0 || a = si || a = di

(* Usable bandwidth of link u->v: the slower end's.  Capacities are
   positive and finite, so this is [Float.min] without its NaN and
   signed-zero cases. *)
let[@inline] link_capacity state u v =
  let cap_u = state.capacity.(u) and cap_v = state.capacity.(v) in
  if cap_u <= cap_v then cap_u else cap_v

let hop_latency_cycles ~crossing ~stages =
  Switch_model.pipeline_latency_cycles + Link_model.traversal_cycles + stages
  + if crossing then Sync_model.crossing_latency_cycles else 0

(* pipeline registers needed on a prospective link driven by [sw_u] *)
let stages_needed config sw_u ~length_mm =
  if config.Config.allow_link_pipelining then
    Link_model.stages_for config.Config.tech ~length_mm
      ~freq_mhz:sw_u.Topology.freq_mhz
  else 0

(* The switch-traversal part of a hop's energy: entering switch [v] sized
   as it would be with this flow admitted.  Depends on the evolving port
   counts only through the packed (v, inputs, outputs) memo key. *)
let hop_switch_energy_pj config state ~is_new v =
  let topo = state.topo in
  let sw_v = topo.Topology.switches.(v) in
  let switch_cfg =
    {
      Switch_model.inputs = max 2 (state.in_ports.(v) + if is_new then 1 else 0);
      outputs = max 2 state.out_ports.(v);
      flit_bits = topo.Topology.flit_bits;
      buffer_depth = config.Config.buffer_depth;
    }
  in
  Switch_model.energy_per_flit_pj config.Config.tech switch_cfg
    ~vdd:sw_v.Topology.vdd

(* The wire part of a hop's cost — link, converter and pipeline-register
   energy plus the standing power of opening the link — a pure function of
   the topology's fixed geometry and supplies and (is_new, stages): the
   (is_new, stages, u, v) memo key. *)
let hop_wire_energy_standing config state ~is_new ~stages u v =
  let topo = state.topo in
  let tech = config.Config.tech in
  let flit_bits = topo.Topology.flit_bits in
  let sw_v = topo.Topology.switches.(v) in
  let sw_u = topo.Topology.switches.(u) in
  let crossing = Topology.is_crossing topo u v in
  let length =
    Geometry.manhattan sw_u.Topology.position sw_v.Topology.position
  in
  let e_link =
    Link_model.energy_per_flit_pj tech ~length_mm:length ~flit_bits
      ~vdd:sw_u.Topology.vdd
  in
  let e_sync =
    if crossing then
      Sync_model.energy_per_flit_pj tech ~flit_bits
        ~vdd:(Float.max sw_u.Topology.vdd sw_v.Topology.vdd)
    else 0.0
  in
  let e_registers =
    float_of_int stages
    *. Link_model.register_energy_per_flit_pj tech ~flit_bits
         ~vdd:sw_u.Topology.vdd
  in
  let e_open = if is_new then config.Config.new_link_penalty_pj else 0.0 in
  (* Opening a link costs standing power whether or not this flow is hot:
     one extra port's clock energy on both switches, plus — on a crossing —
     the converter's leakage and clock.  This is what consolidates
     inter-island traffic onto few links instead of a link per flow. *)
  let standing =
    if not is_new then 0.0
    else begin
      let port_clock sw =
        let f = sw.Topology.freq_mhz *. 1e6 in
        Units.power_mw_of_energy
          ~energy_pj:
            (1.0 *. Noc_models.Tech.energy_scale tech ~vdd:sw.Topology.vdd)
          ~events_per_second:f
      in
      let converter =
        if crossing then begin
          let vdd = Float.max sw_u.Topology.vdd sw_v.Topology.vdd in
          Sync_model.leakage_mw tech ~flit_bits
            ~depth:Sync_model.default_depth ~vdd
          +. Sync_model.clock_power_mw tech ~flit_bits ~vdd
               ~freq_mhz:(Float.max sw_u.Topology.freq_mhz sw_v.Topology.freq_mhz)
        end
        else 0.0
      in
      port_clock sw_u +. port_clock sw_v +. converter
    end
  in
  (e_link +. e_sync +. e_registers +. e_open, standing)

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
   function of the topology's fixed switch locations, so it is worth
   memoizing per state (fault masks are deliberately NOT baked in: a
   [route_backup] state shares these tables across a mask change). *)
let compute_allowed state ~si ~di =
  let buf = Array.make state.n 0 in
  let count = ref 0 in
  for v = 0 to state.n - 1 do
    if node_allowed state ~si ~di v then begin
      buf.(!count) <- v;
      incr count
    end
  done;
  Array.sub buf 0 !count

let allowed_nodes state ~si ~di =
  match state.allowed_memo with
  | Some tbl when si >= 0 && si < 0xFFFFF && di >= 0 && di < 0xFFFFF ->
    let key = (si lsl 20) lor di in
    (match Hashtbl.find_opt tbl key with
     | Some nodes -> Some nodes
     | None ->
       let nodes = compute_allowed state ~si ~di in
       Hashtbl.add tbl key nodes;
       Some nodes)
  | Some _ | None -> None

(* ---------- the hop kernel ---------- *)

(* Each helper below marked [@inline] is written once and inlined into
   both callers, the expansion [successors_iter_flat] and the A* floor
   [target_floor].  The build has no flambda; closure-mode ocamlopt
   honours [@inline] only when the body holds no local closure, no
   [let rec] and no optional argument, so the rare paths (memo misses,
   the memo-off computation) are separate out-of-line functions. *)

(* Pipeline stages of a prospective u->v link. *)
let new_link_stages_direct config state u v =
  let sw_u = state.topo.Topology.switches.(u) in
  let sw_v = state.topo.Topology.switches.(v) in
  let length = Geometry.manhattan sw_u.Topology.position sw_v.Topology.position in
  stages_needed config sw_u ~length_mm:length

let new_link_stages_miss config state arr idx u v =
  let fresh = new_link_stages_direct config state u v in
  if fresh land 0xFFFF = fresh then
    arr.(idx) <- (state.memo_epoch lsl 16) lor fresh;
  fresh

(* [new_link_stages_direct] through the [new_stages] memo when it is on:
   an entry is live iff its high bits carry this state's epoch. *)
let[@inline] new_link_stages config state u v =
  match state.new_stages with
  | None -> new_link_stages_direct config state u v
  | Some arr ->
    let idx = (u * state.n) + v in
    let c = arr.(idx) in
    if c asr 16 = state.memo_epoch && c >= 0 then c land 0xFFFF
    else new_link_stages_miss config state arr idx u v

(* The kernel with no usable memo slot: the flow-independent factors
   computed afresh, then recomposed exactly as the memo path below does —
   switch part first, then the rate, then the standing power. *)
let hop_direct config state ~rate ~is_new ~stages u v out =
  let e_switch = hop_switch_energy_pj config state ~is_new v in
  let e_wire, standing =
    hop_wire_energy_standing config state ~is_new ~stages u v
  in
  let crossing = Topology.is_crossing state.topo u v in
  out.out_power <-
    Units.power_mw_of_energy ~energy_pj:(e_switch +. e_wire)
      ~events_per_second:rate
    +. standing;
  out.out_latency <- float_of_int (hop_latency_cycles ~crossing ~stages)

(* Recompute and store the wire slot [widx] of hop u->v. *)
let hop_wire_miss config state hc ~is_new ~stages ~tag u v widx =
  incr state.hop_misses;
  let e_wire, standing =
    hop_wire_energy_standing config state ~is_new ~stages u v
  in
  let crossing = Topology.is_crossing state.topo u v in
  hc.wire_tag.(widx) <- tag;
  hc.wire_energy.(widx) <- e_wire;
  hc.wire_standing.(widx) <- standing;
  hc.wire_latency.(widx) <- float_of_int (hop_latency_cycles ~crossing ~stages)

(* The hop kernel: the power increase (mW) and latency (cycles) of pushing
   a flow of [rate] flits/s through hop u->v, entering switch v, written to
   [out]; [is_new] adds the opening bias and, for crossings, the leakage
   of the converter that would be instantiated.

   This is the synthesis hot spot (~1.5M evaluations per d36 sweep), so
   the flow-independent factors are memoized per routing state in directly
   indexed arrays — the wire slot per (is_new, u, v) validated against
   [stages], the switch slot per (is_new, v) against the live port counts
   — so a lookup neither hashes nor allocates.  Port counts that do not
   fit the 10-bit tag fields fall back to [hop_direct], so packing limits
   can never produce a wrong hit.  The flow only enters through the flit
   rate, and [Units.power_mw_of_energy] is linear in the rate, so caching
   the exact (energy_pj, standing_mw) pair and recomposing through the
   same expression keeps memo-on and memo-off costs bit-identical. *)
let[@inline] hop_kernel config state ~rate ~is_new ~stages u v out =
  match state.hop_cache with
  | None -> hop_direct config state ~rate ~is_new ~stages u v out
  | Some hc ->
    let in_v = state.in_ports.(v) and out_v = state.out_ports.(v) in
    if in_v < 0 || in_v >= 1024 || out_v < 0 || out_v >= 1024 then
      hop_direct config state ~rate ~is_new ~stages u v out
    else begin
      let n = state.n in
      let widx = ((((if is_new then 1 else 0) * n) + u) * n) + v in
      let sidx = (if is_new then n else 0) + v in
      let wire_tag = (state.memo_epoch lsl 16) lor stages in
      if hc.wire_tag.(widx) = wire_tag then incr state.hop_hits
      else hop_wire_miss config state hc ~is_new ~stages ~tag:wire_tag u v widx;
      (* the switch part drifts with v's ports: refresh it in place *)
      let sw_tag = (state.memo_epoch lsl 20) lor (in_v lsl 10) lor out_v in
      if hc.sw_tag.(sidx) <> sw_tag then begin
        hc.sw_tag.(sidx) <- sw_tag;
        hc.sw_energy.(sidx) <- hop_switch_energy_pj config state ~is_new v
      end;
      (* [hop_direct]'s association, then
         [Units.power_mw_of_energy ~energy_pj ~events_per_second:rate] *)
      let energy_pj = hc.sw_energy.(sidx) +. hc.wire_energy.(widx) in
      out.out_power <- (energy_pj *. rate *. 1e-9) +. hc.wire_standing.(widx);
      out.out_latency <- hc.wire_latency.(widx)
    end

(* The relax weight of hop u->v: the [beta] mix of the kernel's power
   and latency, each normalized ([p_norm] is [reference_hop_power_mw] of
   the flow, [lat_norm] its latency budget), floored at 1e-9 so every
   edge is strictly positive.  ([Float.max 1e-9 cost] for the never-NaN
   [cost].) *)
let[@inline] hop_weight config state ~rate ~beta ~p_norm ~lat_norm ~is_new
    ~stages u v =
  let out = state.hop_out in
  hop_kernel config state ~rate ~is_new ~stages u v out;
  let cost =
    (beta *. (out.out_power /. p_norm))
    +. ((1.0 -. beta) *. (out.out_latency /. lat_norm))
  in
  if cost > 1e-9 then cost else 1e-9

(* May a flow of [bw] MB/s reuse the existing link u->v? *)
let[@inline] may_reuse state ~bw link u v =
  link.Topology.bw_mbps +. bw <= link_capacity state u v +. 1e-9

(* May a flow of [bw] MB/s from island [si] to island [di] open a new
   link u->v?  First the paper's shutdown-safe opening rule, over the
   island ids ([-1] is the always-on intermediate VI): a new link stays
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
  let isl_u = state.island.(u) and isl_v = state.island.(v) in
  (if isl_u >= 0 then
     if isl_v < 0 then isl_u = si
     else isl_u = isl_v || (isl_u = si && isl_v = di)
   else isl_v < 0 || isl_v = di)
  && (let held = state.has_indirect && isl_u >= 0 && isl_v >= 0 in
      state.out_ports.(u) + 1
      <= state.max_arity.(u)
         - (if held && not state.out_to_inter.(u) then 1 else 0)
      && state.in_ports.(v) + 1
         <= state.max_arity.(v)
            - (if held && not state.in_from_inter.(v) then 1 else 0))
  && bw <= link_capacity state u v +. 1e-9

(* The expansion A* runs: [relax v w] for every admissible hop out of
   [u], at the kernel's weight.  Admissible nodes are visited in
   descending id order — the order of the consed successor lists of
   earlier revisions, so routes stay stable — with or without the memo.
   Everything before [fun u relax ->] runs once per search; A* applies
   only the returned expansion per settled node. *)
let successors_iter_flat config state flow ~si ~di ~beta ~p_norm ~allowed =
  let links = state.topo.Topology.links in
  let bw = flow.Flow.bandwidth_mbps in
  let rate =
    Units.flits_per_second ~bw_mbps:bw ~flit_bits:state.topo.Topology.flit_bits
  in
  let lat_norm = float_of_int flow.Flow.max_latency_cycles in
  (* [no_mask]'s probes are constant [false]; skip the two indirect calls
     per candidate on the (overwhelmingly common) unmasked states *)
  let unmasked = state.mask == no_mask in
  (* [relax_hop] carries its full parameter list so it is a per-search
     value: no closure is re-allocated per expanded node *)
  let relax_hop u v ~is_new ~stages relax =
    relax v
      (hop_weight config state ~rate ~beta ~p_norm ~lat_norm ~is_new ~stages
         u v)
  in
  fun u relax ->
    let row_u = Noc_graph.Flat.out_row links u in
    let consider v =
      if
        v <> u
        && (unmasked
           || ((not (state.mask.dead_switch v)) && not (state.mask.dead_link u v)))
      then
        match (match row_u with None -> None | Some row -> row.(v)) with
        | Some link ->
          if may_reuse state ~bw link u v then
            relax_hop u v ~is_new:false ~stages:link.Topology.stages relax
        | None ->
          if may_open state ~si ~di ~bw u v then
            relax_hop u v ~is_new:true
              ~stages:(new_link_stages config state u v)
              relax
    in
    match allowed with
    | Some nodes ->
      for i = Array.length nodes - 1 downto 0 do
        consider nodes.(i)
      done
    | None ->
      for v = state.n - 1 downto 0 do
        if node_allowed state ~si ~di v then consider v
      done

(* The A* heuristic's constant: the exact float minimum relax weight over
   the admissible hops entering [target], from the same kernel,
   admissibility tests and weight as the expansion.  During one search
   the routing state is immutable, so this set — and each hop's weight —
   is fixed; h(v) = floor for v <> target and h(target) = 0 is therefore
   consistent, and with the heap's (f, g, id) ordering A* pops non-target
   nodes in exactly Dijkstra's (g, id) order (see docs/ALGORITHM.md for
   the identity argument).  [infinity] when no hop can enter the target:
   every f is then infinite, the g tie-key alone orders the pops exactly
   as Dijkstra would, and the search proves unreachability the same
   way. *)
let target_floor config state flow ~si ~di ~beta ~p_norm ~allowed ~target =
  let links = state.topo.Topology.links in
  let bw = flow.Flow.bandwidth_mbps in
  let rate =
    Units.flits_per_second ~bw_mbps:bw ~flit_bits:state.topo.Topology.flit_bits
  in
  let lat_norm = float_of_int flow.Flow.max_latency_cycles in
  let unmasked = state.mask == no_mask in
  let best = ref infinity in
  let score u ~is_new ~stages =
    let w =
      hop_weight config state ~rate ~beta ~p_norm ~lat_norm ~is_new ~stages u
        target
    in
    if w < !best then best := w
  in
  let consider u =
    if
      u <> target
      && (unmasked
         || ((not (state.mask.dead_switch u))
            && not (state.mask.dead_link u target)))
    then
      match Noc_graph.Flat.get links u target with
      | Some link ->
        if may_reuse state ~bw link u target then
          score u ~is_new:false ~stages:link.Topology.stages
      | None ->
        if may_open state ~si ~di ~bw u target then
          score u ~is_new:true ~stages:(new_link_stages config state u target)
  in
  (match allowed with
  | Some nodes -> Array.iter consider nodes
  | None ->
    for u = 0 to state.n - 1 do
      if node_allowed state ~si ~di u then consider u
    done);
  !best

(* One least-cost search (Algorithm 1, step 15): A* from [source] to
   [target] over the admissible hops, with the target floor as its
   constant heuristic, in the state's reusable arena. *)
let shortest_path config state flow ~si ~di ~beta ~p_norm ~allowed ~source
    ~target =
  let floor =
    target_floor config state flow ~si ~di ~beta ~p_norm ~allowed ~target
  in
  Astar.run_to_const state.arena ~n:state.n
    ~expand:(successors_iter_flat config state flow ~si ~di ~beta ~p_norm ~allowed)
    ~floor ~source ~target

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
      shortest_path config state flow ~si:!si ~di:!di ~beta ~p_norm ~allowed
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

let route_all ?(priority = []) ?cache ?engine:(_ : engine option) config soc
    topo ~clocks =
  Metrics.time "path_alloc.route_all" @@ fun () ->
  let state = make_state ?cache ~pooled:true config topo ~clocks in
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
  flush_hop_metrics state;
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

let session ?mask ?cache config topo ~clocks =
  {
    s_config = config;
    s_state = make_state ?mask ?cache config topo ~clocks;
  }

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
  flush_hop_metrics state;
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
    shortest_path config masked flow ~si ~di ~beta ~p_norm ~allowed ~source:ss
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
    flush_hop_metrics state;
    result
  end
