module Soc_spec = Noc_spec.Soc_spec
module Core_spec = Noc_spec.Core_spec
module Flow = Noc_spec.Flow
module Vi = Noc_spec.Vi
module Vcg = Noc_spec.Vcg
module Delta = Noc_spec.Delta
module Placer = Noc_floorplan.Placer
module Anneal = Noc_floorplan.Anneal
module Power = Noc_models.Power
module Pool = Noc_exec.Pool
module Metrics = Noc_exec.Metrics
module Cancel = Noc_exec.Cancel
module Memo = Noc_cache.Memo
module Partition_cache = Noc_cache.Partition_cache

type result = {
  points : Design_point.t list;
  plan : Placer.plan;
  clocks : Freq_assign.island_clock array;
  candidates_tried : int;
  candidates_feasible : int;
  candidates_recovered : int;
}

exception No_feasible_design of string

let log_src = Logs.Src.create "noc.synth" ~doc:"NoC topology synthesis"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Options = struct
  type t = {
    seed : int;
    anneal : bool;
    assignment_strategy : Switch_alloc.strategy;
    protect : bool;
    domains : int option;
    cache : bool;
    routing : Path_alloc.engine;
    cancel : Noc_exec.Cancel.t;
  }

  let default =
    {
      seed = 0;
      anneal = true;
      assignment_strategy = Switch_alloc.Min_cut;
      protect = false;
      domains = None;
      cache = true;
      routing = Path_alloc.Flat;
      cancel = Noc_exec.Cancel.never;
    }
end

(* ---------- cross-run memo tables ---------- *)

(* Clocking, the (annealed) floorplan and per-candidate evaluations are
   pure functions of their inputs, recomputed identically for every
   scenario of a sweep and every re-run after a spec edit.  All are
   memoized process-wide, keyed on a content digest of the *projection of
   the spec each stage actually reads* — never the whole spec.  The
   projections are what make [rerun] incremental: an edit that a stage
   provably cannot observe (a core frequency constraint, an always-on
   toggle, a latency budget for the floorplan) leaves that stage's key
   unchanged, so the memoized answer is reused, and the qcheck
   delta-chain suite (test/test_delta.ml) holds every projection to the
   bit-identity standard.  Cached mutable values are copied on the way
   out so callers can never corrupt the tables. *)

(* One entry per (island, what its clock depends on): the config, the
   link width and the hottest-flow bandwidth of each member core.  Island
   clocks are independent, so a delta touching island [i] re-clocks [i]
   alone. *)
let clocks_memo : (string, Freq_assign.island_clock) Memo.t =
  Memo.create "clocks"

let plan_memo : (string, Placer.plan) Memo.t = Memo.create "plan"

(* Per-candidate evaluation outcome, keyed by (context, switch_counts,
   indirect_count).  The context digests everything a candidate's
   build/route/verify/evaluate chain reads besides the candidate itself;
   the values it covers but does not embed (clocks, plan, VCGs,
   partitions) are deterministic functions of embedded inputs. *)
let eval_memo :
    (string * int array * int, (bool * Design_point.t) option) Memo.t =
  Memo.create "eval"

let copy_plan (p : Placer.plan) =
  {
    p with
    Placer.island_rects = Array.copy p.Placer.island_rects;
    core_rects = Array.copy p.Placer.core_rects;
  }

(* ---------- projection digests ---------- *)

let island_clock_key config soc vi island =
  Memo.digest
    ( config,
      soc.Soc_spec.flit_bits,
      island,
      List.map
        (Soc_spec.max_core_bandwidth_mbps soc)
        (Vi.cores_of_island vi island) )

(* The floorplan ([Placer.place] + [Anneal.improve]) reads core areas and
   kinds, the island map, flow (src, dst, bandwidth) triples and the
   channel flag — not latencies, names, frequencies or shutdownability. *)
let plan_key soc vi ~seed ~anneal =
  Memo.digest
    ( Array.map
        (fun c -> (c.Core_spec.area_mm2, c.Core_spec.kind))
        soc.Soc_spec.cores,
      soc.Soc_spec.allow_intermediate_island,
      vi.Vi.islands,
      vi.Vi.of_core,
      List.map
        (fun f -> (f.Flow.src, f.Flow.dst, f.Flow.bandwidth_mbps))
        soc.Soc_spec.flows,
      seed,
      anneal )

(* Everything candidate evaluation reads other than the candidate:
   config, core (area, kind) — via the floorplan — the full flow list in
   spec order, widths and flags, the island map, and the options that
   change the built topology or the acceptance test.  Deliberately
   absent: [soc.name], core names/frequencies/powers, [Vi.shutdownable],
   scenarios, and [Options.domains]/[cache]/[routing] (all three leave
   every candidate's outcome unchanged; see synth.mli). *)
let eval_context config soc vi (o : Options.t) =
  Memo.digest
    ( config,
      Array.map
        (fun c -> (c.Core_spec.area_mm2, c.Core_spec.kind))
        soc.Soc_spec.cores,
      soc.Soc_spec.flows,
      soc.Soc_spec.flit_bits,
      soc.Soc_spec.allow_intermediate_island,
      vi.Vi.islands,
      vi.Vi.of_core,
      o.Options.seed,
      o.Options.anneal,
      o.Options.assignment_strategy,
      o.Options.protect )

(* An evaluation hit hands out deep copies: callers (fault injection,
   simulation) mutate point topologies freely, and the journal of a
   cached point must stay empty. *)
let copy_outcome = function
  | None -> None
  | Some (recovered, p) ->
    Some
      ( recovered,
        {
          p with
          Design_point.topology = Topology.copy p.Design_point.topology;
          clocks = Array.copy p.Design_point.clocks;
        } )

let assign_clocks ~cache config soc vi =
  if not cache then Freq_assign.assign config soc vi
  else
    Array.init vi.Vi.islands (fun island ->
        Memo.find_or_add clocks_memo
          (island_clock_key config soc vi island)
          (fun () -> Freq_assign.assign_island config soc vi ~island))

let make_plan ~cache ~seed ~anneal soc vi =
  let compute () =
    let plan0 = Placer.place soc vi in
    if anneal then
      Metrics.time "synth.anneal" (fun () -> Anneal.improve ~seed soc vi plan0)
    else plan0
  in
  if not cache then compute ()
  else copy_plan (Memo.find_or_add plan_memo (plan_key soc vi ~seed ~anneal) compute)

let run ?(options = Options.default) config soc vi =
  let o = options in
  Metrics.count_allocation "synth.run" @@ fun () ->
  Metrics.time "synth.run" @@ fun () ->
  Config.validate config;
  Cancel.check o.Options.cancel;
  let clocks = assign_clocks ~cache:o.Options.cache config soc vi in
  let plan =
    make_plan ~cache:o.Options.cache ~seed:o.Options.seed
      ~anneal:o.Options.anneal soc vi
  in
  let vcgs = Vcg.build_all ~alpha:config.Config.alpha soc vi in
  let partition =
    (* memoized min-cut: repeated sweeps re-solve identical per-island
       partition problems, keyed on a canonical digest of the island's VCG
       (computed once per run, not per candidate) *)
    if not o.Options.cache then None
    else begin
      let digests =
        Array.map
          (fun vcg -> Partition_cache.graph_digest vcg.Vcg.graph)
          vcgs
      in
      Some
        (fun ~island ~parts ~max_block_weight g ->
          Partition_cache.partition ~digest:digests.(island)
            ~seed:(o.Options.seed + island) ~parts ~max_block_weight g)
    end
  in
  let sizes = Vi.island_sizes vi in
  let max_size = Array.fold_left max 1 sizes in
  let indirect_max =
    if soc.Soc_spec.allow_intermediate_island && vi.Vi.islands > 1 then
      config.Config.max_indirect_switches
    else 0
  in
  (* The candidate design space is enumerable up front: per-island switch
     counts grow together from each island's minimum until every island
     saturates at one switch per core, crossed with every indirect switch
     count.  Listing candidates first (in sweep order) makes the
     evaluation a pure, order-preserving map — safe to run on several
     domains with output identical to the sequential walk. *)
  let schedules =
    let rec collect extra last acc =
      if extra > max_size then List.rev acc
      else
        let switch_counts =
          Array.mapi
            (fun island size ->
              min (clocks.(island).Freq_assign.min_switches + extra) size)
            sizes
        in
        if extra > 0 && switch_counts = last then List.rev acc
        else collect (extra + 1) switch_counts (switch_counts :: acc)
    in
    collect 0 [||] []
  in
  let candidates =
    List.concat_map
      (fun switch_counts ->
        List.init (indirect_max + 1) (fun indirect_count ->
            (switch_counts, indirect_count)))
      schedules
  in
  let evaluate_raw (switch_counts, indirect_count) =
    (* One build per candidate: routing failures recover in place inside
       [Path_alloc.route_all] (transactional rip-up-and-reroute, with a
       pristine-rollback restart as fallback) instead of rebuilding the
       candidate topology from scratch. *)
    let topo =
      Switch_alloc.build ~seed:o.Options.seed
        ~strategy:o.Options.assignment_strategy ?partition config soc vi
        ~plan ~clocks ~vcgs ~switch_counts ~indirect_count
    in
    match Path_alloc.route_all config soc topo ~clocks with
    | Ok stats ->
      let recovered =
        stats.Path_alloc.ripups > 0 || stats.Path_alloc.restarts > 0
      in
      (* Protection: a backup route per multi-hop flow, allocated after
         every primary so backups see the final fabric, in the routing
         order; a flow that cannot be protected rejects the candidate. *)
      let protected_ok =
        (not o.Options.protect)
        ||
        let session = Path_alloc.session config topo ~clocks in
        List.for_all
          (fun flow ->
            match Path_alloc.route_backup session flow with
            | Ok () -> true
            | Error e ->
              Metrics.incr "synth.unprotectable";
              Log.debug (fun m ->
                  m "candidate (switches=%a, indirect=%d) unprotectable: %a"
                    Fmt.(array ~sep:comma int)
                    switch_counts indirect_count Path_alloc.pp_error e);
              false)
          (List.sort Path_alloc.by_bandwidth soc.Noc_spec.Soc_spec.flows)
      in
      if not protected_ok then None
      else begin
        Topology.clear_journal topo;
        if recovered || o.Options.protect then begin
          (* A recovered design point went through speculative edits and
             rollbacks, and a protected one grew backup links after the
             main sweep; re-derive every invariant before trusting it. *)
          match
            Verify.check_all ~require_backups:o.Options.protect config soc vi
              topo
          with
          | Ok () ->
            Some (recovered, Design_point.evaluate config soc topo ~clocks)
          | Error violations ->
            Metrics.incr "synth.recovered_rejected";
            Log.warn (fun m ->
                m
                  "candidate (switches=%a, indirect=%d) recovered by \
                   rip-up/reroute or protected but fails verification: %a"
                  Fmt.(array ~sep:comma int)
                  switch_counts indirect_count Verify.pp_report violations);
            None
        end
        else Some (false, Design_point.evaluate config soc topo ~clocks)
      end
    | Error e ->
      Log.debug (fun m ->
          m "candidate (switches=%a, indirect=%d) infeasible: %a"
            Fmt.(array ~sep:comma int) switch_counts indirect_count
            Path_alloc.pp_error e);
      None
  in
  let evaluate =
    if not o.Options.cache then evaluate_raw
    else begin
      (* Per-candidate memoization: a warm re-run whose projections are
         unchanged — e.g. [rerun] after an always-on toggle — resolves
         every candidate by lookup, skipping build and routing entirely.
         The digest is computed once per run; per candidate only the
         (switch_counts, indirect_count) pair varies. *)
      let context = eval_context config soc vi o in
      fun ((switch_counts, indirect_count) as candidate) ->
        copy_outcome
          (Memo.find_or_add eval_memo
             (context, switch_counts, indirect_count)
             (fun () -> evaluate_raw candidate))
    end
  in
  let evaluate candidate =
    (* Candidate-boundary cancellation: one atomic load (plus a clock
       read when a deadline is set) per candidate.  [Pool.parallel_map]
       re-raises the earliest [Cancelled] and its failed flag stops the
       other workers, so a deadline or drain aborts the sweep within
       roughly one candidate's evaluation time — and before any result
       is assembled, so cancelled work never reaches a store. *)
    Cancel.check o.Options.cancel;
    evaluate candidate
  in
  let evaluated =
    Metrics.time "synth.candidates" @@ fun () ->
    Pool.parallel_map ?domains:o.Options.domains evaluate candidates
    |> List.filter_map Fun.id
  in
  let points = List.map snd evaluated in
  let recovered =
    List.fold_left (fun acc (r, _) -> if r then acc + 1 else acc) 0 evaluated
  in
  let tried = List.length candidates in
  let feasible = List.length points in
  Metrics.incr ~by:tried "synth.candidates_tried";
  Metrics.incr ~by:feasible "synth.candidates_feasible";
  Metrics.incr ~by:recovered "synth.candidates_recovered";
  if points = [] then
    raise
      (No_feasible_design
         (Printf.sprintf "%s: no candidate routed all %d flows"
            soc.Soc_spec.name
            (List.length soc.Soc_spec.flows)));
  {
    points;
    plan;
    clocks;
    candidates_tried = tried;
    candidates_feasible = feasible;
    candidates_recovered = recovered;
  }

(* ---------- incremental re-synthesis ---------- *)

(* Evict every cache entry a dirty set marks stale, keyed off the base
   spec.  Shared by [rerun] (spec delta chains) and [rerun_scenarios]
   (bundle chains, whose scenario-only edits arrive with a
   synthesis-clean dirty set and evict nothing). *)
let evict_dirty ~options:o ~prev config soc vi (dirty : Delta.dirty) =
  Config.validate config;
  if Array.length prev.clocks <> vi.Vi.islands then
    invalid_arg
      "Synth.rerun: prev has a different island count than the base spec";
  if o.Options.cache then begin
    (* [prev] anchors the invalidation to the base spec: recomputing the
       base clocks (cache hits when warm) and comparing them against the
       previous result catches a caller whose (prev, soc, vi) triple does
       not belong together before any eviction happens. *)
    let base_clocks = assign_clocks ~cache:true config soc vi in
    if base_clocks <> prev.clocks then
      invalid_arg
        "Synth.rerun: prev does not match the base spec (clock mismatch)";
    List.iter
      (fun island ->
        ignore (Memo.remove clocks_memo (island_clock_key config soc vi island)))
      dirty.Delta.clock_islands;
    if dirty.Delta.plan then
      ignore
        (Memo.remove plan_memo
           (plan_key soc vi ~seed:o.Options.seed ~anneal:o.Options.anneal));
    (let stale_islands =
       if dirty.Delta.all_partitions then List.init vi.Vi.islands Fun.id
       else dirty.Delta.partition_islands
     in
     if stale_islands <> [] then begin
       let vcgs = Vcg.build_all ~alpha:config.Config.alpha soc vi in
       List.iter
         (fun island ->
           ignore
             (Partition_cache.evict_digest
                (Partition_cache.graph_digest vcgs.(island).Vcg.graph)))
         stale_islands
     end);
    if dirty.Delta.evals then begin
      let context = eval_context config soc vi o in
      ignore (Memo.remove_where eval_memo (fun (c, _, _) -> c = context))
    end
  end

let invalidate ?(options = Options.default) ~prev ~delta config soc vi =
  let edited, dirty = Delta.dirty_chain (soc, vi) delta in
  evict_dirty ~options ~prev config soc vi dirty;
  edited

let rerun ?(options = Options.default) ~prev ~delta config soc vi =
  Metrics.time "synth.rerun" @@ fun () ->
  let ((soc', vi') as edited) = invalidate ~options ~prev ~delta config soc vi in
  (edited, run ~options config soc' vi')

let pick better result =
  match result.points with
  | [] -> raise (No_feasible_design "empty result")
  | first :: rest ->
    List.fold_left (fun acc p -> if better p acc then p else acc) first rest

let best_power result =
  let better a b =
    let pa = Power.total_mw a.Design_point.power
    and pb = Power.total_mw b.Design_point.power in
    pa < pb
    || (pa = pb && a.Design_point.avg_latency_cycles < b.Design_point.avg_latency_cycles)
  in
  pick better result

let best_latency result =
  let better a b =
    let la = a.Design_point.avg_latency_cycles
    and lb = b.Design_point.avg_latency_cycles in
    la < lb
    || (la = lb
        && Power.total_mw a.Design_point.power < Power.total_mw b.Design_point.power)
  in
  pick better result

(* ---------- multi-scenario synthesis ---------- *)

module Scenario = Noc_spec.Scenario

type scenario_eval = {
  scenario : Scenario.t;
  gated : int list;
  active_flows : int;
  parked_flows : int;
  power_mw : float;
  verified : (unit, Verify.violation list) Stdlib.result;
}

type scenarios_result = {
  union : result;
  best : Design_point.t;
  weighted_power_mw : float;
  union_baseline_mw : float;
  evals : scenario_eval list;
}

let validate_scenarios soc scenarios =
  (match Scenario.validate_set scenarios with
  | Ok () -> ()
  | Error e ->
    invalid_arg ("Synth.run_scenarios: " ^ Scenario.error_to_string e));
  if scenarios = [] then
    invalid_arg "Synth.run_scenarios: empty scenario set";
  let cores = Soc_spec.core_count soc in
  List.iter
    (fun s ->
      if Array.length s.Scenario.used_cores <> cores then
        invalid_arg
          (Printf.sprintf
             "Synth.run_scenarios: scenario %s sized for %d cores, spec has %d"
             s.Scenario.name
             (Array.length s.Scenario.used_cores)
             cores))
    scenarios

(* Full per-scenario verification of one design point: project the
   topology onto the scenario's flow subset (un-route inactive flows,
   dropping the links they alone paid for), prune backup routes of
   inactive flows and backups broken by dropped links, and re-derive
   every invariant against the projected spec.  The island clocks are
   the full-spec ones — the hardware keeps running at the speed the
   union traffic sized it for — so they are passed in rather than
   re-derived from the subset. *)
let verify_in_scenario config soc vi ~clocks point scenario =
  let live = Scenario.flow_active scenario in
  let live_flows, parked = List.partition live soc.Soc_spec.flows in
  let topo = Topology.copy point.Design_point.topology in
  Topology.remove_flows topo parked;
  let hops_ok route =
    let rec go = function
      | a :: (b :: _ as rest) -> (
        match Topology.find_link topo ~src:a ~dst:b with
        | Some _ -> go rest
        | None -> false)
      | [ _ ] | [] -> true
    in
    go route
  in
  topo.Topology.backup_routes <-
    List.filter
      (fun (f, route) -> live f && hops_ok route)
      topo.Topology.backup_routes;
  Topology.clear_journal topo;
  let soc' = { soc with Soc_spec.flows = live_flows } in
  Verify.check_all ~clocks config soc' vi topo

(* Scoring and selection against a prepared scenario set (see
   [Shutdown.Scoring]): each point costs one topology pass for its
   duty-weighted power and one walk over its primary routes for the
   gating filter. *)
let select_scenario_point config soc vi ~scenarios scoring union =
  let scored =
    List.filter_map
      (fun p ->
        (* The cheap filter: the paper's shutdown-safety invariant holds
           by construction on every sweep point, so this normally keeps
           the whole sweep; it is the defense-in-depth gate that scenario
           selection never picks a point some live flow of some scenario
           cannot survive. *)
        if Shutdown.Scoring.survives scoring p.Design_point.topology then
          Some (p, Shutdown.Scoring.weighted_power_mw scoring p)
        else None)
      union.points
  in
  (* The point's evaluations once it verifies in every scenario, or
     [None] at the first scenario (canonical order) that fails. *)
  let evals_of point =
    let verifies s =
      Result.is_ok
        (verify_in_scenario config soc vi ~clocks:union.clocks point s)
    in
    if not (List.for_all verifies scenarios) then None
    else
      Some
        (List.map
           (fun (r : Shutdown.scenario_row) ->
             let s = r.Shutdown.scenario in
             let active =
               List.length (Scenario.active_flows s soc.Soc_spec.flows)
             in
             {
               scenario = s;
               gated = r.Shutdown.gated;
               active_flows = active;
               parked_flows = List.length soc.Soc_spec.flows - active;
               power_mw = r.Shutdown.power_with_shutdown_mw;
               verified = Ok ();
             })
           (Shutdown.Scoring.report scoring point).Shutdown.rows)
  in
  (* Deterministic selection: duty-weighted-power argmin (sweep order
     breaks ties), fully re-verified in every scenario; a winner that
     fails any scenario's projected verification is excluded and the
     next-best tried. *)
  let rec select pool =
    match pool with
    | [] ->
      raise
        (No_feasible_design
           (Printf.sprintf
              "%s: no sweep point verifies in all %d scenarios"
              soc.Soc_spec.name (List.length scenarios)))
    | first :: rest ->
      let (best, best_w) =
        List.fold_left
          (fun ((_, aw) as acc) ((_, w) as cand) ->
            if w < aw then cand else acc)
          first rest
      in
      match evals_of best with
      | Some evals -> (best, best_w, evals)
      | None ->
        Metrics.incr "synth.scenario_rejected";
        Log.warn (fun m ->
            m "scenario-best point fails projected verification; excluded");
        select (List.filter (fun (p, _) -> p != best) pool)
  in
  let best, weighted_power_mw, evals = select scored in
  let baseline = best_power union in
  let union_baseline_mw =
    match List.assq_opt baseline scored with
    | Some w -> w
    | None -> Shutdown.Scoring.weighted_power_mw scoring baseline
  in
  { union; best; weighted_power_mw; union_baseline_mw; evals }

(* Validate the set once and prepare it for scoring, in canonical order. *)
let prepare_scenarios config soc vi scenarios =
  validate_scenarios soc scenarios;
  let canon = Scenario.canonical scenarios in
  (canon, Shutdown.Scoring.prepare config soc vi ~scenarios:canon)

let score_scenarios config soc vi ~scenarios union =
  let scenarios, scoring = prepare_scenarios config soc vi scenarios in
  select_scenario_point config soc vi ~scenarios scoring union

let run_scenarios ?(options = Options.default) config soc vi ~scenarios =
  Metrics.time "synth.scenarios" @@ fun () ->
  let scenarios, scoring = prepare_scenarios config soc vi scenarios in
  let union = run ~options config soc vi in
  select_scenario_point config soc vi ~scenarios scoring union

let rerun_scenarios ?(options = Options.default) ~prev ~delta config soc vi
    ~scenarios =
  Metrics.time "synth.rerun_scenarios" @@ fun () ->
  let ((soc', vi', scenarios') as edited), dirty =
    Delta.dirty_chain_bundle (soc, vi, scenarios) delta
  in
  let union =
    if Delta.synthesis_clean dirty then begin
      (* Scenario-weight/membership edits (and always-on / core-frequency
         toggles) leave the union sweep bit-identical: reuse it verbatim
         and only re-run the duty-weighted scoring pass. *)
      Metrics.incr "synth.scenario_rescore";
      prev.union
    end
    else begin
      evict_dirty ~options ~prev:prev.union config soc vi dirty;
      run ~options config soc' vi'
    end
  in
  (edited, score_scenarios config soc' vi' ~scenarios:scenarios' union)
