(* [Synth.run]'s pipeline replayed through public calls, with a span
   around each layer: clocks, floorplan, VCGs, the candidate schedule,
   then build -> route -> (verify, for recovered points) -> evaluate per
   candidate.  It must reproduce [Synth.run]'s result exactly; the sweep
   phase checks that on every input. *)

module Synth = Noc_synthesis.Synth
module Config = Noc_synthesis.Config
module Freq_assign = Noc_synthesis.Freq_assign
module Switch_alloc = Noc_synthesis.Switch_alloc
module Path_alloc = Noc_synthesis.Path_alloc
module Design_point = Noc_synthesis.Design_point
module Topology = Noc_synthesis.Topology
module Verify = Noc_synthesis.Verify
module Placer = Noc_floorplan.Placer
module Anneal = Noc_floorplan.Anneal
module Vcg = Noc_spec.Vcg
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Partition_cache = Noc_cache.Partition_cache
module Pool = Noc_exec.Pool

(* What the spans cannot say: route_all's own counts and the candidates
   tried and feasible. *)
type counts = {
  mutable partition_calls : int;
  mutable flows_routed : int;
  mutable ripups : int;
  mutable restarts : int;
  mutable candidates : int;
  mutable feasible : int;
}

let counts () =
  {
    partition_calls = 0;
    flows_routed = 0;
    ripups = 0;
    restarts = 0;
    candidates = 0;
    feasible = 0;
  }

let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let sp = Spans.within

let run ?(options = Synth.Options.default) c config soc vi =
  let o = options in
  Config.validate config;
  let clocks = sp "synthesis.freq_assign" (fun () -> Freq_assign.assign config soc vi) in
  let plan =
    let plan0 = sp "floorplan.place" (fun () -> Placer.place soc vi) in
    if o.Synth.Options.anneal then
      sp "floorplan.anneal" (fun () ->
          Anneal.improve ~seed:o.Synth.Options.seed soc vi plan0)
    else plan0
  in
  let vcgs = sp "spec.vcg" (fun () -> Vcg.build_all ~alpha:config.Config.alpha soc vi) in
  let partition =
    if not o.Synth.Options.cache then None
    else begin
      let digests =
        sp "partition.kway" (fun () ->
            Array.map (fun v -> Partition_cache.graph_digest v.Vcg.graph) vcgs)
      in
      Some
        (fun ~island ~parts ~max_block_weight g ->
          locked (fun () -> c.partition_calls <- c.partition_calls + 1);
          sp "partition.kway" (fun () ->
              Partition_cache.partition ~digest:digests.(island)
                ~seed:(o.Synth.Options.seed + island) ~parts ~max_block_weight g))
    end
  in
  let sizes = Vi.island_sizes vi in
  let max_size = Array.fold_left max 1 sizes in
  let indirect_max =
    if soc.Soc_spec.allow_intermediate_island && vi.Vi.islands > 1 then
      config.Config.max_indirect_switches
    else 0
  in
  let schedules =
    let rec collect extra last acc =
      if extra > max_size then List.rev acc
      else
        let counts =
          Array.mapi
            (fun island size ->
              min (clocks.(island).Freq_assign.min_switches + extra) size)
            sizes
        in
        if extra > 0 && counts = last then List.rev acc
        else collect (extra + 1) counts (counts :: acc)
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
  let evaluate ~parent (switch_counts, indirect_count) =
    sp ~parent "synthesis.candidate" @@ fun () ->
    let topo =
      sp "synthesis.switch_alloc" (fun () ->
          Switch_alloc.build ~seed:o.Synth.Options.seed
            ~strategy:o.Synth.Options.assignment_strategy ?partition config soc
            vi ~plan ~clocks ~vcgs ~switch_counts ~indirect_count)
    in
    let routed =
      sp "synthesis.path_alloc" (fun () ->
          Path_alloc.route_all ~cache:o.Synth.Options.cache
            ~engine:o.Synth.Options.routing config soc topo ~clocks)
    in
    let outcome =
      match routed with
      | Error _ -> None
      | Ok stats ->
        Topology.clear_journal topo;
        let recovered =
          stats.Path_alloc.ripups > 0 || stats.Path_alloc.restarts > 0
        in
        let clean =
          (not recovered)
          || sp "synthesis.verify" (fun () ->
                 Result.is_ok (Verify.check_all config soc vi topo))
        in
        locked (fun () ->
            c.ripups <- c.ripups + stats.Path_alloc.ripups;
            c.restarts <- c.restarts + stats.Path_alloc.restarts;
            c.flows_routed <- c.flows_routed + stats.Path_alloc.reroutes);
        if clean then
          Some
            ( recovered,
              sp "synthesis.design_point" (fun () ->
                  Design_point.evaluate config soc topo ~clocks) )
        else None
    in
    locked (fun () ->
        c.flows_routed <- c.flows_routed + List.length topo.Topology.routes;
        c.candidates <- c.candidates + 1;
        if outcome <> None then c.feasible <- c.feasible + 1);
    outcome
  in
  let evaluated =
    sp "exec.pool" (fun () ->
        (* pool workers adopt the pool span as their candidates' parent *)
        let parent = Spans.current_id () in
        Pool.parallel_map ?domains:o.Synth.Options.domains (evaluate ~parent)
          candidates)
    |> List.filter_map Fun.id
  in
  let points = List.map snd evaluated in
  if points = [] then
    raise (Synth.No_feasible_design (soc.Soc_spec.name ^ ": replay found no point"));
  {
    Synth.points;
    plan;
    clocks;
    candidates_tried = List.length candidates;
    candidates_feasible = List.length points;
    candidates_recovered = List.length (List.filter fst evaluated);
  }
