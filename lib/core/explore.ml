module Vi = Noc_spec.Vi
module Power = Noc_models.Power
module Pool = Noc_exec.Pool

type sweep_point = {
  label : string;
  islands : int;
  vi : Vi.t;
  point : Design_point.t;
  result : Synth.result;
}

let log_src = Logs.Src.create "noc.explore" ~doc:"NoC design-space exploration"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Options = struct
  type t = {
    synth : Synth.Options.t;  (* applied to every inner [Synth.run] *)
    verify : bool;
  }

  let default = { synth = Synth.Options.default; verify = false }
end

let island_sweep ?(options = Options.default) config soc ~partitions =
  let verify = options.Options.verify in
  Pool.parallel_filter_map ?domains:options.Options.synth.Synth.Options.domains
    (fun (label, vi) ->
      match Synth.run ~options:options.Options.synth config soc vi with
      | result ->
        let point = Synth.best_power result in
        (match
           if verify then
             Verify.check_all config soc vi point.Design_point.topology
           else Ok ()
         with
         | Ok () ->
           Some { label; islands = vi.Vi.islands; vi; point; result }
         | Error violations ->
           Noc_exec.Metrics.incr "explore.verify_failed";
           Log.err (fun m ->
               m "sweep point %s fails verification: %a" label
                 Verify.pp_report violations);
           None)
      | exception Synth.No_feasible_design _ -> None
      | exception Freq_assign.Infeasible _ -> None)
    partitions

let rerun_island_sweep ?(options = Options.default) config soc ~prev ~delta =
  List.iter
    (fun d ->
      match d with
      | Noc_spec.Delta.Move_core _ | Noc_spec.Delta.Set_always_on _ ->
        invalid_arg
          "Explore.rerun_island_sweep: island-level deltas do not apply \
           uniformly across sweep partitions (rerun the one partition with \
           Synth.rerun instead)"
      | Noc_spec.Delta.Set_scenario_duty _ | Noc_spec.Delta.Set_scenario_cores _
      | Noc_spec.Delta.Add_scenario _ | Noc_spec.Delta.Remove_scenario _ ->
        invalid_arg
          "Explore.rerun_island_sweep: scenario deltas edit the scenario \
           set, not the spec (apply them with Synth.rerun_scenarios)"
      | Noc_spec.Delta.Set_flow_bandwidth _ | Noc_spec.Delta.Set_flow_latency _
      | Noc_spec.Delta.Add_flow _ | Noc_spec.Delta.Remove_flow _
      | Noc_spec.Delta.Set_core_freq _ -> ())
    delta;
  let verify = options.Options.verify in
  Pool.parallel_filter_map ?domains:options.Options.synth.Synth.Options.domains
    (fun sp ->
      match
        Synth.rerun ~options:options.Options.synth ~prev:sp.result ~delta
          config soc sp.vi
      with
      | (soc', vi'), result ->
        let point = Synth.best_power result in
        (match
           if verify then
             Verify.check_all config soc' vi' point.Design_point.topology
           else Ok ()
         with
        | Ok () -> Some { sp with vi = vi'; point; result }
        | Error violations ->
          Noc_exec.Metrics.incr "explore.verify_failed";
          Log.err (fun m ->
              m "rerun sweep point %s fails verification: %a" sp.label
                Verify.pp_report violations);
          None)
      | exception Synth.No_feasible_design _ -> None
      | exception Freq_assign.Infeasible _ -> None)
    prev

(* ---------- multi-scenario partition sweep ---------- *)

type scenario_sweep_point = {
  sc_label : string;
  sc_islands : int;
  sc_vi : Vi.t;
  sc_result : Synth.scenarios_result;
}

let scenario_sweep ?(options = Options.default) config soc ~scenarios
    ~partitions =
  Pool.parallel_filter_map ?domains:options.Options.synth.Synth.Options.domains
    (fun (label, vi) ->
      match
        Synth.run_scenarios ~options:options.Options.synth config soc vi
          ~scenarios
      with
      | result ->
        Some
          {
            sc_label = label;
            sc_islands = vi.Vi.islands;
            sc_vi = vi;
            sc_result = result;
          }
      | exception Synth.No_feasible_design _ -> None
      | exception Freq_assign.Infeasible _ -> None)
    partitions

let best_scenario_sweep points =
  match points with
  | [] -> raise (Synth.No_feasible_design "empty scenario sweep")
  | first :: rest ->
    List.fold_left
      (fun acc p ->
        if
          p.sc_result.Synth.weighted_power_mw
          < acc.sc_result.Synth.weighted_power_mw
        then p
        else acc)
      first rest

let dominates a b =
  let pa = Power.total_mw a.Design_point.power
  and pb = Power.total_mw b.Design_point.power in
  let la = a.Design_point.avg_latency_cycles
  and lb = b.Design_point.avg_latency_cycles in
  pa <= pb && la <= lb && (pa < pb || la < lb)

(* Skyline scan instead of the former all-pairs test with its physical
   ([!=]) identity check: after a stable sort by (power, latency), a
   point survives iff its latency beats the lowest latency kept so far
   (its power is >= every kept point's), or it duplicates the last kept
   (power, latency) pair exactly.  Positions, not identities, decide —
   structurally equal duplicates are all retained, in input order. *)
let pareto_by ~key points =
  let keyed = List.map (fun p -> (key p, p)) points in
  let sorted =
    List.stable_sort
      (fun ((a : float * float), _) ((b : float * float), _) -> compare a b)
      keyed
  in
  let rec scan last acc = function
    | [] -> List.rev_map snd acc
    | (((p, l), _) as entry) :: rest ->
      let keep =
        match last with
        | None -> true
        | Some (bp, bl) -> l < bl || (l = bl && p = bp)
      in
      if keep then scan (Some (p, l)) (entry :: acc) rest
      else scan last acc rest
  in
  scan None [] sorted

let pareto points =
  pareto_by
    ~key:(fun p ->
      (Power.total_mw p.Design_point.power, p.Design_point.avg_latency_cycles))
    points

let best_scenario_weighted config soc vi ~scenarios result =
  match result.Synth.points with
  | [] -> raise (Synth.No_feasible_design "empty result")
  | first :: rest ->
    (* the duty-weighted objective [Synth.run_scenarios] selects by, with
       the scenario set prepared once for the whole sweep *)
    let score =
      Shutdown.Scoring.weighted_power_mw
        (Shutdown.Scoring.prepare config soc vi ~scenarios)
    in
    List.fold_left
      (fun ((_, best_score) as best) p ->
        let s = score p in
        if s < best_score then (p, s) else best)
      (first, score first) rest

let width_sweep ?(options = Synth.Options.default) config soc vi ~widths =
  List.filter_map
    (fun flit_bits ->
      let soc =
        Noc_spec.Soc_spec.make
          ~name:(Printf.sprintf "%s@%dbit" soc.Noc_spec.Soc_spec.name flit_bits)
          ~cores:soc.Noc_spec.Soc_spec.cores
          ~flows:soc.Noc_spec.Soc_spec.flows ~flit_bits
          ~allow_intermediate_island:
            soc.Noc_spec.Soc_spec.allow_intermediate_island ()
      in
      match Synth.run ~options config soc vi with
      | result -> Some (flit_bits, Synth.best_power result)
      | exception Synth.No_feasible_design _ -> None
      | exception Freq_assign.Infeasible _ -> None)
    widths

let alpha_sweep ?(options = Synth.Options.default) config soc vi ~alphas =
  List.filter_map
    (fun alpha ->
      let config = { config with Config.alpha } in
      match Synth.run ~options config soc vi with
      | result -> Some (alpha, Synth.best_power result)
      | exception Synth.No_feasible_design _ -> None
      | exception Freq_assign.Infeasible _ -> None)
    alphas
