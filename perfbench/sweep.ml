(* The sweep phase: the paper set through [Synth.run_scenarios] and the
   scale set through [Synth.run], each input from cold process-wide
   tables, as every [noc_synth] process starts, except the paper passes
   of the warm workload. *)

module Synth = Noc_synthesis.Synth
module Verify = Noc_synthesis.Verify
module Design_point = Noc_synthesis.Design_point
module Topology = Noc_synthesis.Topology
module Scenario = Noc_spec.Scenario
module Memo = Noc_cache.Memo

(* Passes over the paper set per round: it takes a fraction of a second,
   so its median needs several. *)
let paper_passes = 5

let options domains = { Synth.Options.default with Synth.Options.domains = Some domains }

(* The synthesis a designer's [noc_synth] call makes for one input:
   from cold process-wide tables, as every [noc_synth] process starts,
   unless [clear] is false. *)
let synthesize ~domains ?(clear = true) (i : Inputs.sweep_input) =
  if clear then Memo.clear_all ();
  match i.Inputs.scenarios with
  | Some scenarios ->
    let sr =
      Synth.run_scenarios ~options:(options domains) i.Inputs.config i.Inputs.soc
        i.Inputs.vi ~scenarios
    in
    (sr.Synth.union, Some sr)
  | None ->
    (Synth.run ~options:(options domains) i.Inputs.config i.Inputs.soc i.Inputs.vi, None)

(* Selection checks: every scenario verified, weighted power within the
   union baseline, and no active flow through a switch its scenario
   gates. *)
let check_selection acc (i : Inputs.sweep_input) (sr : Synth.scenarios_result) =
  List.iter
    (fun (e : Synth.scenario_eval) ->
      Acc.expect acc (Result.is_ok e.Synth.verified) "%s: scenario %s not verified"
        i.Inputs.name e.Synth.scenario.Scenario.name)
    sr.Synth.evals;
  Acc.expect acc
    (sr.Synth.weighted_power_mw <= sr.Synth.union_baseline_mw)
    "%s: weighted power %.4f above union baseline %.4f" i.Inputs.name
    sr.Synth.weighted_power_mw sr.Synth.union_baseline_mw;
  let topo = sr.Synth.best.Design_point.topology in
  List.iter
    (fun (s : Scenario.t) ->
      let gated = Scenario.gated_islands s i.Inputs.vi in
      List.iter
        (fun ((f : Noc_spec.Flow.t), route) ->
          if Scenario.flow_active s f then
            List.iter
              (fun sw ->
                match topo.Topology.switches.(sw).Topology.location with
                | Topology.Island isl when List.mem isl gated ->
                  Acc.problem acc "%s: scenario %s routes %d->%d through gated island %d"
                    i.Inputs.name s.Scenario.name f.Noc_spec.Flow.src
                    f.Noc_spec.Flow.dst isl
                | _ -> ())
              route)
        topo.Topology.routes)
    (List.map (fun (e : Synth.scenario_eval) -> e.Synth.scenario) sr.Synth.evals)

let check_points acc (i : Inputs.sweep_input) (r : Synth.result) =
  List.iteri
    (fun k p ->
      (match Checker.check_point i.Inputs.config i.Inputs.soc i.Inputs.vi p with
      | [] -> ()
      | (rule, why) :: _ ->
        Acc.problem acc "%s point %d: checker (%s): %s" i.Inputs.name k
          (Checker.rule_name rule) why);
      match
        Verify.check_all i.Inputs.config i.Inputs.soc i.Inputs.vi
          p.Design_point.topology
      with
      | Ok () -> ()
      | Error vs ->
        Acc.problem acc "%s point %d: Verify: %s" i.Inputs.name k
          (Format.asprintf "%a" Verify.pp_violation (List.hd vs)))
    r.Synth.points

(* The first round checks every output and records each input's digest;
   later rounds must reproduce those digests. *)
type memory = { digests : (string, string) Hashtbl.t; mutable checked : bool }

let memory () = { digests = Hashtbl.create 16; checked = false }

let remember acc mem (i : Inputs.sweep_input) r =
  let d = Acc.digest r in
  match Hashtbl.find_opt mem.digests i.Inputs.name with
  | None -> Hashtbl.replace mem.digests i.Inputs.name d
  | Some d0 -> Acc.expect acc (d = d0) "%s: result changed between rounds" i.Inputs.name

(* The replay of [synthesize] through public calls, from the same
   tables. *)
let replay ~domains ~clear counts (i : Inputs.sweep_input) =
  if clear then Memo.clear_all ();
  let r =
    Replay.run ~options:(options domains) counts i.Inputs.config i.Inputs.soc
      i.Inputs.vi
  in
  let sr =
    Option.map
      (fun scenarios ->
        Spans.within "synthesis.score" (fun () ->
            Synth.score_scenarios i.Inputs.config i.Inputs.soc i.Inputs.vi
              ~scenarios r))
      i.Inputs.scenarios
  in
  (r, sr)

(* The signature a replay must reproduce: the result's digest and, for a
   scenario selection, its weighted power. *)
let signature (r, sr) =
  (Acc.digest r, Option.map (fun s -> s.Synth.weighted_power_mw) sr)

(* The traced form of one input, after the real call: the replay with
   spans off, then with spans on.  Both must reproduce the real call's
   signature; their difference is the tracing overhead.  The gc.* figures
   come from the spans-off replay alone. *)
let replays acc ~domains ~clear counts (i : Inputs.sweep_input) expected =
  let check what f =
    match f () with
    | v -> Acc.expect acc (signature v = expected) "%s: %s differs from Synth.run"
             i.Inputs.name what
    | exception ex ->
      Acc.problem acc "%s: %s raised %s" i.Inputs.name what (Printexc.to_string ex)
  in
  Spans.set_enabled false;
  let g0 = Gc.quick_stat () and t0 = Acc.now () in
  check "replay" (fun () -> replay ~domains ~clear (Replay.counts ()) i);
  let plain_ms = Acc.ms_since t0 and g1 = Gc.quick_stat () in
  (* read in the calling domain once the pool has joined, so worker
     domains' allocation is included *)
  Acc.add acc "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  Acc.add acc "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  Spans.set_enabled true;
  let t0 = Acc.now () in
  check "traced replay" (fun () ->
      Spans.within "sweep.input" (fun () -> replay ~domains ~clear counts i));
  Acc.add acc "trace.plain_ms" plain_ms;
  Acc.add acc "trace.spanned_ms" (Acc.ms_since t0)

(* One synthesis operation, timed whether or not it raises.  An exception
   counts it failed and, unless [known_fault] accepts it, makes the run
   incorrect.  The first round checks the outputs; every round records
   the digest.  In the traced run the replays follow, once the real
   call's result is no longer held. *)
let one acc mem ~domains ?(clear = true) ~check ?counts
    ?(known_fault = fun _ -> false) (i : Inputs.sweep_input) =
  Acc.attempt acc;
  let outcome, ms =
    Acc.timed (fun () ->
        match synthesize ~domains ~clear i with v -> Ok v | exception ex -> Error ex)
  in
  (match outcome with
  | Error ex ->
    Acc.fail acc;
    if not (known_fault ex) then
      Acc.problem acc "%s raised %s" i.Inputs.name (Printexc.to_string ex)
  | Ok (r, sr) ->
    if check then
      Acc.guard acc (i.Inputs.name ^ " output checks") (fun () ->
          check_points acc i r;
          Option.iter (check_selection acc i) sr);
    remember acc mem i r;
    let expected = signature (r, sr) in
    Option.iter (fun counts -> replays acc ~domains ~clear counts i expected) counts);
  ms

(* The known fault: d128 selected under [Config.default] raises
   [No_feasible_design].  Once a change mends it, the selection is checked
   like any other. *)
let failing_op acc mem ~domains ~check ?counts (inputs : Inputs.t) =
  ignore
    (one acc mem ~domains ~check ?counts
       ~known_fault:(function Synth.No_feasible_design _ -> true | _ -> false)
       inputs.Inputs.failing)

(* [tick] runs after each paper pass, each scale input and the failing
   operation: the serve mix interleaves its warm phase there.  With
   [warm], the paper passes share the process-wide tables: only the first
   input of the first pass clears them, so passes 2 to 5 are answered
   from what pass 1 left there. *)
let round acc mem ~domains ~warm ?counts ~tick (inputs : Inputs.t) =
  let check = not mem.checked in
  for pass = 1 to paper_passes do
    List.iteri
      (fun k i ->
        Acc.add_item acc "paper_synth_ms" (string_of_int k)
          (one acc mem ~domains
             ~clear:((not warm) || (pass = 1 && k = 0))
             ~check:(check && pass = 1) ?counts i))
      inputs.Inputs.paper;
    tick ()
  done;
  List.iteri
    (fun k i ->
      Acc.add_item acc "scale_synth_s" (string_of_int k)
        (one acc mem ~domains ~check ?counts i /. 1e3);
      tick ())
    inputs.Inputs.scale;
  failing_op acc mem ~domains ~check ?counts inputs;
  tick ();
  if check then begin
    (* negative controls on a clean multi-island point *)
    let d48 = List.find (fun i -> i.Inputs.name = "d48") inputs.Inputs.paper in
    Acc.guard acc "control: d48" (fun () ->
        let r, _ = synthesize ~domains:1 d48 in
        let p = List.nth r.Synth.points (List.length r.Synth.points / 2) in
        List.iter (Acc.problem acc "control: %s")
          (Checker.controls d48.Inputs.config d48.Inputs.soc d48.Inputs.vi p))
  end;
  mem.checked <- true
