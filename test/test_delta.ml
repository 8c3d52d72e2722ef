(* The delta-chain suite behind Synth.rerun's headline guarantee:
   incremental re-synthesis after a chain of spec edits is bit-identical
   to a from-scratch run on the edited spec — same points, same order,
   same counts — and the cache invalidation it performs is *exact*: after
   an invalidation, re-running the base spec re-misses precisely the
   evicted entries (nothing else was lost) and reproduces the previous
   result (nothing stale was served).  Plus the edit language itself
   (validation, JSON round-trip) and the protect/survivability interplay
   of a rerun after an always-on toggle. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module Explore = Noc_synthesis.Explore
module Verify = Noc_synthesis.Verify
module Freq_assign = Noc_synthesis.Freq_assign
module Topology = Noc_synthesis.Topology
module DP = Noc_synthesis.Design_point
module Power = Noc_models.Power
module Metrics = Noc_exec.Metrics
module Memo = Noc_cache.Memo
module Delta = Noc_spec.Delta
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Flow = Noc_spec.Flow
module Core_spec = Noc_spec.Core_spec
module Bench_case = Noc_benchmarks.Bench_case
module D12 = Noc_benchmarks.D12
module D26 = Noc_benchmarks.D26
module Survivability = Noc_fault.Survivability
module Campaign = Noc_fault.Campaign

let config = Config.default
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Exact-float signatures on purpose: rerun promises bit identity, not
   mere closeness, so every observable scalar must match to the last
   bit.  The clock array and the floorplan are part of the contract
   too. *)
let point_signature p =
  ( ( Power.total_mw p.DP.power,
      Power.dynamic_mw p.DP.power,
      p.DP.avg_latency_cycles,
      DP.total_area_mm2 p.DP.area ),
    ( p.DP.switch_count,
      p.DP.indirect_count,
      p.DP.link_count,
      p.DP.crossing_count,
      p.DP.worst_latency_slack,
      p.DP.timing_clean ) )

let result_signature (r : Synth.result) =
  ( ( r.Synth.candidates_tried,
      r.Synth.candidates_feasible,
      r.Synth.candidates_recovered ),
    r.Synth.clocks,
    r.Synth.plan,
    List.map point_signature r.Synth.points )

let options ~domains = { Synth.Options.default with Synth.Options.domains }
let seq = options ~domains:(Some 1)

(* ---------- the edit language ---------- *)

let rejects what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_apply_validation () =
  let soc = D12.soc and vi = D12.default_vi in
  let base = (soc, vi) in
  rejects "bandwidth edit of a missing flow" (fun () ->
      Delta.apply base
        (Delta.Set_flow_bandwidth { src = 0; dst = 0; bandwidth_mbps = 10.0 }));
  rejects "non-positive bandwidth" (fun () ->
      let f = List.hd soc.Soc_spec.flows in
      Delta.apply base
        (Delta.Set_flow_bandwidth
           { src = f.Flow.src; dst = f.Flow.dst; bandwidth_mbps = 0.0 }));
  rejects "removing a missing flow" (fun () ->
      Delta.apply base (Delta.Remove_flow { src = 99; dst = 98 }));
  rejects "duplicate flow" (fun () ->
      let f = List.hd soc.Soc_spec.flows in
      Delta.apply base
        (Delta.Add_flow
           (Flow.make ~src:f.Flow.src ~dst:f.Flow.dst ~bw:1.0 ~lat:10)));
  rejects "moving an unknown core" (fun () ->
      Delta.apply base (Delta.Move_core { core = 99; island = 0 }));
  rejects "moving to an unknown island" (fun () ->
      Delta.apply base (Delta.Move_core { core = 0; island = vi.Vi.islands }));
  rejects "always-on toggle of an unknown island" (fun () ->
      Delta.apply base
        (Delta.Set_always_on { island = vi.Vi.islands; always_on = true }));
  rejects "frequency edit of an unknown core" (fun () ->
      Delta.apply base (Delta.Set_core_freq { core = -1; freq_mhz = 100.0 }));
  (* successful edits land where they should, and only there *)
  let f = List.hd soc.Soc_spec.flows in
  let soc', vi' =
    Delta.apply base
      (Delta.Set_flow_bandwidth
         { src = f.Flow.src; dst = f.Flow.dst; bandwidth_mbps = 123.0 })
  in
  let f' = List.hd soc'.Soc_spec.flows in
  checkb "bandwidth edited in place" true (f'.Flow.bandwidth_mbps = 123.0);
  checki "flow count unchanged" (List.length soc.Soc_spec.flows)
    (List.length soc'.Soc_spec.flows);
  checkb "vi untouched by a flow edit" true (vi' == vi);
  let _, vi'' =
    Delta.apply base (Delta.Set_always_on { island = 1; always_on = true })
  in
  checkb "always-on clears shutdownable" true
    (not vi''.Vi.shutdownable.(1));
  let soc''', _ =
    Delta.apply base (Delta.Set_core_freq { core = 3; freq_mhz = 777.0 })
  in
  checkb "core frequency edited" true
    (soc'''.Soc_spec.cores.(3).Core_spec.freq_mhz = 777.0);
  (* Add_flow appends at the end: flow order is a synthesis input *)
  let soc4, _ =
    Delta.apply base (Delta.Add_flow (Flow.make ~src:11 ~dst:4 ~bw:42.0 ~lat:25))
  in
  let last = List.nth soc4.Soc_spec.flows (List.length soc4.Soc_spec.flows - 1) in
  checkb "add_flow appends" true
    (last.Flow.src = 11 && last.Flow.dst = 4 && last.Flow.bandwidth_mbps = 42.0)

let test_dirty_sets () =
  let soc = D26.soc and vi = D26.logical_partition ~islands:4 in
  let base = (soc, vi) in
  let max_bw = Flow.max_bandwidth soc.Soc_spec.flows in
  (* an intra-island flow below the global maximum: lowering it moves no
     Definition-1 normalizer, so only its own island's caches go stale *)
  let f =
    List.find
      (fun f ->
        vi.Vi.of_core.(f.Flow.src) = vi.Vi.of_core.(f.Flow.dst)
        && f.Flow.bandwidth_mbps < max_bw)
      soc.Soc_spec.flows
  in
  let island = vi.Vi.of_core.(f.Flow.src) in
  let d =
    Delta.dirty_of base
      (Delta.Set_flow_bandwidth
         {
           src = f.Flow.src;
           dst = f.Flow.dst;
           bandwidth_mbps = f.Flow.bandwidth_mbps *. 0.9;
         })
  in
  checkb "one island re-clocked" true (d.Delta.clock_islands = [ island ]);
  checkb "one island re-partitioned" true
    (d.Delta.partition_islands = [ island ]);
  checkb "normalizers unmoved" true (not d.Delta.all_partitions);
  checkb "floorplan stale" true d.Delta.plan;
  checkb "evaluations stale" true d.Delta.evals;
  (* raising a flow above every other moves max_bw: every VCG re-weights *)
  let d_max =
    Delta.dirty_of base
      (Delta.Set_flow_bandwidth
         {
           src = f.Flow.src;
           dst = f.Flow.dst;
           bandwidth_mbps = max_bw *. 2.0;
         })
  in
  checkb "new global maximum dirties every partition" true
    d_max.Delta.all_partitions;
  (* a latency edit never touches clocking or the floorplan *)
  let d_lat =
    Delta.dirty_of base
      (Delta.Set_flow_latency
         { src = f.Flow.src; dst = f.Flow.dst; max_latency_cycles = 90 })
  in
  checkb "latency edit clocks nothing" true (d_lat.Delta.clock_islands = []);
  checkb "latency edit keeps the floorplan" true (not d_lat.Delta.plan);
  (* the clean kinds *)
  checkb "always-on toggle is clean" true
    (Delta.dirty_of base (Delta.Set_always_on { island = 1; always_on = true })
    = Delta.clean);
  checkb "core frequency edit is clean" true
    (Delta.dirty_of base (Delta.Set_core_freq { core = 0; freq_mhz = 400.0 })
    = Delta.clean)

let test_json_roundtrip () =
  let chain =
    [
      Delta.Set_flow_bandwidth { src = 1; dst = 2; bandwidth_mbps = 350.5 };
      Delta.Set_flow_latency { src = 4; dst = 5; max_latency_cycles = 12 };
      Delta.Add_flow (Flow.make ~src:3 ~dst:7 ~bw:120.0 ~lat:18);
      Delta.Remove_flow { src = 1; dst = 2 };
      Delta.Move_core { core = 6; island = 2 };
      Delta.Set_always_on { island = 0; always_on = true };
      Delta.Set_core_freq { core = 9; freq_mhz = 450.0 };
    ]
  in
  (match Delta.list_of_string (Delta.list_to_string chain) with
  | Ok chain' -> checkb "chain round-trips exactly" true (chain = chain')
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* empty chains are valid documents too *)
  match Delta.list_of_string (Delta.list_to_string []) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty chain grew deltas"
  | Error e -> Alcotest.failf "empty round-trip failed: %s" e

(* ---------- invalidation exactness ---------- *)

let families = [ "clocks"; "plan"; "partition"; "eval" ]

let snapshot stat =
  List.map
    (fun f -> Metrics.counter_value (Printf.sprintf "cache.%s.%s" f stat))
    families

let deltas_since before stat = List.map2 ( - ) (snapshot stat) before

(* A targeted bandwidth edit evicts exactly one island's clock, the
   floorplan, that island's partitions and every candidate evaluation —
   and nothing else, which the identical base re-run proves: each
   family's new misses equal its evictions, and the result equals the
   previous one bit for bit. *)
let test_invalidate_exact () =
  let soc = D26.soc and vi = D26.logical_partition ~islands:4 in
  Memo.clear_all ();
  let prev = Synth.run ~options:seq config soc vi in
  let max_bw = Flow.max_bandwidth soc.Soc_spec.flows in
  let f =
    List.find
      (fun f ->
        vi.Vi.of_core.(f.Flow.src) = vi.Vi.of_core.(f.Flow.dst)
        && f.Flow.bandwidth_mbps < max_bw)
      soc.Soc_spec.flows
  in
  let delta =
    [
      Delta.Set_flow_bandwidth
        {
          src = f.Flow.src;
          dst = f.Flow.dst;
          bandwidth_mbps = f.Flow.bandwidth_mbps *. 0.9;
        };
    ]
  in
  let ev0 = snapshot "evictions" in
  ignore (Synth.invalidate ~options:seq ~prev ~delta config soc vi);
  let evicted = deltas_since ev0 "evictions" in
  (match evicted with
  | [ clocks; plan; partition; eval ] ->
    checki "exactly one island's clock evicted" 1 clocks;
    checki "exactly one floorplan evicted" 1 plan;
    checkb "that island's partitions evicted" true (partition > 0);
    checki "every candidate evaluation evicted" prev.Synth.candidates_tried
      eval
  | _ -> assert false);
  (* the exactness witness: re-running the *base* spec re-misses exactly
     the evicted entries and reproduces the previous result *)
  let m0 = snapshot "misses" in
  let again = Synth.run ~options:seq config soc vi in
  checkb "misses after invalidation == evictions, per family" true
    (deltas_since m0 "misses" = evicted);
  checkb "no stale entry served: base re-run equals prev" true
    (result_signature again = result_signature prev)

(* Always-on toggles and core frequency edits dirty nothing: the rerun
   resolves every candidate from the evaluation memo without a single
   miss, and still equals a cache-off fresh run on the edited spec. *)
let test_clean_kinds_free_rerun () =
  let soc = D26.soc and vi = D26.logical_partition ~islands:4 in
  Memo.clear_all ();
  let prev = Synth.run ~options:seq config soc vi in
  let delta =
    [
      Delta.Set_always_on { island = 1; always_on = true };
      Delta.Set_core_freq { core = 0; freq_mhz = 555.0 };
    ]
  in
  let ev0 = snapshot "evictions" in
  let m0 = snapshot "misses" in
  let eval_hits0 = Metrics.counter_value "cache.eval.hits" in
  let (soc', vi'), result = Synth.rerun ~options:seq ~prev ~delta config soc vi in
  checkb "clean kinds evict nothing" true
    (deltas_since ev0 "evictions" = [ 0; 0; 0; 0 ]);
  checkb "clean kinds miss nothing" true
    (deltas_since m0 "misses" = [ 0; 0; 0; 0 ]);
  checki "every candidate served from the evaluation memo"
    prev.Synth.candidates_tried
    (Metrics.counter_value "cache.eval.hits" - eval_hits0);
  checkb "edit landed: island 1 pinned always-on" true
    (not vi'.Vi.shutdownable.(1));
  checkb "edit landed: core 0 reclocked" true
    (soc'.Soc_spec.cores.(0).Core_spec.freq_mhz = 555.0);
  let fresh =
    Synth.run
      ~options:{ seq with Synth.Options.cache = false }
      config soc' vi'
  in
  checkb "free rerun still bit-identical to a fresh run" true
    (result_signature result = result_signature fresh)

let test_rerun_guards () =
  let soc = D12.soc and vi = D12.default_vi in
  Memo.clear_all ();
  let prev = Synth.run ~options:seq config soc vi in
  (* the no-op rerun: an empty chain returns the spec and result as-is *)
  let (soc', vi'), same = Synth.rerun ~options:seq ~prev ~delta:[] config soc vi in
  checkb "empty chain keeps the spec" true (soc' == soc && vi' == vi);
  checkb "empty chain reproduces prev" true
    (result_signature same = result_signature prev);
  (* a prev that does not belong to (config, soc, vi) is rejected before
     any eviction happens *)
  Memo.clear_all ();
  let foreign =
    Synth.run ~options:seq config D26.soc (D26.logical_partition ~islands:4)
  in
  rejects "foreign prev (same island count, different spec)" (fun () ->
      Synth.invalidate ~options:seq ~prev:foreign ~delta:[] config soc vi);
  rejects "prev with a different island count" (fun () ->
      Synth.invalidate ~options:seq ~prev
        ~delta:[] config D26.soc (D26.logical_partition ~islands:7))

(* ---------- the delta-chain property ---------- *)

(* Deterministic chain generator: every delta is valid against the
   intermediate spec it applies to (existing flows only, moves never
   empty an island, additions never duplicate), so chain application
   cannot raise — only the edited spec's *synthesis* may turn
   infeasible, and then rerun and fresh run must agree on that too. *)
let gen_delta rng ((soc, vi) : Soc_spec.t * Vi.t) =
  let flows = soc.Soc_spec.flows in
  let nf = List.length flows in
  let cores = Soc_spec.core_count soc in
  let pick_flow () = List.nth flows (Random.State.int rng nf) in
  let rec choose () =
    match Random.State.int rng 7 with
    | 0 ->
      let f = pick_flow () in
      Delta.Set_flow_bandwidth
        {
          src = f.Flow.src;
          dst = f.Flow.dst;
          bandwidth_mbps =
            f.Flow.bandwidth_mbps *. (0.5 +. Random.State.float rng 1.0);
        }
    | 1 ->
      let f = pick_flow () in
      Delta.Set_flow_latency
        {
          src = f.Flow.src;
          dst = f.Flow.dst;
          max_latency_cycles = 6 + Random.State.int rng 30;
        }
    | 2 ->
      let rec fresh_pair tries =
        if tries = 0 then choose ()
        else
          let src = Random.State.int rng cores
          and dst = Random.State.int rng cores in
          if
            src = dst
            || List.exists
                 (fun f -> f.Flow.src = src && f.Flow.dst = dst)
                 flows
          then fresh_pair (tries - 1)
          else
            Delta.Add_flow
              (Flow.make ~src ~dst
                 ~bw:(50.0 +. Random.State.float rng 400.0)
                 ~lat:(10 + Random.State.int rng 20))
      in
      fresh_pair 10
    | 3 ->
      if nf <= 2 then choose ()
      else
        let f = pick_flow () in
        Delta.Remove_flow { src = f.Flow.src; dst = f.Flow.dst }
    | 4 ->
      let sizes = Vi.island_sizes vi in
      let movable =
        List.filter
          (fun c -> sizes.(vi.Vi.of_core.(c)) > 1)
          (List.init cores Fun.id)
      in
      if movable = [] || vi.Vi.islands < 2 then choose ()
      else
        let core =
          List.nth movable (Random.State.int rng (List.length movable))
        in
        let island =
          (vi.Vi.of_core.(core) + 1 + Random.State.int rng (vi.Vi.islands - 1))
          mod vi.Vi.islands
        in
        Delta.Move_core { core; island }
    | 5 ->
      Delta.Set_always_on
        {
          island = Random.State.int rng vi.Vi.islands;
          always_on = Random.State.bool rng;
        }
    | _ ->
      Delta.Set_core_freq
        {
          core = Random.State.int rng cores;
          freq_mhz = 200.0 +. Random.State.float rng 800.0;
        }
  in
  choose ()

let gen_chain rng base len =
  let rec go state acc n =
    if n = 0 then List.rev acc
    else
      let d = gen_delta rng state in
      go (Delta.apply state d) (d :: acc) (n - 1)
  in
  go base [] len

let cases = List.map Bench_case.find [ "d12"; "d16"; "d20"; "d26" ]

let attempt f =
  match f () with
  | r -> Ok (result_signature r)
  | exception Synth.No_feasible_design _ -> Error `Infeasible
  | exception Freq_assign.Infeasible _ -> Error `No_clock

(* rerun after a whole chain == fresh cache-off run on the edited spec,
   including exception parity when the edit breaks feasibility *)
let prop_chain_identity ~name ~domains ~count =
  QCheck.Test.make ~name ~count
    QCheck.(pair (int_bound 10_000) (int_bound (List.length cases - 1)))
    (fun (seed, case_idx) ->
      let case = List.nth cases case_idx in
      let soc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
      let rng = Random.State.make [| seed; 0x5eed |] in
      let len = 1 + Random.State.int rng 8 in
      let chain = gen_chain rng (soc, vi) len in
      let o = options ~domains in
      Memo.clear_all ();
      let prev = Synth.run ~options:o config soc vi in
      let incremental =
        attempt (fun () ->
            snd (Synth.rerun ~options:o ~prev ~delta:chain config soc vi))
      in
      let soc', vi' = Delta.apply_all (soc, vi) chain in
      let fresh =
        attempt (fun () ->
            Synth.run
              ~options:{ o with Synth.Options.cache = false }
              config soc' vi')
      in
      incremental = fresh)

(* the same identity holds delta by delta: rerunning each edit against
   the previous incremental result walks to the same final answer *)
let prop_stepwise_identity =
  QCheck.Test.make
    ~name:"step-wise rerun walk = fresh run on the final spec" ~count:4
    QCheck.(int_bound 10_000)
    (fun seed ->
      let case = List.nth cases (seed mod 2) (* d12 / d16: k runs per chain *) in
      let soc = case.Bench_case.soc and vi = case.Bench_case.default_vi in
      let rng = Random.State.make [| seed; 0xc4a1 |] in
      let len = 2 + Random.State.int rng 5 in
      let chain = gen_chain rng (soc, vi) len in
      Memo.clear_all ();
      let prev = Synth.run ~options:seq config soc vi in
      let rec walk soc vi prev = function
        | [] -> Ok (soc, vi, result_signature prev)
        | d :: rest -> (
          match Synth.rerun ~options:seq ~prev ~delta:[ d ] config soc vi with
          | (soc', vi'), result -> walk soc' vi' result rest
          | exception Synth.No_feasible_design _ ->
            Error (`Infeasible, soc, vi, d)
          | exception Freq_assign.Infeasible _ -> Error (`No_clock, soc, vi, d))
      in
      match walk soc vi prev chain with
      | Ok (soc', vi', incremental) ->
        attempt (fun () ->
            Synth.run
              ~options:{ seq with Synth.Options.cache = false }
              config soc' vi')
        = Ok incremental
      | Error (cls, soc0, vi0, d) ->
        (* the step that broke incrementally must break a fresh run of
           its edited spec the same way *)
        let soc', vi' = Delta.apply (soc0, vi0) d in
        attempt (fun () ->
            Synth.run
              ~options:{ seq with Synth.Options.cache = false }
              config soc' vi')
        = Error cls)

(* ---------- rerun under protection, through a fault campaign ---------- *)

let test_rerun_protect_survivability () =
  let soc = D12.soc and vi = D12.default_vi in
  let popt = { seq with Synth.Options.protect = true } in
  Memo.clear_all ();
  let prev = Synth.run ~options:popt config soc vi in
  (* pin an island always-on and nudge a flow: the protected rerun must
     re-establish the full backup contract on the edited spec *)
  let f = List.hd soc.Soc_spec.flows in
  let delta =
    [
      Delta.Set_always_on { island = 1; always_on = true };
      Delta.Set_flow_bandwidth
        {
          src = f.Flow.src;
          dst = f.Flow.dst;
          bandwidth_mbps = f.Flow.bandwidth_mbps *. 1.1;
        };
    ]
  in
  let (soc', vi'), result =
    Synth.rerun ~options:popt ~prev ~delta config soc vi
  in
  let fresh =
    Synth.run ~options:{ popt with Synth.Options.cache = false } config soc' vi'
  in
  checkb "protected rerun bit-identical to protected fresh run" true
    (result_signature result = result_signature fresh);
  let topo = (Synth.best_power result).DP.topology in
  checkb "protection contract holds after the rerun" true
    (Verify.check_all ~require_backups:true config soc' vi' topo = Ok ());
  let outcomes =
    Survivability.run
      ~options:{ Survivability.Options.domains = Some 1 }
      config topo ~clocks:result.Synth.clocks
      (Campaign.single_link topo)
  in
  let s = Survivability.summarize outcomes in
  checki "no flow lost to any single link fault" 0
    s.Survivability.total_lost;
  let switch_outcomes =
    Survivability.run
      ~options:{ Survivability.Options.domains = Some 1 }
      config topo ~clocks:result.Synth.clocks
      (Campaign.single_switch topo)
  in
  let ss = Survivability.summarize switch_outcomes in
  checki "single-switch losses are dead-NI-only"
    ss.Survivability.total_endpoint_lost ss.Survivability.total_lost

(* ---------- sweep-level rerun ---------- *)

let test_rerun_island_sweep () =
  let soc = D26.soc in
  let partitions =
    [
      ("logical/3", D26.logical_partition ~islands:3);
      ("logical/4", D26.logical_partition ~islands:4);
    ]
  in
  let eo =
    { Explore.Options.default with Explore.Options.synth = seq }
  in
  Memo.clear_all ();
  let prev = Explore.island_sweep ~options:eo config soc ~partitions in
  checki "both partitions feasible" 2 (List.length prev);
  let f = List.hd soc.Soc_spec.flows in
  let delta =
    [
      Delta.Set_flow_bandwidth
        {
          src = f.Flow.src;
          dst = f.Flow.dst;
          bandwidth_mbps = f.Flow.bandwidth_mbps *. 1.2;
        };
    ]
  in
  let rerun = Explore.rerun_island_sweep ~options:eo config soc ~prev ~delta in
  (* flow deltas leave every VI assignment intact, so the fresh sweep
     runs the same partitions on the edited spec *)
  let soc', _ = Delta.apply_all (soc, D26.logical_partition ~islands:3) delta in
  let fresh =
    Explore.island_sweep
      ~options:
        {
          eo with
          Explore.Options.synth = { seq with Synth.Options.cache = false };
        }
      config soc' ~partitions
  in
  let signature sp =
    (sp.Explore.label, sp.Explore.islands, result_signature sp.Explore.result)
  in
  checkb "rerun sweep = fresh sweep on the edited spec" true
    (List.map signature rerun = List.map signature fresh);
  rejects "island-level deltas are sweep-ambiguous" (fun () ->
      Explore.rerun_island_sweep ~options:eo config soc ~prev
        ~delta:[ Delta.Move_core { core = 0; island = 1 } ])

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_delta"
    [
      ( "edits",
        [
          Alcotest.test_case "apply validates and lands edits" `Quick
            test_apply_validation;
          Alcotest.test_case "dirty sets per delta kind" `Quick test_dirty_sets;
          Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "eviction is exact (misses == evictions)" `Quick
            test_invalidate_exact;
          Alcotest.test_case "clean kinds rerun for free" `Quick
            test_clean_kinds_free_rerun;
          Alcotest.test_case "rerun guards its inputs" `Quick test_rerun_guards;
        ] );
      ( "identity",
        [
          qt
            (prop_chain_identity
               ~name:"delta chains: rerun = fresh run (sequential)"
               ~domains:(Some 1) ~count:6);
          qt
            (prop_chain_identity
               ~name:"delta chains: rerun = fresh run (4 domains)"
               ~domains:(Some 4) ~count:4);
          qt prop_stepwise_identity;
        ] );
      ( "protection",
        [
          Alcotest.test_case "protected rerun survives fault campaigns" `Quick
            test_rerun_protect_survivability;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "rerun_island_sweep = fresh sweep" `Quick
            test_rerun_island_sweep;
        ] );
    ]
