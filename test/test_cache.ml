(* Tests for the memoization layer (lib/cache) and its soundness
   guarantee: a cached Synth.run is bit-identical to an uncached one —
   same points, same order, same feasibility counts — and repeated
   sweeps actually hit the process-wide caches. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module Explore = Noc_synthesis.Explore
module DP = Noc_synthesis.Design_point
module Power = Noc_models.Power
module Metrics = Noc_exec.Metrics
module Memo = Noc_cache.Memo
module D26 = Noc_benchmarks.D26
module Synth_gen = Noc_benchmarks.Synth_gen

let config = Config.default
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Everything observable about a design point, as comparable scalars —
   exact float equality on purpose: the memo layer promises bit-identical
   results, not merely close ones. *)
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
  ( r.Synth.candidates_tried,
    r.Synth.candidates_feasible,
    List.map point_signature r.Synth.points )

(* ---------- Memo primitives ---------- *)

let test_memo_find_or_add () =
  let t : (int, int) Memo.t = Memo.create "test_unit" in
  let computed = ref 0 in
  let compute k () =
    incr computed;
    k * k
  in
  let h0 = Metrics.counter_value "cache.test_unit.hits" in
  let m0 = Metrics.counter_value "cache.test_unit.misses" in
  checki "miss computes" 49 (Memo.find_or_add t 7 (compute 7));
  checki "hit reuses" 49 (Memo.find_or_add t 7 (compute 7));
  checki "distinct key computes" 9 (Memo.find_or_add t 3 (compute 3));
  checki "compute ran once per key" 2 !computed;
  checki "length" 2 (Memo.length t);
  checki "one hit counted" 1
    (Metrics.counter_value "cache.test_unit.hits" - h0);
  checki "two misses counted" 2
    (Metrics.counter_value "cache.test_unit.misses" - m0);
  checkb "find_opt sees cached" true (Memo.find_opt t 7 = Some 49);
  checkb "find_opt misses cold key" true (Memo.find_opt t 99 = None);
  Memo.clear t;
  checki "clear empties" 0 (Memo.length t);
  checki "recompute after clear" 49 (Memo.find_or_add t 7 (compute 7));
  checki "compute ran again" 3 !computed

let test_memo_clear_all () =
  let t : (string, int) Memo.t = Memo.create "test_clear_all" in
  ignore (Memo.find_or_add t "a" (fun () -> 1));
  checki "populated" 1 (Memo.length t);
  Memo.clear_all ();
  checki "clear_all reaches every registered table" 0 (Memo.length t)

let test_memo_unregister () =
  (* request-scoped tables (e.g. the serve daemon's per-connection
     spec-parse memo) must leave the registry when they die, or a
     long-running process accumulates one closure per table forever *)
  let before = Memo.registered () in
  let t : (int, int) Memo.t = Memo.create "test_unregister" in
  checki "create registers" (before + 1) (Memo.registered ());
  ignore (Memo.find_or_add t 1 (fun () -> 1));
  Memo.unregister t;
  checki "unregister shrinks the registry" before (Memo.registered ());
  checki "unregister drops entries" 0 (Memo.length t);
  Memo.unregister t;
  checki "unregister is idempotent" before (Memo.registered ());
  (* an unregistered table still works, but clear_all no longer sees it *)
  ignore (Memo.find_or_add t 2 (fun () -> 2));
  Memo.clear_all ();
  checki "clear_all skips unregistered tables" 1 (Memo.length t);
  (* churning tables through create/unregister leaves no residue *)
  for i = 0 to 99 do
    let s : (int, int) Memo.t = Memo.create (Printf.sprintf "churn_%d" i) in
    ignore (Memo.find_or_add s i (fun () -> i));
    Memo.unregister s
  done;
  checki "no registry growth after churn" before (Memo.registered ())

let test_memo_digest () =
  (* structural equality, not physical: fresh but equal values share a
     digest, so content-keyed caches hit across rebuilt specs *)
  let v1 = ([ 1; 2; 3 ], "x", 4.5) in
  let v2 = (List.map Fun.id [ 1; 2; 3 ], "x", 4.5) in
  checkb "equal values digest equally" true (Memo.digest v1 = Memo.digest v2);
  checkb "different values digest differently" true
    (Memo.digest v1 <> Memo.digest ([ 1; 2; 3 ], "x", 4.6))

(* ---------- cache-on / cache-off identity ---------- *)

let run_with ~cache ~seed soc vi =
  Synth.run
    ~options:{ Synth.Options.default with Synth.Options.seed; cache }
    config soc vi

let test_d26_cache_identity () =
  let soc = D26.soc in
  let vi = D26.logical_partition ~islands:4 in
  Memo.clear_all ();
  let cold = run_with ~cache:true ~seed:0 soc vi in
  let warm = run_with ~cache:true ~seed:0 soc vi in
  Memo.clear_all ();
  let uncached = run_with ~cache:false ~seed:0 soc vi in
  checkb "cold cached run = uncached run" true
    (result_signature cold = result_signature uncached);
  checkb "warm cached run = uncached run" true
    (result_signature warm = result_signature uncached)

let prop_cache_identity =
  QCheck.Test.make
    ~name:"random SoCs: cache on/off produce identical sweeps"
    ~count:6
    QCheck.(int_bound 100)
    (fun seed ->
      let soc =
        Synth_gen.generate ~seed
          { Synth_gen.default_profile with Synth_gen.cores = 12 }
      in
      let vi = Synth_gen.random_vi ~seed ~islands:3 soc in
      Memo.clear_all ();
      let attempt cache =
        match run_with ~cache ~seed soc vi with
        | r -> Ok (result_signature r)
        | exception Synth.No_feasible_design _ -> Error `Infeasible
        | exception Noc_synthesis.Freq_assign.Infeasible _ -> Error `No_clock
      in
      attempt true = attempt false)

(* ---------- the sweep engine actually hits ---------- *)

let test_island_sweep_hits_caches () =
  let soc = D26.soc in
  let partitions = [ ("logical/4", D26.logical_partition ~islands:4) ] in
  Memo.clear_all ();
  let sweep () = Explore.island_sweep config soc ~partitions in
  (* within one sweep, candidates sharing an (island, parts) pair reuse
     one min-cut partition *)
  let partition_hits_cold = Metrics.counter_value "cache.partition.hits" in
  let first = sweep () in
  checkb "a single sweep already hits the partition cache" true
    (Metrics.counter_value "cache.partition.hits" > partition_hits_cold);
  (* a second identical sweep resolves whole candidates from the
     evaluation memo, so it no longer needs the partition cache at all *)
  let eval_hits_before = Metrics.counter_value "cache.eval.hits" in
  let second = sweep () in
  let eval_hits_after = Metrics.counter_value "cache.eval.hits" in
  checkb "second identical sweep hits the evaluation cache" true
    (eval_hits_after > eval_hits_before);
  let signature sp =
    (sp.Explore.label, sp.Explore.islands, result_signature sp.Explore.result)
  in
  checkb "both sweeps structurally identical" true
    (List.map signature first = List.map signature second)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_cache"
    [
      ( "memo",
        [
          Alcotest.test_case "find_or_add" `Quick test_memo_find_or_add;
          Alcotest.test_case "clear_all" `Quick test_memo_clear_all;
          Alcotest.test_case "unregister" `Quick test_memo_unregister;
          Alcotest.test_case "digest" `Quick test_memo_digest;
        ] );
      ( "identity",
        [
          Alcotest.test_case "d26 cache on/off identical" `Quick
            test_d26_cache_identity;
          qt prop_cache_identity;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "island_sweep hits the memo layer" `Quick
            test_island_sweep_hits_caches;
        ] );
    ]
