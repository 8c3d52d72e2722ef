(* The routing engine's two identity guarantees.

   Cache identity: whole synthesis sweeps agree bit for bit on every
   saved design point and every counter with [Synth.Options.cache] on
   and off, so the process-wide memos (clocks, plans, partitions,
   evaluations) never change what routing sees.  The d26/d36 sweeps
   exercise the rip-up and protected-reroute recovery paths.
   (test_golden.ml pins the sweeps themselves.)

   Search identity: [Astar.run_to_const] is bit-identical to the naive
   Dijkstra oracle on random graphs whose quarter-integer weights make
   equal-cost ties common — with the zero floor, the exact floor, and the
   [infinity] floor of a target no edge enters; and with the two
   liberties the path allocator's expansion takes: dropping an edge
   whose lower bound already reaches the target's label, and lowering
   that bound through the edge into the target first. *)

module Synth = Noc_synthesis.Synth
module DP = Noc_synthesis.Design_point
module Power = Noc_models.Power
module Bench_case = Noc_benchmarks.Bench_case
module Astar = Noc_graph.Astar
module Digraph = Noc_graph.Digraph
module Dijkstra = Dijkstra_oracle

let checkb = Alcotest.(check bool)

(* Full signature, not just the Pareto front: every float as stored. *)
let point_signature p =
  ( ( Power.total_mw p.DP.power,
      Power.dynamic_mw p.DP.power,
      p.DP.avg_latency_cycles,
      p.DP.total_wire_mm ),
    ( p.DP.switch_count,
      p.DP.indirect_count,
      p.DP.link_count,
      p.DP.crossing_count ) )

let result_signature (r : Synth.result) =
  ( r.Synth.candidates_tried,
    r.Synth.candidates_feasible,
    r.Synth.candidates_recovered,
    List.map point_signature r.Synth.points )

let sweep name ~cache =
  let case = Bench_case.find name in
  let options =
    { Synth.Options.default with Synth.Options.cache; domains = Some 1 }
  in
  (* cold process-wide tables: identity must not lean on a warm memo *)
  Noc_cache.Memo.clear_all ();
  result_signature
    (Synth.run ~options Noc_synthesis.Config.default case.Bench_case.soc
       case.Bench_case.default_vi)

let test_memo_identity name () =
  checkb "cache on = cache off" true (sweep name ~cache:true = sweep name ~cache:false)

(* ---------- run_to_const vs the oracle ---------- *)

let random_graph seed n density =
  let st = Random.State.make [| seed; n |] in
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float st 1.0 < density then
        Digraph.add_edge g u v (float_of_int (1 + Random.State.int st 20) /. 4.0)
    done
  done;
  g

(* The path allocator's expansion, over a push expansion: an edge into a
   non-target [v] is dropped when [d + lb + floor >= bound], for
   [lb = w * r] with [r] in [0, 1] fixed per (u, v); with [early], the
   edge into the target is written first and lowers the bound to
   [d + w(u, target)]. *)
let pruned expand ~ratio ~n ~early ~floor ~target u d bound succ weight =
  let count = ref 0 in
  let push v w =
    succ.(!count) <- v;
    weight.(!count) <- w;
    incr count
  in
  let bound = ref bound in
  if early then
    expand u (fun v w ->
        if v = target then begin
          push v w;
          if d +. w < !bound then bound := d +. w
        end);
  expand u (fun v w ->
      if v = target then (if not early then push v w)
      else if d +. (w *. ratio.((u * n) + v)) +. floor < !bound then push v w);
  !count

let prop_const_matches_oracle =
  QCheck.Test.make
    ~name:
      "run_to_const (exact and zero floors, and infinity with no edge into \
       the target; full, lower-bound-pruned and early-bound expansions) is \
       bit-identical to the naive Dijkstra oracle"
    ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 2 16))
    (fun (seed, n) ->
      let g = random_graph seed n 0.3 in
      let st = Random.State.make [| seed; n; 0x1b |] in
      let ratio = Array.init (n * n) (fun _ -> Random.State.float st 1.0) in
      let arena = Astar.create () in
      let ok = ref true in
      for target = 0 to n - 1 do
        let full = Dijkstra.of_list (Digraph.succ g) in
        let exact =
          List.fold_left (fun c (_, w) -> Float.min c w) infinity
            (Digraph.pred g target)
        in
        (* the same graph with every edge into the target cut *)
        let cut u relax = full u (fun v w -> if v <> target then relax v w) in
        List.iter
          (fun (graph, floor) ->
            let reference = Dijkstra.run_to ~n ~expand:graph ~source:0 ~target in
            List.iter
              (fun expand ->
                if
                  Astar.run_to_const arena ~n ~expand ~floor ~source:0 ~target
                  <> reference
                then ok := false)
              [
                Dijkstra.buffered graph;
                pruned graph ~ratio ~n ~early:false ~floor ~target;
                pruned graph ~ratio ~n ~early:true ~floor ~target;
              ])
          [ (full, 0.0); (full, exact); (cut, infinity) ]
      done;
      !ok)

let test_const_rejects_bad_floor () =
  let g = random_graph 7 4 0.5 in
  let arena = Astar.create () in
  let raises floor =
    match
      Astar.run_to_const arena ~n:4
        ~expand:(Dijkstra.buffered (Dijkstra.of_list (Digraph.succ g)))
        ~floor ~source:0 ~target:3
    with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "NaN floor rejected" true (raises Float.nan);
  checkb "negative floor rejected" true (raises (-1.0));
  checkb "infinite floor accepted" false (raises infinity)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_flat"
    [
      ( "engine-identity",
        List.map
          (fun name ->
            Alcotest.test_case
              (Printf.sprintf "%s: memo on = memo off" name)
              `Slow (test_memo_identity name))
          [ "d12"; "d16"; "d20"; "d26"; "d36" ] );
      ( "astar-const",
        [
          qt prop_const_matches_oracle;
          Alcotest.test_case "floor validation" `Quick
            test_const_rejects_bad_floor;
        ] );
    ]
