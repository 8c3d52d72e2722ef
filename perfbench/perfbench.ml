(* The repository's benchmark: sweeps, an edit session and the serve
   daemon, driven as a designer's tool would, with every output checked.

   perfbench --workload cold|warm --seed N --seconds S --trace 0|1

   Run from the repository root after building bin/noc_synth.exe (the
   daemon it starts); perfbench/run.py does both.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the per-layer ones, timed around each layer's public calls. *)

module Json = Noc_exec.Json
module Metrics = Noc_exec.Metrics
module Pool = Noc_exec.Pool

(* Whether the paper passes share process-wide tables ([Sweep.round]).
   Everything else runs the same in both workloads, so only
   [paper_synth_ms] should differ. *)
let workloads = [ ("cold", false); ("warm", true) ]

(* Every sweep runs on one domain.  With two, on a host of two vCPUs,
   each minor collection waits for both, and the sweep figures swung far
   past any bound whenever the host took CPU time away (README). *)
let domains = 1

(* [setup_s] is the median of the set-ups made in a run: this many before
   the first round and as many after every round, so they sample the
   whole run rather than its first second. *)
let setups = 3


type args = { workload : string; seed : int; seconds : float; trace : bool }

let exe = "_build/default/bin/noc_synth.exe"

(* Run-time files: daemon sockets, stores and logs, the traced run's spans. *)
let dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: perfbench --workload cold|warm --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | _ -> usage ()
  in
  let a =
    try
      go
        { workload = ""; seed = 0; seconds = 10.0; trace = false }
        (List.tl (Array.to_list argv))
    with Failure _ -> usage ()
  in
  if not (List.mem_assoc a.workload workloads) then usage ();
  a

let metric name unit value =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

(* The median of each item's samples of [name] (see [Acc.add_item]). *)
let item_medians acc name = List.map Stats.median (Acc.items acc name)

(* A metric with no samples can only come from failed operations, which
   already make the run incorrect; it reads 0. *)
let end_to_end acc ~setup_ms ~rss =
  let s = Acc.samples acc in
  let med name =
    match s name with
    | [] ->
      Acc.problem acc "no %s samples" name;
      0.0
    | l -> Stats.median l
  in
  let medians name =
    match item_medians acc name with
    | [] ->
      Acc.problem acc "no %s samples" name;
      []
    | l -> l
  in
  [
    metric "setup_s" "s" (Stats.median setup_ms /. 1e3);
    metric "peak_rss_mb" "MB" rss;
    metric "daemon_rss_mb" "MB" (med "daemon_rss_mb");
    metric "paper_synth_ms" "ms" (Stats.sum (medians "paper_synth_ms"));
    metric "scale_synth_s" "s" (Stats.sum (medians "scale_synth_s"));
    metric "edit_clean_ms" "ms" (Stats.mean (medians "edit_clean_ms"));
    metric "edit_dirty_ms" "ms" (Stats.mean (medians "edit_dirty_ms"));
    metric "memo_p50_ms" "ms" (Stats.mean (medians "memo_ms"));
  ]

(* Counter readings around one phase, summed over rounds: cache hits
   against lookups per table, and evictions. *)
module Tally = struct
  let table : (string, int * int) Hashtbl.t = Hashtbl.create 8

  let add key (a, b) =
    let a0, b0 = Option.value (Hashtbl.find_opt table key) ~default:(0, 0) in
    Hashtbl.replace table key (a0 + a, b0 + b)

  let get key = Option.value (Hashtbl.find_opt table key) ~default:(0, 0)

  let evictions () =
    List.fold_left
      (fun acc (k, v) ->
        if
          String.starts_with ~prefix:"cache." k
          && String.ends_with ~suffix:".evictions" k
        then acc + v
        else acc)
      0 (Metrics.counters ())

  let lookups name =
    let c k = Metrics.counter_value ("cache." ^ name ^ "." ^ k) in
    (c "hits", c "hits" + c "misses")

  (* [around names f] runs [f] and tallies what it did to the tables. *)
  let around names f =
    let before = List.map lookups names in
    let ev = evictions () in
    f ();
    List.iter2
      (fun name (h0, n0) ->
        let h, n = lookups name in
        add name (h - h0, n - n0))
      names before;
    add "evictions" (evictions () - ev, 0)
end

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let per_layer acc ~rounds ~domains ~(counts : Replay.counts) spans =
  let layer key = let h, n = Tally.get key in Stats.ratio h n in
  let tallied key = float_of_int (fst (Tally.get key)) in
  let totals = Spans.totals spans in
  let per_round x = x /. float_of_int rounds in
  let total name = per_round (fst (totals name)) in
  let self name = per_round (snd (totals name)) in
  let med_span name =
    match Spans.durations_ms spans name with [] -> 0.0 | l -> Stats.median l
  in
  let s = Acc.samples acc in
  let med name = match s name with [] -> 0.0 | l -> Stats.median l in
  let replay_after_clean =
    (* the run half of clean edits: spans named synthesis.run whose
       parent is an edit.clean span *)
    let clean_ids =
      List.filter_map
        (fun (sp : Spans.span) ->
          if sp.Spans.name = "edit.clean" then Some sp.Spans.id else None)
        spans
    in
    List.filter_map
      (fun (sp : Spans.span) ->
        if sp.Spans.name = "synthesis.run" && List.mem sp.Spans.parent clean_ids then
          Some (Spans.ms_of_ns (Spans.dur_ns sp))
        else None)
      spans
  in
  let busy = total "synthesis.candidate" and pool_wall = total "exec.pool" in
  let plain = Stats.sum (s "trace.plain_ms")
  and spanned = Stats.sum (s "trace.spanned_ms") in
  let c = float_of_int in
  [
    metric "spec.vcg_ms" "ms" (total "spec.vcg");
    metric "spec.delta_ms" "ms" (med_span "spec.delta");
    metric "spec.parse_ms" "ms" (med "spec.parse_ms");
    metric "floorplan.place_ms" "ms" (total "floorplan.place");
    metric "floorplan.anneal_ms" "ms" (total "floorplan.anneal");
    metric "partition.kway_ms" "ms" (total "partition.kway");
    metric "partition.calls" "count" (per_round (c counts.Replay.partition_calls));
    metric "cache.partition.hit_ratio" "ratio" (layer "partition");
    metric "synthesis.freq_assign_ms" "ms" (total "synthesis.freq_assign");
    metric "synthesis.switch_alloc_ms" "ms" (self "synthesis.switch_alloc");
    metric "synthesis.path_alloc_ms" "ms" (total "synthesis.path_alloc");
    metric "synthesis.flows_routed" "count" (per_round (c counts.Replay.flows_routed));
    metric "synthesis.ripups" "count" (per_round (c counts.Replay.ripups));
    metric "synthesis.restarts" "count" (per_round (c counts.Replay.restarts));
    metric "synthesis.feasible_ratio" "ratio"
      (Stats.ratio counts.Replay.feasible counts.Replay.candidates);
    metric "synthesis.design_point_ms" "ms" (total "synthesis.design_point");
    metric "synthesis.verify_ms" "ms" (total "synthesis.verify");
    metric "synthesis.score_ms" "ms" (total "synthesis.score");
    metric "synthesis.invalidate_ms" "ms" (med_span "synthesis.invalidate");
    metric "synthesis.replay_ms" "ms"
      (match replay_after_clean with [] -> 0.0 | l -> Stats.median l);
    metric "cache.hop_energy.hit_ratio" "ratio" (layer "hop_energy");
    metric "cache.eval.hit_ratio" "ratio" (layer "eval");
    metric "cache.evictions" "count" (per_round (tallied "evictions"));
    metric "cache.store.find_ms" "ms" (med "cache.store.find_ms");
    metric "cache.store.add_ms" "ms" (med "cache.store.add_ms");
    metric "cache.store.bytes" "bytes" (med "cache.store.bytes");
    metric "exec.pool.busy_ms" "ms" busy;
    metric "exec.pool.efficiency" "ratio"
      (if pool_wall = 0.0 then 0.0 else busy /. (c domains *. pool_wall));
    metric "exec.pool.spawn_ms" "ms" (med "exec.pool.spawn_ms");
    metric "exec.json.parse_ms" "ms" (med_span "exec.json.parse");
    metric "exec.json.print_ms" "ms" (med_span "exec.json.print");
    metric "exec.json.bytes" "bytes" (Stats.mean (s "exec.json.bytes"));
    metric "gc.minor_words_per_candidate" "words"
      (if counts.Replay.candidates = 0 then 0.0
       else Stats.sum (s "gc.minor_words") /. c counts.Replay.candidates);
    metric "gc.major_collections" "count" (per_round (Stats.sum (s "gc.major_collections")));
    metric "gc.top_heap_mb" "MB" (med "gc.top_heap_mb");
    metric "serve.daemon_ms.computed" "ms" (med "serve.daemon_ms.computed");
    metric "serve.daemon_ms.memo" "ms" (med "serve.daemon_ms.memo");
    metric "serve.daemon_ms.store" "ms" (med "serve.daemon_ms.store");
    metric "serve.transport_ms" "ms" (med "serve.transport_ms");
    metric "serve.cold_ms" "ms" (Stats.mean (item_medians acc "cold_ms"));
    metric "serve.store_hit_ms" "ms" (Stats.mean (item_medians acc "store_hit_ms"));
    metric "serve.memo_p99_ms" "ms"
      (match List.concat (Acc.items acc "memo_ms") with
      | [] -> 0.0
      | l -> Stats.quantile 0.99 l);
    metric "serve.warm_req_per_s" "1/s" (med "warm_req_per_s");
    metric "serve.handle_line_ms.memo" "ms" (med "serve.handle_line_ms.memo");
    metric "serve.handle_line_ms.store" "ms" (med "serve.handle_line_ms.store");
    metric "serve.codec.encode_ms" "ms" (med "serve.codec.encode_ms");
    metric "serve.codec.decode_ms" "ms" (med "serve.codec.decode_ms");
    metric "serve.codec.digest_ms" "ms" (med "serve.codec.digest_ms");
    metric "trace.overhead_pct" "%"
      (if plain = 0.0 then 0.0 else 100.0 *. (spanned -. plain) /. plain);
  ]

(* [perfbench --check-inputs FIRST LAST]: sweep every generator-pool entry
   at every size the inputs use, and run the edit chain of every seed in
   FIRST..LAST, reporting each that raises.  This is how the pool and the
   edit generator were checked; no run calls it. *)
let check_inputs first last =
  let failures = ref 0 in
  let attempt what f =
    match f () with
    | () -> ()
    | exception e ->
      incr failures;
      Printf.printf "%s: %s\n%!" what (Printexc.to_string e)
  in
  let uncached =
    { Noc_synthesis.Synth.Options.default with cache = false; domains = Some 1 }
  in
  List.iter
    (fun (cores, islands, config) ->
      for g = 1 to Inputs.pool do
        let soc, vi = Inputs.generated ~seed:g ~cores ~islands "check" in
        attempt (Printf.sprintf "%d cores, generator seed %d" cores g) (fun () ->
            ignore (Noc_synthesis.Synth.run ~options:uncached config soc vi))
      done)
    ((Inputs.serve_cores, Inputs.serve_islands, Noc_synthesis.Config.default)
    :: List.map
         (fun (cores, _) -> (cores, Inputs.scale_islands cores, Inputs.pipelined))
         Inputs.scale_sizes);
  for seed = first to last do
    attempt (Printf.sprintf "edit chain of seed %d" seed) (fun () ->
        Noc_cache.Memo.clear_all ();
        let base, edits = Inputs.edit_chain seed in
        ignore
          (List.fold_left
             (fun ((soc, vi), prev) (e : Inputs.edit) ->
               Noc_synthesis.Synth.rerun ~options:Edits.options ~prev
                 ~delta:[ e.Inputs.delta ] Edits.config soc vi)
             ( base,
               Noc_synthesis.Synth.run ~options:Edits.options Edits.config
                 (fst base) (snd base) )
             edits))
  done;
  Printf.printf "%d failure(s)\n" !failures;
  exit (if !failures = 0 then 0 else 1)

let main () =
  (match Array.to_list Sys.argv with
  | [ _; "--check-inputs"; first; last ] ->
    check_inputs (int_of_string first) (int_of_string last)
  | _ -> ());
  let a = parse Sys.argv in
  let warm = List.assoc a.workload workloads in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "perfbench: daemon executable %s not found\n" exe;
    exit 2
  end;
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Serve_mix.rm_rf (Filename.concat dir "daemon.log");
  Spans.set_enabled a.trace;
  (* a daemon that dies fails the requests sent to it, not the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Serve_mix.kill_all;
  let setup_ms = ref [] in
  let setup () =
    let i, ms = Serve_mix.setup ~exe ~dir ~seed:a.seed in
    setup_ms := ms :: !setup_ms;
    i
  in
  for _ = 2 to setups do
    ignore (setup ())
  done;
  let inputs = setup () in
  let acc = Acc.create () in
  let sweep_mem = Sweep.memory ()
  and edit_mem = Edits.memory ()
  and serve_mem = Serve_mix.memory inputs in
  let counts = Replay.counts () in
  let rss = ref 0.0 in
  let t0 = Acc.now () in
  let rounds = ref 0 in
  (* Whole rounds until the next one would end further past the run
     length than stopping now falls short of it. *)
  let last_round_ms = ref 0.0 in
  while !rounds = 0 || Acc.ms_since t0 +. (!last_round_ms /. 2.0) < a.seconds *. 1e3 do
    let round_start = Acc.now () in
    let serve =
      Serve_mix.open_round acc serve_mem ~exe ~dir
        ~traced:a.trace ~index:!rounds inputs
    in
    (* a warm slice after each paper pass, scale input and the failing
       operation (13) and after every fourth edit (6); the rest when the
       round closes *)
    let tick () = Serve_mix.tick serve in
    Tally.around [ "partition"; "hop_energy" ] (fun () ->
        Sweep.round acc sweep_mem ~domains ~warm
          ?counts:(if a.trace then Some counts else None)
          ~tick inputs);
    (* the heap's high-water mark after sweeps alone: spans live off the
       heap, and each input's result is released before its replays *)
    if a.trace && !rounds = 0 then Acc.add acc "gc.top_heap_mb" (top_heap_mb ());
    if a.trace then
      for _ = 1 to 20 do
        let (_ : int list), ms =
          Acc.timed (fun () -> Pool.parallel_map ~domains Fun.id [ 1; 2 ])
        in
        Acc.add acc "exec.pool.spawn_ms" ms
      done;
    Tally.around [ "eval" ] (fun () ->
        Edits.round acc edit_mem ~traced:a.trace ~tick inputs);
    Serve_mix.close_round serve;
    for _ = 1 to setups do
      ignore (setup ())
    done;
    if !rounds = 0 then rss := Serve_mix.peak_rss_mb "self";
    last_round_ms := Acc.ms_since round_start;
    Printf.eprintf "perfbench: round %d took %.2f s\n%!" !rounds (!last_round_ms /. 1e3);
    incr rounds
  done;
  Printf.eprintf "perfbench: %d rounds in %.1f s\n%!" !rounds (Acc.ms_since t0 /. 1e3);
  (* checks that need uncached reference sweeps, after the measurement *)
  Edits.finish acc edit_mem;
  Serve_mix.finish acc serve_mem inputs;
  let metrics =
    if not a.trace then end_to_end acc ~setup_ms:!setup_ms ~rss:!rss
    else begin
      let spans = Spans.all () in
      let m = per_layer acc ~rounds:!rounds ~domains ~counts spans in
      Spans.write (Filename.concat dir (Printf.sprintf "trace-%s.json" a.workload)) spans;
      m
    end
  in
  List.iter
    (fun p -> prerr_endline ("perfbench: check failed: " ^ p))
    (List.rev acc.Acc.problems);
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (acc.Acc.problems = []));
            ("attempted", Json.Int acc.Acc.attempted);
            ("failed", Json.Int acc.Acc.failed);
            ("metrics", Json.Obj metrics);
          ]))

let () = main ()
