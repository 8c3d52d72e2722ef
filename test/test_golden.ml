(* Golden digests: whole synthesis sweeps pinned bit for bit.

   For each input the fixture holds the result digest the serve daemon
   reports ([Serve.Codec.result_digest]: every saved point's power,
   latency, switch/link/crossing counts and wire length, plus the
   candidate counters) and an MD5 over every saved point's primary and
   backup routes, each list sorted by (src, dst).  The fixture was
   computed while the library still carried a reference Dijkstra engine
   beside the A* one, and that engine, run with the hop memo off,
   reproduced every entry.  A routing or allocation change that moves
   any route, cost or counter fails here.

   Inputs: the paper benchmarks d12-d48 on their default islands, d26
   and d48 with protection (backup searches run under masks), and
   generated 4-island SoCs with link pipelining on — at 32 cores no link
   needs a register stage, at 64 some do.  Last, a 96-core, 8-island
   balanced SoC shaped like perfbench's scale set (pipelined, 3,258 of
   its 15,622 saved links carry register stages); it and d48 protected
   were computed with the per-state hop memo the closed-form kernel
   replaced.  Every sweep starts from cleared process-wide tables and
   runs on one domain. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module DP = Noc_synthesis.Design_point
module Topology = Noc_synthesis.Topology
module Flow = Noc_spec.Flow
module Bench_case = Noc_benchmarks.Bench_case
module Synth_gen = Noc_benchmarks.Synth_gen
module Codec = Noc_serve.Serve.Codec

let routes_md5 (r : Synth.result) =
  let b = Buffer.create 4096 in
  let add_routes tag routes =
    let sorted =
      List.sort
        (fun (f, _) (g, _) ->
          compare (f.Flow.src, f.Flow.dst) (g.Flow.src, g.Flow.dst))
        routes
    in
    List.iter
      (fun (f, route) ->
        Printf.bprintf b "%s %d>%d:" tag f.Flow.src f.Flow.dst;
        List.iter (Printf.bprintf b " %d") route;
        Buffer.add_char b '\n')
      sorted
  in
  List.iteri
    (fun i p ->
      let topo = p.DP.topology in
      Printf.bprintf b "point %d\n" i;
      add_routes "r" topo.Topology.routes;
      add_routes "b" topo.Topology.backup_routes)
    r.Synth.points;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sweep ?(protect = false) config soc vi =
  Noc_cache.Memo.clear_all ();
  let options =
    { Synth.Options.default with Synth.Options.protect; domains = Some 1 }
  in
  let r = Synth.run ~options config soc vi in
  (Codec.result_digest r, routes_md5 r)

let bench ?protect name =
  let case = Bench_case.find name in
  sweep ?protect Config.default case.Bench_case.soc case.Bench_case.default_vi

let pipelined = { Config.default with Config.allow_link_pipelining = true }

let generated ~cores seed =
  let soc = Synth_gen.generate ~seed { Synth_gen.default_profile with cores } in
  let vi = Synth_gen.random_vi ~seed ~islands:4 soc in
  sweep pipelined soc vi

(* The scale set's shape: hubs, pipelines and roomy budgets as in the
   d128 recipe, on [islands] equal-sized islands (island 0 always-on) in
   a seeded order. *)
let balanced ~cores ~islands seed =
  let soc =
    Synth_gen.generate ~seed
      {
        Synth_gen.cores;
        hub_fraction = 0.1;
        pipeline_count = cores / 16;
        max_bw_mbps = 1600.0;
        tight_latency = 20;
      }
  in
  let st = Random.State.make [| seed; 0xBA1 |] in
  let perm = Array.init cores Fun.id in
  for i = cores - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let of_core = Array.make cores 0 in
  Array.iteri (fun pos core -> of_core.(core) <- pos mod islands) perm;
  let vi =
    Noc_spec.Vi.make ~islands ~of_core
      ~shutdownable:(Array.init islands (fun i -> i > 0))
      ()
  in
  sweep pipelined soc vi

(* (input, result digest, routes MD5) *)
let fixture =
  [
    ("d12", (fun () -> bench "d12"),
      "ef62ae6d0345edd2da8b1d2315a04508",
      "da2b5583e1670fb38d002852d1579394" );
    ("d16", (fun () -> bench "d16"),
      "3b0b681b18eed1e2ce6d8771a25460a6",
      "ad4e758a73b8ac8a5d7af225bd925acd" );
    ("d20", (fun () -> bench "d20"),
      "2d892108626ec6f904e968590ad65a45",
      "10a05416173894132ed94f65b4bf14a0" );
    ("d26", (fun () -> bench "d26"),
      "9e2fc7309073df784289e852cb9711c7",
      "7c3d3f95aec04c03c350aa9e69e5f903" );
    ("d36", (fun () -> bench "d36"),
      "6288e6eb0bcd49ec733ab9ae8955558f",
      "657007fa04059adc35a2106f943694e1" );
    ("d48", (fun () -> bench "d48"),
      "e61fe78cdac5c2315c0e49c63f85ff85",
      "ced10d38458691161f4c1a50e7249bea" );
    ("d26 protected", (fun () -> bench ~protect:true "d26"),
      "46cf269e8042eda18da9830e1f26630d",
      "0cb2c760a518e14b09f6ed013a351cd4" );
    ("gen32 seed 1 pipelined", (fun () -> generated ~cores:32 1),
      "6dec7cb82488f2fc0bf4f4c26a788f7d",
      "0b3805d3c9bc83c6220068674a393857" );
    ("gen32 seed 2 pipelined", (fun () -> generated ~cores:32 2),
      "871b080592b70ffc3eaea6e4201ae08b",
      "44bfee07fa993ae77457be198d95e7b4" );
    ("gen32 seed 3 pipelined", (fun () -> generated ~cores:32 3),
      "41b60f1b691151846eb6f7f961bcad18",
      "e902adabc9b2d271c0ea74cb3d53e808" );
    ("gen64 seed 1 pipelined", (fun () -> generated ~cores:64 1),
      "40d418f8cf5bcc1e9c952e3ab723800b",
      "3b6aa85317ebfd18578919e49f8a3264" );
    ("d48 protected", (fun () -> bench ~protect:true "d48"),
      "29bafa5f0a97a620a77ebbdfde15e492",
      "eff624da622c9683c7cef47d71faa6c7" );
    ("gen96 8-island seed 26 pipelined",
      (fun () -> balanced ~cores:96 ~islands:8 26),
      "df36ba53326334af0cda075a2b1a8a57",
      "e12d10a9d7c2e9fcdab442fed6916dde" );
  ]

let test_golden (_, run, digest, routes) () =
  let got_digest, got_routes = run () in
  Alcotest.(check string) "result digest" digest got_digest;
  Alcotest.(check string) "routes md5" routes got_routes

(* Scenario selection pinned the same way: [Synth.run_scenarios] on each
   paper benchmark with its own scenario set, from cleared tables on one
   domain.  The signature holds the bits of the weighted power and the
   union baseline, the winner's index in [union.points], and per
   evaluation (canonical order) its power's bits, its active and parked
   flow counts and whether it verified.  Computed before scoring was
   split into a prepared set and one pass per point. *)
let selection_signature (sr : Synth.scenarios_result) =
  let rec index i = function
    | [] -> -1
    | p :: rest -> if p == sr.Synth.best then i else index (i + 1) rest
  in
  String.concat "; "
    (Printf.sprintf "weighted %Lx baseline %Lx best #%d"
       (Int64.bits_of_float sr.Synth.weighted_power_mw)
       (Int64.bits_of_float sr.Synth.union_baseline_mw)
       (index 0 sr.Synth.union.Synth.points)
    :: List.map
         (fun (e : Synth.scenario_eval) ->
           Printf.sprintf "%s %Lx %d/%d %s" e.Synth.scenario.Noc_spec.Scenario.name
             (Int64.bits_of_float e.Synth.power_mw)
             e.Synth.active_flows e.Synth.parked_flows
             (if Result.is_ok e.Synth.verified then "verified" else "FAILED"))
         sr.Synth.evals)

let selection name =
  let case = Bench_case.find name in
  Noc_cache.Memo.clear_all ();
  let options = { Synth.Options.default with Synth.Options.domains = Some 1 } in
  selection_signature
    (Synth.run_scenarios ~options Config.default case.Bench_case.soc
       case.Bench_case.default_vi ~scenarios:case.Bench_case.scenarios)

let selection_fixture =
  [
    ( "d12",
      String.concat "; "
        [
          "weighted 4087ca82f0235877 baseline 4087ca82f0235877 best #0";
          "live_tv 408f9139fc44c9bf 23/5 verified";
          "recording 40872ccda7e32471 15/13 verified";
          "standby 407db922ee7f3218 3/25 verified";
        ] );
    ( "d16",
      String.concat "; "
        [
          "weighted 408d3b096fc15b91 baseline 408d3b096fc15b91 best #0";
          "radio_mode 40840c68c6a0d589 9/27 verified";
          "single_channel 4095d576dfbefba1 29/7 verified";
          "standby 4080265d6076680a 3/33 verified";
        ] );
    ( "d20",
      String.concat "; "
        [
          "weighted 40929377aec4b71c baseline 40929377aec4b71c best #0";
          "half_load 409451134f2bf726 36/19 verified";
          "low_traffic 408f766f89122f2a 22/33 verified";
          "maintenance 407fabd00e47fbc4 7/48 verified";
        ] );
    ( "d26",
      String.concat "; "
        [
          "weighted 40954ce0c8b02627 baseline 40954ce0c8b02627 best #9";
          "camera_record 4095a87ac4b97859 19/49 verified";
          "full_load 40a481faa13f022f 68/0 verified";
          "idle_audio 408716255308d5b9 3/65 verified";
          "phone_call 408b17bd20e81dcf 10/58 verified";
          "video_playback 409be142bca2f06c 26/42 verified";
        ] );
    ( "d36",
      String.concat "; "
        [
          "weighted 40993aca3f4fea79 baseline 40993aca3f4fea79 best #0";
          "browsing 40a3bc61221f054a 37/50 verified";
          "music_screen_off 40848959a5217604 11/76 verified";
          "screen_off_idle 408ad75f9535d1de 8/79 verified";
          "video_call 40a3027a12c6012f 42/45 verified";
        ] );
    ( "d48",
      String.concat "; "
        [
          "weighted 40ab720b637cf281 baseline 40ab720b637cf281 best #25";
          "daytime 40ae266145be372c 120/21 verified";
          "maintenance 4096b91081d7d616 25/116 verified";
          "night_low 40a724d708e77ecd 81/60 verified";
          "peak 40b0caee03121ac4 141/0 verified";
        ] );
  ]

let test_selection (name, expected) () =
  Alcotest.(check string) "selection signature" expected (selection name)

let () =
  Alcotest.run "noc_golden"
    [
      ( "golden",
        List.map
          (fun ((name, _, _, _) as entry) ->
            Alcotest.test_case name `Quick (test_golden entry))
          fixture );
      ( "scenario selection",
        List.map
          (fun ((name, _) as entry) ->
            Alcotest.test_case name `Quick (test_selection entry))
          selection_fixture );
    ]
