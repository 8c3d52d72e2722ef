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
   with protection (the backup-route path), and generated 4-island SoCs
   with link pipelining on — at 32 cores no link needs a register stage,
   at 64 some do, which puts non-zero stages into the hop memo's tags.
   Every sweep starts from cleared process-wide tables and runs on one
   domain. *)

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

let generated ~cores seed =
  let soc = Synth_gen.generate ~seed { Synth_gen.default_profile with cores } in
  let vi = Synth_gen.random_vi ~seed ~islands:4 soc in
  sweep { Config.default with Config.allow_link_pipelining = true } soc vi

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
  ]

let test_golden (_, run, digest, routes) () =
  let got_digest, got_routes = run () in
  Alcotest.(check string) "result digest" digest got_digest;
  Alcotest.(check string) "routes md5" routes got_routes

let () =
  Alcotest.run "noc_golden"
    [
      ( "golden",
        List.map
          (fun ((name, _, _, _) as entry) ->
            Alcotest.test_case name `Quick (test_golden entry))
          fixture );
    ]
