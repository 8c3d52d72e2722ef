(* Every input a run uses, made from the run's seed alone.  The same seed
   gives the same inputs; the program under test sees only these values. *)

module Config = Noc_synthesis.Config
module Bench_case = Noc_benchmarks.Bench_case
module Synth_gen = Noc_benchmarks.Synth_gen
module Soc_spec = Noc_spec.Soc_spec
module Vi = Noc_spec.Vi
module Flow = Noc_spec.Flow
module Delta = Noc_spec.Delta
module Scenario = Noc_spec.Scenario
module Spec_io = Noc_spec.Spec_io

type sweep_input = {
  name : string;
  config : Config.t;
  soc : Soc_spec.t;
  vi : Vi.t;
  scenarios : Scenario.t list option;
      (** [Some] selects through [Synth.run_scenarios] (the [noc_synth
          scenarios] path), [None] runs the plain [Synth.run] sweep *)
}

type edit = { delta : Delta.t; clean : bool }

type serve_spec = {
  label : string;
  request : Noc_exec.Json.t;  (** the [synth] request document *)
  line : string;  (** [request], rendered once *)
  spec_text : string option;  (** the inline bundle, for generated specs *)
  soc : Soc_spec.t;
  vi : Vi.t;
}

type t = {
  seed : int;
  paper : sweep_input list;
  scale : sweep_input list;
  failing : sweep_input;
  edit_base : Soc_spec.t * Vi.t;
  edits : edit list;
  serve : serve_spec list;
  warm_order : int array;  (** indices into [serve], one per warm request *)
}

(* Counts fixed for every seed, so every round attempts the same
   operations whatever the inputs. *)
let scale_sizes = [ (64, 3); (96, 3) ]  (* (cores, SoCs) *)
let serve_generated = 10
let serve_cores = 24
let serve_islands = 4
let edit_count = 24
let warm_requests = 4000

let pipelined = { Config.default with Config.allow_link_pipelining = true }

let rng seed tag = Random.State.make [| seed; tag |]

(* The generated SoCs come from [Synth_gen] seeds 1..64; a run's seed
   picks which ones.  Every pool entry, at every size used below, was
   checked to have a feasible sweep ([perfbench --check-inputs]): a few
   random SoCs in a hundred have none, and a run must not fail on some
   seeds only. *)
let pool = 64

(* [n] distinct pool entries, in a seeded order. *)
let from_pool st n =
  let a = Array.init pool (fun i -> i + 1) in
  for i = pool - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 n)

let paper =
  List.map
    (fun (c : Bench_case.t) ->
      {
        name = c.Bench_case.name;
        config = Config.default;
        soc = c.Bench_case.soc;
        vi = c.Bench_case.default_vi;
        scenarios = Some c.Bench_case.scenarios;
      })
    Bench_case.all

(* d128 under the paper's unpipelined links: every saved point misses
   single-cycle timing, so the scenario selection raises
   [No_feasible_design].  Seed-independent on purpose. *)
let failing =
  let d128 = Bench_case.find "d128" in
  {
    name = "d128-unpipelined";
    config = Config.default;
    soc = d128.Bench_case.soc;
    vi = d128.Bench_case.default_vi;
    scenarios = Some d128.Bench_case.scenarios;
  }

(* Same shape as the d128 recipe: hubs, pipelines, roomy budgets. *)
let gen_profile cores =
  {
    Synth_gen.cores;
    hub_fraction = 0.1;
    pipeline_count = cores / 16;
    max_bw_mbps = 1600.0;
    tight_latency = 20;
  }

(* A random island map with equal-sized islands (island 0 always-on, as
   in [Synth_gen.random_vi]): the sweep's candidate count then depends on
   the island count alone, so one seed's set costs about what another's
   does. *)
let balanced_vi ~seed ~islands cores =
  let st = rng seed 0xBA1 in
  let perm = Array.init cores Fun.id in
  for i = cores - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let of_core = Array.make cores 0 in
  Array.iteri (fun pos core -> of_core.(core) <- pos mod islands) perm;
  Vi.make ~islands ~of_core ~shutdownable:(Array.init islands (fun i -> i > 0)) ()

let generated ~seed ~cores ~islands name =
  let soc =
    { (Synth_gen.generate ~seed (gen_profile cores)) with Soc_spec.name = name }
  in
  (soc, balanced_vi ~seed ~islands cores)

let scale_islands cores = cores / 12

let scale seed =
  let d128 = Bench_case.find "d128" in
  let st = rng seed 0x5CA1E in
  {
    name = "d128";
    config = pipelined;
    soc = d128.Bench_case.soc;
    vi = d128.Bench_case.default_vi;
    scenarios = None;
  }
  :: List.concat_map
       (fun (cores, n) ->
         List.map
           (fun g ->
             let name = Printf.sprintf "gen%d-s%d" cores g in
             let soc, vi =
               generated ~seed:g ~cores ~islands:(scale_islands cores) name
             in
             { name; config = pipelined; soc; vi; scenarios = None })
           (from_pool st n))
       scale_sizes

(* ---------- the edit session ---------- *)

let pick st l = List.nth l (Random.State.int st (List.length l))

(* One slot per edit: half synthesis-clean, half dirty, in a fixed order
   so every seed runs the same mix of kinds.  Each dirty edit is undone by
   the next dirty one, which keeps the spec near d48 all session long. *)
type kind = [ `Always_on | `Core_freq | `Bandwidth | `Latency | `Remove | `Move ]

let schedule : [ kind | `Undo ] array =
  [|
    `Always_on; `Bandwidth; `Core_freq; `Undo; `Always_on; `Remove;
    `Core_freq; `Undo; `Always_on; `Latency; `Core_freq; `Undo;
    `Always_on; `Move; `Core_freq; `Undo;
  |]

(* A delta of the given kind and the one that undoes it. *)
let draw st (soc, vi) (kind : kind) =
  let flows = soc.Soc_spec.flows in
  let cores = Soc_spec.core_count soc in
  match kind with
  | `Always_on ->
    let island = Random.State.int st vi.Vi.islands in
    (Delta.Set_always_on { island; always_on = vi.Vi.shutdownable.(island) }, None)
  | `Core_freq ->
    ( Delta.Set_core_freq
        {
          core = Random.State.int st cores;
          freq_mhz = 100.0 +. Float.round (Random.State.float st 700.0);
        },
      None )
  | `Bandwidth ->
    let f = pick st flows in
    let set bandwidth_mbps =
      Delta.Set_flow_bandwidth { src = f.Flow.src; dst = f.Flow.dst; bandwidth_mbps }
    in
    ( set (f.Flow.bandwidth_mbps *. (0.6 +. Random.State.float st 0.35)),
      Some (set f.Flow.bandwidth_mbps) )
  | `Latency ->
    let f = pick st flows in
    let set max_latency_cycles =
      Delta.Set_flow_latency { src = f.Flow.src; dst = f.Flow.dst; max_latency_cycles }
    in
    ( set (f.Flow.max_latency_cycles + 1 + Random.State.int st 4),
      Some (set f.Flow.max_latency_cycles) )
  | `Remove ->
    let f = pick st flows in
    (Delta.Remove_flow { src = f.Flow.src; dst = f.Flow.dst }, Some (Delta.Add_flow f))
  | `Move ->
    let core = Random.State.int st cores in
    let home = vi.Vi.of_core.(core) in
    let island = (home + 1 + Random.State.int st (vi.Vi.islands - 1)) mod vi.Vi.islands in
    (Delta.Move_core { core; island }, Some (Delta.Move_core { core; island = home }))

(* Deltas that do not apply to the current spec are redrawn. *)
let edit_chain seed =
  let case = Bench_case.find "d48" in
  let base = (case.Bench_case.soc, case.Bench_case.default_vi) in
  let st = rng seed 0xED17 in
  let rec go i spec undo acc =
    if i = edit_count then List.rev acc
    else begin
      let delta, spec', undo =
        match (schedule.(i mod Array.length schedule), undo) with
        | `Undo, Some d -> (d, Delta.apply spec d, None)
        | `Undo, None -> invalid_arg "edit schedule: nothing to undo"
        | (#kind as kind), _ ->
          let rec attempt tries =
            if tries = 0 then failwith "edit generator: no applicable delta"
            else
              let delta, undo' = draw st spec kind in
              match Delta.apply spec delta with
              | spec' -> (delta, spec', if undo' = None then undo else undo')
              | exception Invalid_argument _ -> attempt (tries - 1)
          in
          attempt 100
      in
      let clean = Delta.dirty_of spec delta = Delta.clean in
      go (i + 1) spec' undo ({ delta; clean } :: acc)
    end
  in
  (base, go 0 base None [])

(* ---------- the serve mix ---------- *)

let synth_request fields =
  Noc_exec.Json.document ~kind:"serve_request"
    (("op", Noc_exec.Json.String "synth") :: fields)

let serve_set seed =
  let st = rng seed 0x5E7E in
  let by_name =
    List.map
      (fun (c : Bench_case.t) ->
        let request =
          synth_request [ ("benchmark", Noc_exec.Json.String c.Bench_case.name) ]
        in
        {
          label = c.Bench_case.name;
          request;
          line = Noc_exec.Json.to_string request;
          spec_text = None;
          soc = c.Bench_case.soc;
          vi = c.Bench_case.default_vi;
        })
      Bench_case.all
  in
  let inline =
    List.map
      (fun g ->
        let label = Printf.sprintf "bundle-s%d" g in
        let soc, vi =
          generated ~seed:g ~cores:serve_cores ~islands:serve_islands label
        in
        let text = Spec_io.to_string { Spec_io.soc; vi = Some vi; scenarios = [] } in
        let request = synth_request [ ("spec", Noc_exec.Json.String text) ] in
        {
          label;
          request;
          line = Noc_exec.Json.to_string request;
          spec_text = Some text;
          soc;
          vi;
        })
      (from_pool st serve_generated)
  in
  by_name @ inline

(* Each spec equally often, in a seeded order. *)
let warm_order seed n =
  let st = rng seed 0x3A23 in
  let a = Array.init warm_requests (fun i -> i mod n) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let make seed =
  let edit_base, edits = edit_chain seed in
  let serve = serve_set seed in
  {
    seed;
    paper;
    scale = scale seed;
    failing;
    edit_base;
    edits;
    serve;
    warm_order = warm_order seed (List.length serve);
  }
