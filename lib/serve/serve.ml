module Json = Noc_exec.Json
module Metrics = Noc_exec.Metrics
module Cancel = Noc_exec.Cancel
module Bqueue = Noc_exec.Bqueue
module Memo = Noc_cache.Memo
module Store = Noc_cache.Store
module Synth = Noc_synthesis.Synth
module Config = Noc_synthesis.Config
module DP = Noc_synthesis.Design_point
module Power = Noc_models.Power
module Delta = Noc_spec.Delta
module Spec_io = Noc_spec.Spec_io
module Scenario = Noc_spec.Scenario
module Vi = Noc_spec.Vi
module Soc_spec = Noc_spec.Soc_spec
module Bench_case = Noc_benchmarks.Bench_case
module Kway = Noc_partition.Kway
module Placer = Noc_floorplan.Placer

let log_src = Logs.Src.create "noc.serve" ~doc:"NoC synthesis daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

let schema_request = "serve_request"
let schema_response = "serve_response"

(* ---------- result codec ---------- *)

module Codec = struct
  let tag = "synth-result-v1"

  let encode (r : Synth.result) = Marshal.to_string r []

  let decode s =
    match (Marshal.from_string s 0 : Synth.result) with
    | r -> Some r
    | exception _ -> None

  (* The digest is taken over a canonical projection, not the marshaled
     bytes: hashtable layouts inside a Topology depend on insertion
     history, so two structurally-identical results need not marshal
     identically, but their signatures do. *)
  let signature (r : Synth.result) =
    ( List.map
        (fun p ->
          ( Power.total_mw p.DP.power,
            p.DP.avg_latency_cycles,
            p.DP.switch_count,
            p.DP.indirect_count,
            p.DP.link_count,
            p.DP.crossing_count,
            p.DP.total_wire_mm ))
        r.Synth.points,
      r.Synth.candidates_tried,
      r.Synth.candidates_feasible,
      r.Synth.candidates_recovered )

  let result_digest r = Digest.to_hex (Memo.digest (signature r))
end

(* ---------- configuration and state ---------- *)

type config = {
  socket_path : string;
  store_dir : string option;
  synth_config : Config.t;
  options : Synth.Options.t;
  max_requests : int option;
  workers : int;
  queue_capacity : int;
  drain_ms : int;
  retry_after_ms : int;
  handle_signals : bool;
}

let default_config ~socket_path =
  {
    socket_path;
    store_dir = None;
    synth_config = Config.default;
    options = Synth.Options.default;
    max_requests = None;
    workers = 4;
    queue_capacity = 16;
    drain_ms = 5_000;
    retry_after_ms = 50;
    handle_signals = false;
  }

(* A result as the daemon holds it: the decoded sweep plus the answer
   fields every response about it carries, rendered once when the entry
   is made (computed, promoted from the store, or aliased), so a repeat
   costs no digest, no best-point search and no float printing. *)
type entry = { result : Synth.result; answer : (string * Json.t) list }

type state = {
  config : config;
  store : Store.t option;
  results : (string, entry) Memo.t;
      (* decoded-result read cache over the store: a repeat answered from
         here skips the disk read and the Marshal decode (milliseconds
         for a large sweep); the store below it is what survives
         restarts.  Daemon-scoped — [run] unregisters it on shutdown. *)
  started_ns : int64;
  requests : int Atomic.t;
  in_flight : int Atomic.t;
  stopping : bool Atomic.t;
  force_closing : bool Atomic.t;
  mutable queue_depth : unit -> int;
      (* wired to the live accept queue by [run]; 0 for socketless states *)
  tokens : (int, Cancel.t) Hashtbl.t;
      (* cancellation tokens of in-flight synth/rerun requests, so drain
         can cancel them all; guarded by [tokens_mutex] *)
  tokens_mutex : Mutex.t;
  next_token : int Atomic.t;
}

let create_state config =
  let store = Option.map (Store.open_store ~tag:Codec.tag) config.store_dir in
  (* startup hygiene: sweep temp files orphaned by a previous writer
     killed between write and rename (counted under store.tmp_gc) *)
  (match store with
  | Some store ->
    let swept = Store.gc_tmp store in
    if swept > 0 then
      Log.info (fun m -> m "swept %d orphaned store temp file(s)" swept)
  | None -> ());
  {
    config;
    store;
    results = Memo.create "serve.results";
    started_ns = Metrics.now_ns ();
    requests = Atomic.make 0;
    in_flight = Atomic.make 0;
    stopping = Atomic.make false;
    force_closing = Atomic.make false;
    queue_depth = (fun () -> 0);
    tokens = Hashtbl.create 16;
    tokens_mutex = Mutex.create ();
    next_token = Atomic.make 0;
  }

let register_token state token =
  let id = Atomic.fetch_and_add state.next_token 1 in
  Mutex.lock state.tokens_mutex;
  Hashtbl.replace state.tokens id token;
  Mutex.unlock state.tokens_mutex;
  id

let unregister_token state id =
  Mutex.lock state.tokens_mutex;
  Hashtbl.remove state.tokens id;
  Mutex.unlock state.tokens_mutex

let cancel_live_tokens state =
  Mutex.lock state.tokens_mutex;
  Hashtbl.iter (fun _ token -> Cancel.cancel token) state.tokens;
  Mutex.unlock state.tokens_mutex

(* ---------- request parsing ---------- *)

exception Bad_request of string

let bad_request fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let field key json = Json.member key json

let string_field ?default key json =
  match field key json with
  | Some (Json.String s) -> Some s
  | Some _ -> bad_request "field %S must be a string" key
  | None -> default

let int_field ~default key json =
  match field key json with
  | Some (Json.Int i) -> i
  | Some _ -> bad_request "field %S must be an integer" key
  | None -> default

let float_field ~default key json =
  match field key json with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | Some _ -> bad_request "field %S must be a number" key
  | None -> default

let bool_field ~default key json =
  match field key json with
  | Some (Json.Bool b) -> b
  | Some _ -> bad_request "field %S must be a boolean" key
  | None -> default

(* ---------- spec resolution (mirrors the CLI's --benchmark/--spec) ---------- *)

type spec_ref = Spec_text of string | Benchmark of string

(* A request's spec source: the fields that select its spec and every
   request field its key digests.  A connection's table maps it to the
   resolved spec and key, so a repeat on that connection hashes the
   source once and parses and marshals nothing.  It keys on the spec
   text itself: hashing and comparing 5 KB of text costs less than
   digesting it. *)
type spec_source = {
  spec : spec_ref;
  islands : int;
  comm : bool;
  seed : int option;
  alpha : float;
  protect : bool;
}

type resolved = {
  soc : Soc_spec.t;
  vi : Vi.t;
  scenarios : Scenario.t list;
  key : string;
}

let spec_source state request =
  let spec =
    match string_field "spec" request with
    | Some text -> Spec_text text
    | None ->
      (match string_field "benchmark" request with
      | Some name -> Benchmark name
      | None -> bad_request "request needs a \"benchmark\" or \"spec\" field")
  in
  {
    spec;
    islands = int_field ~default:0 "islands" request;
    comm = bool_field ~default:false "comm" request;
    seed =
      (match field "seed" request with
      | None -> None
      | Some (Json.Int seed) -> Some seed
      | Some _ -> bad_request "field \"seed\" must be an integer");
    alpha =
      float_field ~default:state.config.synth_config.Config.alpha "alpha" request;
    protect =
      bool_field ~default:state.config.options.Synth.Options.protect "protect"
        request;
  }

let request_options ?cancel state source =
  let base = state.config.options in
  {
    base with
    Synth.Options.seed = Option.value source.seed ~default:base.Synth.Options.seed;
    protect = source.protect;
    cancel = Option.value cancel ~default:base.Synth.Options.cancel;
  }

let request_config state source =
  { state.config.synth_config with Config.alpha = source.alpha }

(* The store key digests the request's full input: everything that can
   change the sweep result.  [domains], [cache] and [routing] are
   deliberately absent (results are identical for any value —
   synth.mli), and [cancel] is excluded because a cancelled run never
   produces a result to store. *)
let request_key config (o : Synth.Options.t) soc vi =
  Digest.to_hex
    (Memo.digest
       ( config,
         soc,
         vi,
         o.Synth.Options.seed,
         o.Synth.Options.anneal,
         o.Synth.Options.assignment_strategy,
         o.Synth.Options.protect ))

let resolve state source =
  let case =
    match source.spec with
    | Spec_text text ->
      (match Spec_io.parse text with
      | Error message -> bad_request "spec: %s" message
      | Ok bundle ->
        let soc = bundle.Spec_io.soc in
        let default_vi =
          match bundle.Spec_io.vi with
          | Some vi -> vi
          | None -> Vi.single_island ~cores:(Soc_spec.core_count soc)
        in
        {
          Bench_case.name = soc.Soc_spec.name;
          soc;
          default_vi;
          scenarios = bundle.Spec_io.scenarios;
          always_on_cores = [];
        })
    | Benchmark name ->
      (match Bench_case.find name with
      | case -> case
      | exception Not_found ->
        bad_request "unknown benchmark %s (have: %s)" name
          (String.concat ", " Bench_case.names))
  in
  let islands = source.islands in
  let vi =
    if islands = 0 then case.Bench_case.default_vi
    else if source.comm then
      Noc_benchmarks.Partitions.communication_based
        ~seed:(Option.value source.seed ~default:0)
        ~islands ~always_on_cores:case.Bench_case.always_on_cores
        case.Bench_case.soc
    else if case.Bench_case.name = "d26" then
      Noc_benchmarks.D26.logical_partition ~islands
    else
      bad_request
        "logical partitionings at custom island counts exist only for d26; \
         set \"comm\": true"
  in
  let soc = case.Bench_case.soc in
  {
    soc;
    vi;
    scenarios = case.Bench_case.scenarios;
    key =
      request_key (request_config state source) (request_options state source)
        soc vi;
  }

(* A request's source and its resolved spec, through the connection's
   table. *)
let resolve_request state ~scratch request =
  let source = spec_source state request in
  (source, Memo.find_or_add scratch source (fun () -> resolve state source))

(* The scenario set a scenario request runs under: an explicit
   ["scenarios"] list in the request wins; otherwise the spec's (or
   benchmark's) declared set. *)
let request_scenarios ~cores ~default request =
  match field "scenarios" request with
  | None -> default
  | Some (Json.List items) ->
    List.mapi
      (fun i item ->
        match Scenario.of_json ~cores item with
        | Ok s -> s
        | Error e ->
          bad_request "scenarios[%d]: %s" i (Scenario.error_to_string e))
      items
  | Some _ -> bad_request "field \"scenarios\" must be a list"

(* A scenario request's key extends the union key with the scenario-set
   digest (Scenario.digest: canonical order, exact duty bits).  The
   stored artifact is the scenario-independent union sweep, so the
   scenario key is an alias of the plain key — but keying on the digest
   means a repeat of the same (spec, scenario set) pair warm-hits in one
   lookup, and a scenario edit naturally misses to the plain-key alias
   path instead of evicting anything. *)
let scenario_request_key union_key scenarios =
  Digest.to_hex (Memo.digest (union_key, Scenario.digest scenarios))

(* ---------- responses ---------- *)

let respond fields = Json.document ~kind:schema_response fields

(* Machine-readable error taxonomy (docs/FORMAT.md): every error
   response carries a [code] so clients can branch without parsing
   messages — [bad_request], [too_large], [infeasible], [timeout],
   [overloaded], [cancelled], [internal]. *)
let error_response ?(code = "internal") ?(extra = []) msg =
  respond
    ([
       ("status", Json.String "error");
       ("code", Json.String code);
       ("error", Json.String msg);
     ]
    @ extra)

let error_response_of_exn e =
  let code, message =
    match e with
    | Bad_request msg -> ("bad_request", msg)
    | Synth.No_feasible_design msg -> ("infeasible", "no feasible design: " ^ msg)
    | Noc_synthesis.Freq_assign.Infeasible msg ->
      ("infeasible", "frequency assignment infeasible: " ^ msg)
    | Kway.Partition_error msg -> ("infeasible", "partitioning failed: " ^ msg)
    | Placer.Invalid_plan msg -> ("infeasible", "floorplan check failed: " ^ msg)
    | Cancel.Cancelled -> ("cancelled", "request cancelled")
    | Invalid_argument msg -> ("bad_request", "invalid argument: " ^ msg)
    | Failure msg -> ("internal", msg)
    | Sys_error msg -> ("internal", msg)
    | e -> ("internal", "internal error: " ^ Printexc.to_string e)
  in
  error_response ~code message

let overloaded_response config =
  error_response ~code:"overloaded"
    ~extra:[ ("retry_after_ms", Json.Int config.retry_after_ms) ]
    "daemon overloaded: pending-connection queue is full"

let shutting_down_response () =
  error_response ~code:"cancelled" "daemon shutting down"

let point_json p =
  Json.Obj
    [
      ("power_mw", Json.Float (Power.total_mw p.DP.power));
      ("avg_latency_cycles", Json.Float p.DP.avg_latency_cycles);
      ("switches", Json.Int p.DP.switch_count);
      ("indirect", Json.Int p.DP.indirect_count);
      ("links", Json.Int p.DP.link_count);
      ("crossings", Json.Int p.DP.crossing_count);
    ]

(* The one renderer of a result's answer fields: each value is printed
   here, once per entry, and spliced verbatim into every answer. *)
let entry (r : Synth.result) =
  {
    result = r;
    answer =
      List.map
        (fun (name, value) -> (name, Json.Raw (Json.to_string value)))
        [
          ("result_digest", Json.String (Codec.result_digest r));
          ("candidates_tried", Json.Int r.Synth.candidates_tried);
          ("candidates_feasible", Json.Int r.Synth.candidates_feasible);
          ("candidates_recovered", Json.Int r.Synth.candidates_recovered);
          ("points", Json.Int (List.length r.Synth.points));
          ("best_power", point_json (Synth.best_power r));
          ("best_latency", point_json (Synth.best_latency r));
        ];
  }

let result_fields ~key ~source e =
  ("status", Json.String "ok")
  :: ("source", Json.String source)
  :: ("key", Json.String key)
  :: e.answer

(* ---------- deadlines and cancellation ---------- *)

(* An error document that answers the request, raised out of the op that
   made it; [handle_line] sends it as the response. *)
exception Answered of Json.t

(* A synth/rerun/scenarios request's [deadline_ms], checked whether or
   not the answer needs synthesis. *)
let deadline_of request =
  match field "deadline_ms" request with
  | Some (Json.Int ms) when ms > 0 -> Some ms
  | Some (Json.Int _) -> bad_request "field \"deadline_ms\" must be positive"
  | Some _ -> bad_request "field \"deadline_ms\" must be an integer"
  | None -> None

(* Run a synthesis under a per-request cancellation token: the
   request's [deadline_ms] arms a monotonic deadline, and the token is
   registered so a draining daemon can cancel it.  [Synth.run] checks
   the token once per candidate, so a firing deadline surfaces here as
   [Cancel.Cancelled] within one candidate's evaluation time — answered
   as a typed [timeout] (or [cancelled], if the daemon cancelled it)
   instead of running forever.  Answers from the memo or the store
   never take a token. *)
let with_cancellation state ~deadline_ms f =
  let token =
    match deadline_ms with
    | Some ms -> Cancel.with_timeout_ms ms
    | None -> Cancel.create ()
  in
  if Atomic.get state.force_closing then Cancel.cancel token;
  let id = register_token state token in
  Fun.protect
    ~finally:(fun () -> unregister_token state id)
    (fun () ->
      match f token with
      | v -> v
      | exception Cancel.Cancelled ->
        if Cancel.deadline_exceeded token then begin
          Metrics.incr "serve.timeouts";
          let ms = Option.value deadline_ms ~default:0 in
          raise
            (Answered
               (error_response ~code:"timeout"
                  ~extra:[ ("deadline_ms", Json.Int ms) ]
                  (Printf.sprintf "deadline of %d ms exceeded" ms)))
        end
        else begin
          Metrics.incr "serve.cancelled";
          raise
            (Answered
               (error_response ~code:"cancelled"
                  "request cancelled by daemon drain"))
        end)

(* ---------- ops ---------- *)

let store_find state key =
  match state.store with
  | None -> None
  | Some store ->
    (match Store.find store key with
    | None -> None
    | Some payload ->
      (match Codec.decode payload with
      | Some r -> Some (entry r)
      | None ->
        (* namespace and checksum both passed but the payload does not
           decode: drop the entry rather than serving garbage *)
        ignore (Store.remove store key);
        Metrics.incr "store.corrupt";
        None))

let store_add state key e =
  match state.store with
  | None -> ()
  | Some store -> Store.add store key (Codec.encode e.result)

let remember state key e =
  ignore (Memo.find_or_add state.results key (fun () -> e))

(* Look a key up through both layers: the in-process decoded cache, then
   the persistent store (promoting a disk hit into the cache). *)
let cached state key =
  match Memo.find_opt state.results key with
  | Some e -> Some ("memo", e)
  | None ->
    (match store_find state key with
    | Some e ->
      remember state key e;
      Some ("store", e)
    | None -> None)

let count_answer source =
  Metrics.incr
    (match source with
    | "memo" -> "serve.memo_answers"
    | "store" -> "serve.store_answers"
    | _ -> "serve.computed_answers")

(* Answer [key] from the memo or the store, or run [compute] and
   persist its result; [source] tells the caller which happened.  A
   timeout or drain escaping [compute] (as [Answered]) propagates before
   any store/memo write, so cancelled work never pollutes either layer. *)
let answer state ~key compute =
  match cached state key with
  | Some (source, e) ->
    count_answer source;
    (source, e)
  | None ->
    count_answer "computed";
    let e = entry (compute ()) in
    store_add state key e;
    remember state key e;
    ("computed", e)

(* The sweep a request runs when no layer holds its key. *)
let sweep state ~deadline_ms src soc vi () =
  with_cancellation state ~deadline_ms (fun token ->
      Synth.run
        ~options:(request_options ~cancel:token state src)
        (request_config state src) soc vi)

let op_synth state ~scratch request =
  let src, spec = resolve_request state ~scratch request in
  let deadline_ms = deadline_of request in
  let source, e =
    answer state ~key:spec.key (sweep state ~deadline_ms src spec.soc spec.vi)
  in
  respond (result_fields ~key:spec.key ~source e)

let deltas_of request =
  match field "deltas" request with
  | Some (Json.List items) ->
    List.mapi
      (fun i item ->
        match Delta.of_json item with
        | Ok d -> d
        | Error msg -> bad_request "deltas[%d]: %s" i msg)
      items
  | Some _ -> bad_request "field \"deltas\" must be a list"
  | None -> bad_request "rerun request needs a \"deltas\" field"

let op_rerun state ~scratch request =
  let src, spec = resolve_request state ~scratch request in
  let soc = spec.soc and vi = spec.vi in
  let delta = deltas_of request in
  if List.exists Delta.is_scenario_delta delta then
    bad_request
      "scenario deltas edit the scenario set, not the spec; apply them \
       client-side and resend the edited set to op \"scenarios\" (the union \
       sweep stays cached)";
  let deadline_ms = deadline_of request in
  let base_key = spec.key in
  let (soc', vi'), dirty = Delta.dirty_chain (soc, vi) delta in
  let edited_key =
    request_key (request_config state src) (request_options state src) soc' vi'
  in
  let reply (source, e) = respond (result_fields ~key:edited_key ~source e) in
  if dirty = Delta.clean then (
    match cached state edited_key with
    | Some (source, e) ->
      count_answer source;
      reply (source, e)
    | None ->
      (* no synthesis stage reads the edited fields, so the base result
         is the edited spec's result (the bit-identity property of
         Synth.rerun, test/test_delta.ml); alias it, rendering and all,
         under the edited key, leaving the base entry live *)
      (match cached state base_key with
      | Some (source, e) ->
        Metrics.incr "serve.alias_answers";
        count_answer source;
        store_add state edited_key e;
        remember state edited_key e;
        reply (source, e)
      | None ->
        reply
          (answer state ~key:edited_key (sweep state ~deadline_ms src soc' vi'))))
  else begin
    (* the base entry seeds the incremental rerun, so fetch it before
       evicting; a dirty chain supersedes the base spec, and exactly
       that one entry — result and rendering — is dropped (per-delta-kind
       dirty sets; content addressing keeps every other entry valid by
       construction) *)
    let prev = Option.map (fun (_, e) -> e.result) (cached state base_key) in
    (match state.store with
    | Some store ->
      if Store.remove store base_key then
        Metrics.incr "serve.superseded_evictions"
    | None -> ());
    ignore (Memo.remove state.results base_key);
    reply
      (answer state ~key:edited_key (fun () ->
           with_cancellation state ~deadline_ms (fun token ->
               let options = request_options ~cancel:token state src in
               let config = request_config state src in
               let prev =
                 match prev with
                 | Some prev -> prev
                 | None -> Synth.run ~options config soc vi
               in
               (* rerun evicts the stale in-memory memo entries from the
                  dirty sets, then re-solves incrementally; bit-identical
                  to a fresh run on the edited spec *)
               snd (Synth.rerun ~options ~prev ~delta config soc vi))))
  end

(* ---------- the scenarios op (schema_version 2) ---------- *)

let scenario_eval_json (e : Synth.scenario_eval) =
  Json.Obj
    [
      ("name", Json.String e.Synth.scenario.Scenario.name);
      ("duty", Json.Float e.Synth.scenario.Scenario.duty);
      ( "gated_islands",
        Json.List (List.map (fun i -> Json.Int i) e.Synth.gated) );
      ("active_flows", Json.Int e.Synth.active_flows);
      ("parked_flows", Json.Int e.Synth.parked_flows);
      ("power_mw", Json.Float e.Synth.power_mw);
      ("feasible", Json.Bool (Result.is_ok e.Synth.verified));
    ]

(* Multi-scenario synthesis as a service.  The expensive artifact — the
   union sweep — is exactly what op [synth] computes and stores, so the
   cache ladder has three rungs: the scenario-digest key (a repeat of
   this very request), the plain union key (same spec, different or
   first scenario set — aliased under the scenario key on the way out),
   and the cold path.  Scoring/selection (Synth.score_scenarios) is pure
   and re-runs on every answer: per-scenario verification of one point,
   milliseconds against the sweep's seconds, and never stored. *)
let op_scenarios state ~scratch request =
  let src, spec = resolve_request state ~scratch request in
  let soc = spec.soc and vi = spec.vi in
  let scenarios =
    request_scenarios ~cores:(Soc_spec.core_count soc) ~default:spec.scenarios
      request
  in
  if scenarios = [] then
    bad_request
      "scenario request needs a \"scenarios\" list (or a \"spec\"/benchmark \
       that declares scenarios)";
  let deadline_ms = deadline_of request in
  let union_key = spec.key in
  let key = scenario_request_key union_key scenarios in
  let source, union =
    match cached state key with
    | Some (source, e) ->
      count_answer source;
      (source, e)
    | None ->
      (match cached state union_key with
      | Some (source, e) ->
        Metrics.incr "serve.alias_answers";
        count_answer source;
        store_add state key e;
        remember state key e;
        (source, e)
      | None ->
        count_answer "computed";
        let e = entry (sweep state ~deadline_ms src soc vi ()) in
        store_add state union_key e;
        remember state union_key e;
        store_add state key e;
        remember state key e;
        ("computed", e))
  in
  let sr =
    Synth.score_scenarios (request_config state src) soc vi ~scenarios
      union.result
  in
  respond
    (result_fields ~key ~source union
    @ [
        ("scenario_digest", Json.String (Scenario.digest scenarios));
        ("scenarios", Json.Int (List.length sr.Synth.evals));
        ( "all_feasible",
          Json.Bool
            (List.for_all
               (fun (e : Synth.scenario_eval) -> Result.is_ok e.Synth.verified)
               sr.Synth.evals) );
        ("best_scenario_point", point_json sr.Synth.best);
        ("weighted_power_mw", Json.Float sr.Synth.weighted_power_mw);
        ("union_baseline_mw", Json.Float sr.Synth.union_baseline_mw);
        ("evals", Json.List (List.map scenario_eval_json sr.Synth.evals));
      ])

let op_metrics state =
  let metrics =
    match Json.of_string (Metrics.to_json ()) with
    | Ok doc -> doc
    | Error _ -> Json.Null
  in
  respond
    [
      ("status", Json.String "ok");
      ("requests", Json.Int (Atomic.get state.requests));
      ( "uptime_ns",
        Json.Int
          (Int64.to_int (Int64.sub (Metrics.now_ns ()) state.started_ns)) );
      (* saturation view: how deep the accept queue is, how many requests
         are executing right now, and the shed/timeout/cancel tallies *)
      ("queue_depth", Json.Int (state.queue_depth ()));
      ("in_flight", Json.Int (Atomic.get state.in_flight));
      ("shed", Json.Int (Metrics.counter_value "serve.shed"));
      ("timeouts", Json.Int (Metrics.counter_value "serve.timeouts"));
      ("cancelled", Json.Int (Metrics.counter_value "serve.cancelled"));
      ("store_entries",
       match state.store with
       | None -> Json.Null
       | Some store -> Json.Int (Store.length store));
      ("metrics", metrics);
    ]

let op_ping state =
  respond
    [
      ("status", Json.String "ok");
      ("pong", Json.Bool true);
      ("requests", Json.Int (Atomic.get state.requests));
    ]

(* ---------- dispatch ---------- *)

let handle_request state ~scratch request =
  match field "schema" request with
  | Some (Json.String s) when s = schema_request ->
    (match field "schema_version" request with
    | Some (Json.Int v) when v <= Json.schema_version ->
      (match string_field "op" request with
      | Some "ping" -> (op_ping state, `Continue)
      | Some "metrics" -> (op_metrics state, `Continue)
      | Some "synth" -> (op_synth state ~scratch request, `Continue)
      | Some "rerun" -> (op_rerun state ~scratch request, `Continue)
      | Some "scenarios" -> (op_scenarios state ~scratch request, `Continue)
      | Some "shutdown" ->
        ( respond
            [ ("status", Json.String "ok"); ("stopping", Json.Bool true) ],
          `Stop )
      | Some op ->
        ( error_response ~code:"bad_request"
            (Printf.sprintf "unknown op %S" op),
          `Continue )
      | None ->
        (error_response ~code:"bad_request" "request needs an \"op\" field",
         `Continue))
    | Some (Json.Int v) ->
      ( error_response ~code:"bad_request"
          (Printf.sprintf "unsupported schema_version %d (this daemon: %d)" v
             Json.schema_version),
        `Continue )
    | _ ->
      ( error_response ~code:"bad_request"
          "request needs an integer \"schema_version\"",
        `Continue ))
  | _ ->
    ( error_response ~code:"bad_request"
        (Printf.sprintf "request must be a %S envelope" schema_request),
      `Continue )

let handle_line state ~scratch line =
  Atomic.incr state.requests;
  Atomic.incr state.in_flight;
  Metrics.incr "serve.requests";
  let t0 = Metrics.now_ns () in
  let response, verdict =
    (* the one boundary: nothing a single request does — malformed JSON,
       an infeasible spec, a Kway/Placer invariant failure, an I/O error
       — may take the daemon down *)
    match
      match Json.of_string line with
      | Error msg -> (error_response ~code:"bad_request" msg, `Continue)
      | Ok request -> handle_request state ~scratch request
    with
    | result -> result
    | exception Answered response -> (response, `Continue)
    | exception e -> (error_response_of_exn e, `Continue)
  in
  Atomic.decr state.in_flight;
  let elapsed = Int64.sub (Metrics.now_ns ()) t0 in
  Metrics.add_ns "serve.request" elapsed;
  let response =
    match response with
    | Json.Obj fields ->
      (match List.assoc_opt "status" fields with
      | Some (Json.String "error") -> Metrics.incr "serve.errors"
      | _ -> ());
      Json.Obj (fields @ [ ("elapsed_ns", Json.Int (Int64.to_int elapsed)) ])
    | other -> other
  in
  (Json.to_string response, verdict)

(* ---------- socket loop ---------- *)

(* The longest request line the daemon reads, newline excluded.  d256's
   request line is 57.6 KB; a client that sends more without a newline is
   answered [too_large] and disconnected, so it cannot grow the daemon's
   memory without bound. *)
let max_line_bytes = 4 * 1024 * 1024

exception Line_too_large

(* A connection's read side: the bytes read but not yet consumed are
   [chunk.[lo .. hi-1]]; [pending] collects a line that spans reads. *)
type reader = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  pending : Buffer.t;
}

let reader fd =
  { fd; chunk = Bytes.create 65536; lo = 0; hi = 0; pending = Buffer.create 256 }

(* The first newline in [chunk.[i .. hi-1]], or [hi]. *)
let rec newline r i =
  if i = r.hi || Bytes.unsafe_get r.chunk i = '\n' then i else newline r (i + 1)

let take_pending r =
  let line = Buffer.contents r.pending in
  Buffer.reset r.pending;
  line

(* [read_line r] is the next line without its newline, or [None] at end
   of input.  Like [input_line], it scans the bytes already read and
   reads again only when the line runs past them; it raises
   [Line_too_large] once more than [max_line_bytes] bytes have arrived
   without a newline. *)
let rec read_line r =
  let stop = newline r r.lo in
  if Buffer.length r.pending + (stop - r.lo) > max_line_bytes then
    raise Line_too_large;
  if stop < r.hi then begin
    let line =
      if Buffer.length r.pending = 0 then
        Bytes.sub_string r.chunk r.lo (stop - r.lo)
      else begin
        Buffer.add_subbytes r.pending r.chunk r.lo (stop - r.lo);
        take_pending r
      end
    in
    r.lo <- stop + 1;
    Some line
  end
  else begin
    Buffer.add_subbytes r.pending r.chunk r.lo (stop - r.lo);
    r.lo <- 0;
    r.hi <- 0;
    match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
    | 0 -> if Buffer.length r.pending = 0 then None else Some (take_pending r)
    | n ->
      r.hi <- n;
      read_line r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
  end

(* Serve one connection's request lines.  The caller owns [fd]: this
   function flushes but never closes it, so the worker loop can
   unregister the descriptor from the drain registry before closing —
   the ordering that makes a force-drain [Unix.shutdown] race-free
   against descriptor reuse. *)
let serve_connection state fd =
  let r = reader fd in
  let oc = Unix.out_channel_of_descr fd in
  let send response =
    try
      output_string oc response;
      output_char oc '\n';
      flush oc
    with Sys_error _ -> ()
  in
  (* request-scoped scratch table: each spec source resolved once per
     connection, dropped from the registry when the connection closes *)
  let scratch = Memo.create "serve.spec_parse" in
  Fun.protect
    ~finally:(fun () -> Memo.unregister scratch)
    (fun () ->
      let rec loop () =
        if
          match state.config.max_requests with
          | Some limit -> Atomic.get state.requests >= limit
          | None -> false
        then `Stop
        else
          match read_line r with
          | None -> `Continue
          | exception (Unix.Unix_error _ | Sys_error _) -> `Continue
          | exception Line_too_large ->
            (* answered, then the connection is closed: the rest of the
               oversized line is never read *)
            Metrics.incr "serve.too_large";
            Metrics.incr "serve.errors";
            send
              (Json.to_string
                 (error_response ~code:"too_large"
                    (Printf.sprintf "request line longer than %d bytes"
                       max_line_bytes)));
            `Continue
          | Some line ->
            let response, verdict = handle_line state ~scratch line in
            send response;
            (match verdict with `Stop -> `Stop | `Continue -> loop ())
      in
      loop ())

let write_line_nonblock fd line =
  (* best-effort single write of a tiny response (an [overloaded] or
     shutting-down document, well under a socket buffer); a client too
     slow to absorb even that is dropped rather than allowed to block
     the caller *)
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  try ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1))
  with Unix.Unix_error _ | Sys_error _ -> ()

let shed state fd =
  Metrics.incr "serve.shed";
  write_line_nonblock fd (Json.to_string (overloaded_response state.config));
  try Unix.close fd with Unix.Unix_error _ -> ()

let ms_to_ns ms = Int64.mul (Int64.of_int ms) 1_000_000L

(* A peer that disconnects mid-request (chaos clients, killed CLIs)
   turns our next write into EPIPE; with SIGPIPE at its default
   disposition that is process death, not an exception.  Ignore it
   process-wide (idempotent) so writes fail as catchable [Sys_error] /
   [Unix_error] instead — done by both the daemon and the client. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then
    try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> ()

let run config =
  let state = create_state config in
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
  Unix.listen sock (max 16 config.queue_capacity);
  Unix.set_nonblock sock;
  (* self-pipe: drain triggers (shutdown op, signals, max_requests) write
     one byte here to interrupt the accept loop's select *)
  let wake_r, wake_w = Unix.pipe () in
  let queue : Unix.file_descr Bqueue.t =
    Bqueue.create ~capacity:config.queue_capacity
  in
  state.queue_depth <- (fun () -> Bqueue.length queue);
  let trigger_drain () =
    if not (Atomic.exchange state.stopping true) then begin
      Log.info (fun m -> m "drain requested");
      try ignore (Unix.write_substring wake_w "x" 0 1)
      with Unix.Unix_error _ -> ()
    end
  in
  let restore_signals =
    if not config.handle_signals then fun () -> ()
    else begin
      let install signal =
        let prev =
          Sys.signal signal (Sys.Signal_handle (fun _ -> trigger_drain ()))
        in
        fun () -> Sys.set_signal signal prev
      in
      let restores = List.map install [ Sys.sigterm; Sys.sigint ] in
      fun () -> List.iter (fun f -> f ()) restores
    end
  in
  (* connection registry: descriptors currently owned by workers, so a
     force drain can [shutdown] them to unblock reads.  A worker removes
     its descriptor (under the mutex) before closing it, so a concurrent
     shutdown can never hit a recycled descriptor number. *)
  let conns = Hashtbl.create 16 in
  let conns_mutex = Mutex.create () in
  let next_conn = Atomic.make 0 in
  let register_conn fd =
    let id = Atomic.fetch_and_add next_conn 1 in
    Mutex.lock conns_mutex;
    Hashtbl.replace conns id fd;
    Mutex.unlock conns_mutex;
    id
  in
  let unregister_and_close id fd =
    Mutex.lock conns_mutex;
    Hashtbl.remove conns id;
    Mutex.unlock conns_mutex;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let shutdown_live_conns ~how () =
    Mutex.lock conns_mutex;
    Hashtbl.iter
      (fun _ fd ->
        (* receive side first: a worker blocked in [read_line] wakes
           with EOF, but a cancelled response already in flight can
           still be written and read by the client *)
        try Unix.shutdown fd how with Unix.Unix_error _ -> ())
      conns;
    Mutex.unlock conns_mutex
  in
  let workers_done = Atomic.make 0 in
  let worker () =
    let rec loop () =
      match Bqueue.pop queue with
      | None -> ()
      | Some fd ->
        let id = register_conn fd in
        (if Atomic.get state.force_closing then
           write_line_nonblock fd (Json.to_string (shutting_down_response ()))
         else
           match serve_connection state fd with
           | `Stop -> trigger_drain ()
           | `Continue -> ()
           | exception e ->
             (* a connection must never take its worker down *)
             Log.err (fun m ->
                 m "connection handler raised: %s" (Printexc.to_string e)));
        unregister_and_close id fd;
        loop ()
    in
    (try loop ()
     with e ->
       Log.err (fun m -> m "worker died: %s" (Printexc.to_string e)));
    Atomic.incr workers_done
  in
  let workers =
    List.init (max 1 config.workers) (fun _ -> Domain.spawn worker)
  in
  Log.info (fun m ->
      m "listening on %s (%d workers, queue %d)" config.socket_path
        (List.length workers) config.queue_capacity);
  (* The drain sequence runs in the [finally] so every exit path — a
     shutdown request, a signal, max_requests, even an unexpected
     exception in the accept loop — stops accepting, finishes or cancels
     in-flight work against the drain deadline, and joins the workers
     before the daemon returns. *)
  let drain () =
    Atomic.set state.stopping true;
    (* stop accepting: close and unlink the socket first, so clients see
       ECONNREFUSED (and back off and retry) instead of queueing *)
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
    Bqueue.close queue;
    let deadline =
      Int64.add (Metrics.now_ns ()) (ms_to_ns (max 0 config.drain_ms))
    in
    let all_done () = Atomic.get workers_done = List.length workers in
    (* grace phase: let in-flight work finish (stdlib Condition has no
       timed wait, so poll) *)
    let rec grace () =
      if (not (all_done ())) && Metrics.now_ns () < deadline then begin
        Unix.sleepf 0.005;
        grace ()
      end
    in
    grace ();
    if not (all_done ()) then begin
      (* force phase: cancel every in-flight synthesis (answered as
         [cancelled]) and half-shutdown every live connection so idle
         readers wake with EOF while responses in flight still get
         written.  Repeat until every worker exits — a worker may
         register a queued connection between waves.  If a worker is
         still stuck after a second drain window (a peer too slow to
         absorb even a response), escalate to a full shutdown. *)
      Log.info (fun m -> m "drain deadline passed, cancelling in-flight work");
      Atomic.set state.force_closing true;
      let escalate_at =
        Int64.add (Metrics.now_ns ())
          (ms_to_ns (max 200 config.drain_ms))
      in
      let rec force () =
        if not (all_done ()) then begin
          cancel_live_tokens state;
          shutdown_live_conns
            ~how:
              (if Metrics.now_ns () >= escalate_at then Unix.SHUTDOWN_ALL
               else Unix.SHUTDOWN_RECEIVE)
            ();
          Unix.sleepf 0.005;
          force ()
        end
      in
      force ()
    end;
    List.iter Domain.join workers;
    restore_signals ();
    Memo.unregister state.results;
    (try Unix.close wake_r with Unix.Unix_error _ -> ());
    try Unix.close wake_w with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:drain (fun () ->
      let rec accept_loop () =
        (match config.max_requests with
        | Some limit when Atomic.get state.requests >= limit -> trigger_drain ()
        | _ -> ());
        if not (Atomic.get state.stopping) then begin
          (match Unix.select [ sock; wake_r ] [] [] (-1.0) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | readable, _, _ ->
            if List.mem sock readable then (
              match Unix.accept sock with
              | exception
                  Unix.Unix_error
                    ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                      | Unix.ECONNABORTED ),
                      _,
                      _ ) ->
                ()
              | fd, _ ->
                Metrics.incr "serve.connections";
                if not (Bqueue.try_push queue fd) then shed state fd));
          accept_loop ()
        end
      in
      accept_loop ());
  Log.info (fun m ->
      m "served %d requests, shutting down" (Atomic.get state.requests))

(* ---------- client ---------- *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect ?(retry_for = 0.0) path =
    (* a daemon that sheds this connection closes it right after
       answering; without this our request write would be process-fatal
       SIGPIPE instead of a retryable error *)
    ignore_sigpipe ();
    (* monotonic deadline: a wall-clock step (NTP, suspend/resume) can
       neither hang the retry loop nor skip the window *)
    let deadline =
      Int64.add (Metrics.now_ns ())
        (Int64.of_float (retry_for *. 1_000_000_000.))
    in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () ->
        { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
      | exception
          Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when Metrics.now_ns () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.02;
        go ()
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise e
    in
    go ()

  let request_line t line =
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc;
    match input_line t.ic with
    | line -> line
    | exception End_of_file -> failwith "serve client: connection closed"

  let request t json =
    match Json.of_string (request_line t (Json.to_string json)) with
    | Ok response -> response
    | Error msg -> failwith ("serve client: bad response: " ^ msg)

  let close t =
    (try close_out_noerr t.oc with _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()

  let response_code response =
    match Json.member "status" response with
    | Some (Json.String "error") ->
      (match Json.member "code" response with
      | Some (Json.String c) -> Some c
      | _ -> Some "internal")
    | _ -> None

  let retry_after_ms response =
    match Json.member "retry_after_ms" response with
    | Some (Json.Int ms) when ms >= 0 -> Some ms
    | _ -> None

  (* Exponential backoff with deterministic jitter: the daemon's
     [retry_after_ms] hint (or 50 ms) doubled per attempt, capped at
     2 s, plus up to 25% jitter derived from the monotonic clock so a
     fleet of shed clients does not re-dogpile in lockstep. *)
  let backoff_s ~attempt ~hint_ms =
    let base = float_of_int (max 1 hint_ms) /. 1000.0 in
    let exp = base *. (2.0 ** float_of_int attempt) in
    let capped = Float.min exp 2.0 in
    let jitter =
      let noise = Int64.to_int (Int64.rem (Metrics.now_ns ()) 1000L) in
      capped *. 0.25 *. (float_of_int noise /. 1000.0)
    in
    capped +. jitter

  let request_with_retry ?(retries = 5) ?(connect_for = 5.0) path json =
    let rec attempt n =
      let outcome =
        match connect ~retry_for:connect_for path with
        | exception e -> Error e
        | t ->
          Fun.protect
            ~finally:(fun () -> close t)
            (fun () ->
              match request t json with
              | response -> Ok response
              | exception e -> Error e)
      in
      match outcome with
      | Ok response ->
        (match response_code response with
        | Some "overloaded" when n < retries ->
          let hint_ms = Option.value (retry_after_ms response) ~default:50 in
          Unix.sleepf (backoff_s ~attempt:n ~hint_ms);
          attempt (n + 1)
        | _ -> response)
      | Error e when n < retries ->
        (* daemon restarting or connection torn mid-request: back off and
           reconnect (each attempt uses a fresh connection — the daemon
           closes shed connections after answering) *)
        ignore e;
        Unix.sleepf (backoff_s ~attempt:n ~hint_ms:50);
        attempt (n + 1)
      | Error e -> raise e
    in
    attempt 0
end
