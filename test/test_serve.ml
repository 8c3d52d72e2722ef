(* Tests for the synthesis daemon (lib/serve): the result codec's
   bit-identity, the error boundary that keeps one bad request from
   killing the service, the store/memo answering layers behind
   handle_line and the one rendering of each result they share, bounded
   frames, and a live socket session with repeat / delta / malformed
   envelopes surviving a daemon restart. *)

module Config = Noc_synthesis.Config
module Synth = Noc_synthesis.Synth
module Serve = Noc_serve.Serve
module Json = Noc_exec.Json
module Memo = Noc_cache.Memo
module Delta = Noc_spec.Delta
module Soc_spec = Noc_spec.Soc_spec
module Flow = Noc_spec.Flow
module Bench_case = Noc_benchmarks.Bench_case
module Synth_gen = Noc_benchmarks.Synth_gen
module Spec_io = Noc_spec.Spec_io
module Vi = Noc_spec.Vi
module Power = Noc_models.Power
module DP = Noc_synthesis.Design_point
module Kway = Noc_partition.Kway
module Placer = Noc_floorplan.Placer

let config = Config.default
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let tmp_dir () =
  let d = Filename.temp_file "noc-serve-test" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = tmp_dir () in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let str name json =
  match Json.member name json with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "response is missing string field %S" name

let envelope fields = Json.document ~kind:Serve.schema_request fields

let d12 = Bench_case.find "d12"
let d12_result =
  lazy
    (Synth.run ~options:Synth.Options.default config d12.Bench_case.soc
       d12.Bench_case.default_vi)

(* ---------- codec ---------- *)

let test_codec_round_trip () =
  let r = Lazy.force d12_result in
  let decoded = Option.get (Serve.Codec.decode (Serve.Codec.encode r)) in
  (* the store hands back exactly the sweep that went in: same digest,
     same counters, same points in order *)
  checks "digest survives encode/decode" (Serve.Codec.result_digest r)
    (Serve.Codec.result_digest decoded);
  checki "tried" r.Synth.candidates_tried decoded.Synth.candidates_tried;
  checki "feasible" r.Synth.candidates_feasible decoded.Synth.candidates_feasible;
  checki "points" (List.length r.Synth.points) (List.length decoded.Synth.points);
  checkb "decode rejects garbage" true (Serve.Codec.decode "garbage" = None)

(* ---------- error boundary ---------- *)

let test_error_classification () =
  let message e = str "error" (Serve.error_response_of_exn e) in
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  (* the typed partition/floorplan invariant failures introduced for the
     daemon boundary: per-request diagnostics, not crashes *)
  checkb "kway classified" true
    (has_prefix "partitioning failed" (message (Kway.Partition_error "quota")));
  checkb "placer classified" true
    (has_prefix "floorplan check failed"
       (message (Placer.Invalid_plan "overlap")));
  checkb "infeasible classified" true
    (has_prefix "no feasible design"
       (message (Synth.No_feasible_design "too tight")));
  List.iter
    (fun e -> checks "status is error" "error" (str "status" (Serve.error_response_of_exn e)))
    [
      (Kway.Partition_error "x" : exn);
      Placer.Invalid_plan "x";
      Synth.No_feasible_design "x";
      Failure "x";
      Not_found;
    ]

(* ---------- handle_line: the daemon's brain, no socket needed ---------- *)

let with_state dir f =
  let config_ =
    {
      (Serve.default_config ~socket_path:"unused") with
      Serve.store_dir = Some dir;
    }
  in
  let state = Serve.create_state config_ in
  let scratch = Memo.create "test_serve.scratch" in
  Fun.protect
    ~finally:(fun () -> Memo.unregister scratch)
    (fun () -> f (fun line -> Serve.handle_line state ~scratch line))

let request_line fields = Json.to_string (envelope fields)

let synth_line = request_line [ ("op", Json.String "synth"); ("benchmark", Json.String "d12") ]

let parse_ok (line, verdict) =
  (match Json.of_string line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "unparsable response %s: %s" line msg), verdict

let test_handle_line_sources () =
  with_dir @@ fun dir ->
  with_state dir @@ fun handle ->
  let cold, v = parse_ok (handle synth_line) in
  checkb "continues" true (v = `Continue);
  checks "cold status" "ok" (str "status" cold);
  checks "cold source" "computed" (str "source" cold);
  let digest = str "result_digest" cold in
  checks "matches a fresh local run" digest
    (Serve.Codec.result_digest (Lazy.force d12_result));
  let warm, _ = parse_ok (handle synth_line) in
  checks "repeat source" "memo" (str "source" warm);
  checks "repeat digest" digest (str "result_digest" warm);
  (* a different daemon sharing the store answers from disk *)
  with_state dir @@ fun handle2 ->
  let disk, _ = parse_ok (handle2 synth_line) in
  checks "restart source" "store" (str "source" disk);
  checks "restart digest" digest (str "result_digest" disk)

let test_handle_line_rerun () =
  with_dir @@ fun dir ->
  with_state dir @@ fun handle ->
  let cold, _ = parse_ok (handle synth_line) in
  let digest = str "result_digest" cold in
  (* clean chain: no synthesis stage reads the always-on bit, so the
     answer is the base result, aliased — and bit-identical *)
  let clean_line =
    request_line
      [
        ("op", Json.String "rerun");
        ("benchmark", Json.String "d12");
        ( "deltas",
          Json.List
            [
              Json.Obj
                [
                  ("kind", Json.String "set_always_on");
                  ("island", Json.Int 0);
                  ("always_on", Json.Bool true);
                ];
            ] );
      ]
  in
  let clean, _ = parse_ok (handle clean_line) in
  checks "clean rerun ok" "ok" (str "status" clean);
  checks "clean rerun answered warm" "memo" (str "source" clean);
  checks "clean rerun digest = base digest" digest (str "result_digest" clean);
  (* dirty chain: a flow edit supersedes the base entry and re-solves *)
  let flow = List.hd d12.Bench_case.soc.Soc_spec.flows in
  let deltas =
    [
      Delta.Set_flow_bandwidth
        {
          src = flow.Flow.src;
          dst = flow.Flow.dst;
          bandwidth_mbps = flow.Flow.bandwidth_mbps *. 0.9;
        };
    ]
  in
  let dirty_line =
    request_line
      [
        ("op", Json.String "rerun");
        ("benchmark", Json.String "d12");
        ( "deltas",
          Json.List
            [
              Json.Obj
                [
                  ("kind", Json.String "set_flow_bandwidth");
                  ("src", Json.Int flow.Flow.src);
                  ("dst", Json.Int flow.Flow.dst);
                  ( "bandwidth_mbps",
                    Json.Float (flow.Flow.bandwidth_mbps *. 0.9) );
                ];
            ] );
      ]
  in
  let dirty, _ = parse_ok (handle dirty_line) in
  checks "dirty rerun ok" "ok" (str "status" dirty);
  checks "dirty rerun recomputed" "computed" (str "source" dirty);
  (* bit-identity of the incremental path against a fresh local run on
     the edited spec *)
  let soc', vi' =
    Delta.apply_all (d12.Bench_case.soc, d12.Bench_case.default_vi) deltas
  in
  let fresh = Synth.run ~options:Synth.Options.default config soc' vi' in
  checks "dirty rerun digest = fresh edited run"
    (Serve.Codec.result_digest fresh)
    (str "result_digest" dirty);
  (* the edited result is warm now; the superseded base entry is not *)
  let again, _ = parse_ok (handle dirty_line) in
  checks "repeat of dirty rerun is warm" "memo" (str "source" again)

let test_handle_line_survives_bad_input () =
  with_dir @@ fun dir ->
  with_state dir @@ fun handle ->
  let expect_error line =
    let json, v = parse_ok (handle line) in
    checks "status is error" "error" (str "status" json);
    checkb "daemon continues" true (v = `Continue)
  in
  expect_error "this is not json";
  expect_error "{\"schema\": \"wrong_schema\", \"schema_version\": 1}";
  expect_error
    (Json.to_string
       (Json.Obj
          [
            ("schema", Json.String Serve.schema_request);
            ("schema_version", Json.Int 999);
            ("op", Json.String "ping");
          ]));
  expect_error (request_line [ ("op", Json.String "no-such-op") ]);
  expect_error (request_line [ ("op", Json.String "synth") ]);
  expect_error
    (request_line
       [ ("op", Json.String "synth"); ("benchmark", Json.String "no-such-soc") ]);
  expect_error
    (request_line
       [
         ("op", Json.String "synth");
         ("benchmark", Json.String "d12");
         ("islands", Json.String "four");
       ]);
  (* after all that abuse, a good request still works *)
  let ping, _ = parse_ok (handle (request_line [ ("op", Json.String "ping") ])) in
  checks "still alive" "ok" (str "status" ping);
  let shutdown, v =
    parse_ok (handle (request_line [ ("op", Json.String "shutdown") ]))
  in
  checks "shutdown ok" "ok" (str "status" shutdown);
  checkb "shutdown stops" true (v = `Stop)

let read_line_fd fd =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        go ()
      end
  in
  go ()

(* ---------- one rendering per result ---------- *)

(* [line] without its [, "name": value] member, whose value is a JSON
   string without escapes or an integer. *)
let drop_member name line =
  let marker = Printf.sprintf ", \"%s\": " name in
  let m = String.length marker and n = String.length line in
  let rec find i =
    if i + m > n then Alcotest.failf "no member %S in %s" name line
    else if String.sub line i m = marker then i
    else find (i + 1)
  in
  let i = find 0 in
  let j = i + m in
  let rec number_end k =
    if k < n && (line.[k] = '-' || (line.[k] >= '0' && line.[k] <= '9')) then
      number_end (k + 1)
    else k
  in
  let stop =
    if line.[j] = '"' then String.index_from line (j + 1) '"' + 1
    else number_end j
  in
  String.sub line 0 i ^ String.sub line stop (n - stop)

(* An answer line apart from the fields that say how it was answered. *)
let answer_core line = drop_member "elapsed_ns" (drop_member "source" line)

(* A spec as a request names it, and as the daemon reads it. *)
type served_case = {
  label : string;
  spec_fields : (string * Json.t) list;
  soc : Soc_spec.t;
  vi : Vi.t;
}

let benchmark_case =
  {
    label = "d12";
    spec_fields = [ ("benchmark", Json.String "d12") ];
    soc = d12.Bench_case.soc;
    vi = d12.Bench_case.default_vi;
  }

(* An inline bundle: a generated 16-core SoC on three islands, sent as
   spec text; its SoC and VI are the ones the daemon parses. *)
let bundle_case =
  lazy
    (let soc =
       {
         (Synth_gen.generate ~seed:5
            { Synth_gen.default_profile with Synth_gen.cores = 16 })
         with
         Soc_spec.name = "bundle-s5";
       }
     in
     let vi = Synth_gen.random_vi ~seed:5 ~islands:3 soc in
     let text = Spec_io.to_string { Spec_io.soc; vi = Some vi; scenarios = [] } in
     match Spec_io.parse text with
     | Ok { Spec_io.soc; vi = Some vi; _ } ->
       { label = "bundle"; spec_fields = [ ("spec", Json.String text) ]; soc; vi }
     | _ -> Alcotest.fail "generated bundle does not read back")

(* The answer fields of a result, rendered here from the result itself. *)
let expected_fields (r : Synth.result) =
  let point p =
    Json.Obj
      [
        ("power_mw", Json.Float (Power.total_mw p.DP.power));
        ("avg_latency_cycles", Json.Float p.DP.avg_latency_cycles);
        ("switches", Json.Int p.DP.switch_count);
        ("indirect", Json.Int p.DP.indirect_count);
        ("links", Json.Int p.DP.link_count);
        ("crossings", Json.Int p.DP.crossing_count);
      ]
  in
  [
    ("result_digest", Json.String (Serve.Codec.result_digest r));
    ("candidates_tried", Json.Int r.Synth.candidates_tried);
    ("candidates_feasible", Json.Int r.Synth.candidates_feasible);
    ("candidates_recovered", Json.Int r.Synth.candidates_recovered);
    ("points", Json.Int (List.length r.Synth.points));
    ("best_power", point (Synth.best_power r));
    ("best_latency", point (Synth.best_latency r));
  ]

let test_one_rendering case () =
  with_dir @@ fun dir ->
  let synth = request_line (("op", Json.String "synth") :: case.spec_fields) in
  let rerun deltas =
    request_line
      ((("op", Json.String "rerun") :: case.spec_fields)
      @ [ ("deltas", Json.List (List.map Delta.to_json deltas)) ])
  in
  let answer handle line =
    let text, _ = handle line in
    let json, _ = parse_ok (text, `Continue) in
    checks (case.label ^ " answered") "ok" (str "status" json);
    (text, json)
  in
  let key = Serve.request_key config Synth.Options.default case.soc case.vi in
  with_state dir @@ fun handle ->
  let computed, cold = answer handle synth in
  checks "computed source" "computed" (str "source" cold);
  let memo, warm = answer handle synth in
  checks "memo source" "memo" (str "source" warm);
  (* the memo answer's key comes from the connection's source table *)
  checks "table key = request_key" key (str "key" warm);
  checks "memo answer = computed answer" (answer_core computed) (answer_core memo);
  (* the fields equal a rendering made straight from Synth.run's result *)
  let r = Synth.run ~options:Synth.Options.default config case.soc case.vi in
  List.iter
    (fun (name, expected) ->
      checkb
        (Printf.sprintf "%s %s rendered from Synth.run" case.label name)
        true
        (Json.member name warm = Some expected))
    (expected_fields r);
  (* a daemon restarted on the store renders the decoded result the same *)
  (with_state dir @@ fun handle2 ->
   let stored, disk = answer handle2 synth in
   checks "store source" "store" (str "source" disk);
   checks "store answer = computed answer" (answer_core computed)
     (answer_core stored));
  (* a clean chain aliases the base entry: same rendering, edited key *)
  let island =
    let rec first i = if case.vi.Vi.shutdownable.(i) then i else first (i + 1) in
    first 0
  in
  let clean = [ Delta.Set_always_on { island; always_on = true } ] in
  let aliased, alias = answer handle (rerun clean) in
  checks "alias source" "memo" (str "source" alias);
  let soc', vi' = Delta.apply_all (case.soc, case.vi) clean in
  checks "alias key = edited request_key"
    (Serve.request_key config Synth.Options.default soc' vi')
    (str "key" alias);
  checks "alias answer = computed answer"
    (drop_member "key" (answer_core computed))
    (drop_member "key" (answer_core aliased));
  (* a dirty chain evicts the base entry, result and rendering together:
     the base spec is computed again, to the same answer *)
  let flow = List.hd case.soc.Soc_spec.flows in
  let dirty =
    [
      Delta.Set_flow_bandwidth
        {
          src = flow.Flow.src;
          dst = flow.Flow.dst;
          bandwidth_mbps = flow.Flow.bandwidth_mbps *. 0.9;
        };
    ]
  in
  let _, edited = answer handle (rerun dirty) in
  checks "dirty rerun computed" "computed" (str "source" edited);
  let again, base = answer handle synth in
  checks "evicted base recomputed" "computed" (str "source" base);
  checks "recomputed answer = first answer" (answer_core computed)
    (answer_core again)

(* ---------- bounded frames ---------- *)

let test_bounded_frames () =
  with_dir @@ fun dir ->
  let socket_path = Filename.concat dir "serve.sock" in
  let daemon =
    Domain.spawn (fun () ->
        Serve.run { (Serve.default_config ~socket_path) with Serve.workers = 1 })
  in
  (* one byte past the cap, no newline: answered, then disconnected *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect () =
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.sleepf 0.02;
      connect ()
  in
  connect ();
  let frame = String.make (Serve.max_line_bytes + 1) 'x' in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  let too_large =
    match Json.of_string (read_line_fd fd) with
    | Ok json -> json
    | Error msg -> Alcotest.failf "unparsable too_large response: %s" msg
  in
  checks "oversized frame status" "error" (str "status" too_large);
  checks "oversized frame code" "too_large" (str "code" too_large);
  checks "connection closed after too_large" "" (read_line_fd fd);
  Unix.close fd;
  (* the daemon is still serving: a new connection gets a ping answer, and
     a deeply nested line is a bad request, not an internal error *)
  let client = Serve.Client.connect ~retry_for:10.0 socket_path in
  checks "ping after oversized frame" "ok"
    (str "status" (Serve.Client.request client (envelope [ ("op", Json.String "ping") ])));
  (* a line longer than one read of the socket is reassembled *)
  checks "ping spanning reads" "ok"
    (str "status"
       (Serve.Client.request client
          (envelope
             [ ("op", Json.String "ping"); ("pad", Json.String (String.make 200_000 'x')) ])));
  (match Json.of_string (Serve.Client.request_line client (String.make 100_000 '[')) with
  | Ok json -> checks "deep nesting code" "bad_request" (str "code" json)
  | Error msg -> Alcotest.failf "unparsable deep-nesting response: %s" msg);
  checks "shutdown" "ok"
    (str "status"
       (Serve.Client.request client (envelope [ ("op", Json.String "shutdown") ])));
  Serve.Client.close client;
  Domain.join daemon

(* ---------- deadlines ---------- *)

let test_deadline_timeout () =
  with_dir @@ fun dir ->
  with_state dir @@ fun handle ->
  (* a fresh seed guarantees a cold sweep (the process-wide eval memo may
     be warm from earlier tests), so the 1 ms deadline must fire at a
     candidate boundary *)
  let slow_synth deadline =
    request_line
      ([
         ("op", Json.String "synth");
         ("benchmark", Json.String "d12");
         ("seed", Json.Int 4242);
       ]
      @ deadline)
  in
  let t0 = Noc_exec.Metrics.counter_value "serve.timeouts" in
  let timed_out, v =
    parse_ok (handle (slow_synth [ ("deadline_ms", Json.Int 1) ]))
  in
  checkb "continues after timeout" true (v = `Continue);
  checks "timeout status" "error" (str "status" timed_out);
  checks "timeout code" "timeout" (str "code" timed_out);
  (match Json.member "deadline_ms" timed_out with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "timeout response must echo deadline_ms");
  checkb "timeout counted" true
    (Noc_exec.Metrics.counter_value "serve.timeouts" - t0 >= 1);
  (* the cancelled run left nothing behind: the same spec without a
     deadline computes cleanly (a poisoned store/memo would answer warm
     with a partial result) *)
  let full, _ = parse_ok (handle (slow_synth [])) in
  checks "full run after timeout" "ok" (str "status" full);
  checks "full run is cold" "computed" (str "source" full);
  checks "full run digest matches an unpressured local run"
    (Serve.Codec.result_digest
       (Synth.run
          ~options:{ Synth.Options.default with Synth.Options.seed = 4242 }
          config d12.Bench_case.soc d12.Bench_case.default_vi))
    (str "result_digest" full);
  (* malformed deadlines are bad requests, not crashes *)
  let bad, _ =
    parse_ok (handle (slow_synth [ ("deadline_ms", Json.Int 0) ]))
  in
  checks "zero deadline rejected" "bad_request" (str "code" bad)

(* ---------- metrics saturation fields ---------- *)

let test_metrics_saturation () =
  with_dir @@ fun dir ->
  with_state dir @@ fun handle ->
  let metrics, _ = parse_ok (handle (request_line [ ("op", Json.String "metrics") ])) in
  let int_field name =
    match Json.member name metrics with
    | Some (Json.Int i) -> i
    | _ -> Alcotest.failf "metrics response is missing int field %S" name
  in
  checki "socketless queue depth" 0 (int_field "queue_depth");
  (* the metrics request itself is executing, so in-flight counts it *)
  checki "in-flight counts the live request" 1 (int_field "in_flight");
  checkb "shed tally present" true (int_field "shed" >= 0);
  checkb "timeout tally present" true (int_field "timeouts" >= 0);
  checkb "cancel tally present" true (int_field "cancelled" >= 0)

(* ---------- overload shedding ---------- *)

let test_overload_shedding () =
  with_dir @@ fun dir ->
  let socket_path = Filename.concat dir "serve.sock" in
  (* one worker, one queue slot: the third concurrent connection must be
     shed deterministically *)
  let daemon =
    Domain.spawn (fun () ->
        Serve.run
          {
            (Serve.default_config ~socket_path) with
            Serve.workers = 1;
            queue_capacity = 1;
            retry_after_ms = 70;
          })
  in
  let a = Serve.Client.connect ~retry_for:10.0 socket_path in
  (* a served ping proves the single worker now owns connection A *)
  checks "worker holds A" "ok"
    (str "status" (Serve.Client.request a (envelope [ ("op", Json.String "ping") ])));
  let b = Serve.Client.connect ~retry_for:10.0 socket_path in
  (* give the accept loop time to queue B into the single slot *)
  Unix.sleepf 0.2;
  (* C: raw socket — the daemon answers overloaded before we send
     anything, so read without writing *)
  let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect c (Unix.ADDR_UNIX socket_path);
  let shed_response =
    match Json.of_string (read_line_fd c) with
    | Ok json -> json
    | Error msg -> Alcotest.failf "unparsable shed response: %s" msg
  in
  (try Unix.close c with Unix.Unix_error _ -> ());
  checks "shed status" "error" (str "status" shed_response);
  checks "shed code" "overloaded" (str "code" shed_response);
  (match Json.member "retry_after_ms" shed_response with
  | Some (Json.Int 70) -> ()
  | _ -> Alcotest.fail "shed response must carry the retry_after_ms hint");
  (* B never got served yet; close it so drain sees a clean EOF *)
  Serve.Client.close b;
  checks "shutdown" "ok"
    (str "status"
       (Serve.Client.request a (envelope [ ("op", Json.String "shutdown") ])));
  Serve.Client.close a;
  Domain.join daemon

(* ---------- graceful drain cancels in-flight work ---------- *)

let test_drain_cancels_in_flight () =
  with_dir @@ fun dir ->
  let socket_path = Filename.concat dir "serve.sock" in
  (* zero grace: in-flight work is cancelled as soon as drain starts *)
  let daemon =
    Domain.spawn (fun () ->
        Serve.run
          {
            (Serve.default_config ~socket_path) with
            Serve.workers = 2;
            drain_ms = 0;
          })
  in
  let a = Serve.Client.connect ~retry_for:10.0 socket_path in
  let b = Serve.Client.connect ~retry_for:10.0 socket_path in
  (* A: a cold sweep (fresh seed) racing the drain below *)
  let slow =
    envelope
      [
        ("op", Json.String "synth");
        ("benchmark", Json.String "d12");
        ("seed", Json.Int 31337);
      ]
  in
  let racer = Domain.spawn (fun () -> Serve.Client.request a slow) in
  Unix.sleepf 0.05;
  checks "shutdown accepted mid-flight" "ok"
    (str "status"
       (Serve.Client.request b (envelope [ ("op", Json.String "shutdown") ])));
  Serve.Client.close b;
  (* the racing request must be answered — finished if it won the race,
     else a typed cancelled document; never a hang, never a crash *)
  let response = Domain.join racer in
  (match str "status" response with
  | "ok" -> ()
  | "error" -> checks "drain cancels with typed code" "cancelled" (str "code" response)
  | s -> Alcotest.failf "unexpected status %S" s);
  Serve.Client.close a;
  (* the hard gate: the daemon drains and returns — join cannot hang *)
  Domain.join daemon

(* ---------- live socket session ---------- *)

let test_socket_session () =
  with_dir @@ fun dir ->
  let socket_path = Filename.concat dir "serve.sock" in
  let store_dir = Filename.concat dir "store" in
  let spawn () =
    Domain.spawn (fun () ->
        Serve.run
          {
            (Serve.default_config ~socket_path) with
            Serve.store_dir = Some store_dir;
          })
  in
  let daemon = spawn () in
  let client = Serve.Client.connect ~retry_for:10.0 socket_path in
  let request fields = Serve.Client.request client (envelope fields) in
  let synth = [ ("op", Json.String "synth"); ("benchmark", Json.String "d12") ] in
  let cold = request synth in
  checks "cold over socket" "computed" (str "source" cold);
  let digest = str "result_digest" cold in
  let warm = request synth in
  checks "repeat over socket" "memo" (str "source" warm);
  checks "same digest" digest (str "result_digest" warm);
  (* malformed envelope: answered, not fatal *)
  let raw = Serve.Client.request_line client "][ nonsense" in
  (match Json.of_string raw with
  | Ok json -> checks "malformed answered with error" "error" (str "status" json)
  | Error msg -> Alcotest.failf "unparsable error response: %s" msg);
  let ping = request [ ("op", Json.String "ping") ] in
  checks "alive after malformed" "ok" (str "status" ping);
  let metrics = request [ ("op", Json.String "metrics") ] in
  checks "metrics op" "ok" (str "status" metrics);
  checkb "metrics embeds counters" true (Json.member "metrics" metrics <> None);
  checks "shutdown" "ok" (str "status" (request [ ("op", Json.String "shutdown") ]));
  Serve.Client.close client;
  Domain.join daemon;
  (* restart on the same store: the repeat is a disk hit *)
  let daemon = spawn () in
  let client = Serve.Client.connect ~retry_for:10.0 socket_path in
  let disk = Serve.Client.request client (envelope synth) in
  checks "warm across restart" "store" (str "source" disk);
  checks "digest across restart" digest (str "result_digest" disk);
  ignore (Serve.Client.request client (envelope [ ("op", Json.String "shutdown") ]));
  Serve.Client.close client;
  Domain.join daemon

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "codec round-trip" `Quick test_codec_round_trip;
          Alcotest.test_case "error classification" `Quick
            test_error_classification;
          Alcotest.test_case "answer sources" `Quick test_handle_line_sources;
          Alcotest.test_case "rerun: clean alias, dirty evict" `Quick
            test_handle_line_rerun;
          Alcotest.test_case "survives bad input" `Quick
            test_handle_line_survives_bad_input;
          Alcotest.test_case "one rendering per result: d12" `Quick
            (test_one_rendering benchmark_case);
          Alcotest.test_case "one rendering per result: inline bundle" `Quick
            (fun () -> test_one_rendering (Lazy.force bundle_case) ());
          Alcotest.test_case "oversized and deeply nested frames" `Quick
            test_bounded_frames;
          Alcotest.test_case "deadline answered as typed timeout" `Quick
            test_deadline_timeout;
          Alcotest.test_case "metrics saturation fields" `Quick
            test_metrics_saturation;
          Alcotest.test_case "overload shed as typed overloaded" `Quick
            test_overload_shedding;
          Alcotest.test_case "drain cancels in-flight work" `Quick
            test_drain_cancels_in_flight;
          Alcotest.test_case "socket session with restart" `Quick
            test_socket_session;
        ] );
    ]
