(* Tests for the noc_exec execution library: the Domain work pool
   (order preservation, exception propagation, nesting, reuse), the
   metrics registry (counters, timers, JSON dump) and the JSON printer
   and parser (round trip, truncation, nesting limit). *)

module Pool = Noc_exec.Pool
module Metrics = Noc_exec.Metrics
module Json = Noc_exec.Json

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))
let check_strs = Alcotest.(check (list string))

(* ---------- Pool ---------- *)

let test_empty_input () =
  check_ints "empty list maps to empty" []
    (Pool.parallel_map ~domains:4 (fun x -> x * 2) []);
  check_ints "empty filter_map" []
    (Pool.parallel_filter_map ~domains:4 (fun x -> Some x) [])

let test_single_item () =
  check_ints "single item" [ 14 ]
    (Pool.parallel_map ~domains:4 (fun x -> x * 2) [ 7 ])

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun domains ->
      check_ints
        (Printf.sprintf "%d domains preserve order" domains)
        (List.map (fun x -> x * x) xs)
        (Pool.parallel_map ~domains (fun x -> x * x) xs))
    [ 1; 2; 3; 4; 7; 100; 200 ]

let test_exceptions_propagate () =
  let f x = if x = 5 then failwith "boom" else x in
  List.iter
    (fun domains ->
      match Pool.parallel_map ~domains f (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected Failure to propagate"
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "exception surfaces with %d domains" domains)
          "boom" msg)
    [ 1; 2; 4 ]

let test_earliest_exception_wins () =
  (* two failing elements in different chunks: the earliest one's
     exception is re-raised, as the sequential map would *)
  let f x = if x >= 3 then failwith (string_of_int x) else x in
  (match Pool.parallel_map ~domains:4 f (List.init 16 Fun.id) with
   | _ -> Alcotest.fail "expected Failure"
   | exception Failure msg -> Alcotest.(check string) "earliest" "3" msg)

let test_pool_reuse () =
  (* many consecutive parallel_map calls: domains are joined each time,
     results stay correct *)
  for round = 1 to 25 do
    let xs = List.init 32 (fun i -> (round * 100) + i) in
    check_ints
      (Printf.sprintf "round %d" round)
      (List.map (fun x -> x + 1) xs)
      (Pool.parallel_map ~domains:3 (fun x -> x + 1) xs)
  done

let test_nested_parallel_map () =
  (* a parallel_map inside a parallel_map must not explode the domain
     count: inner calls run sequentially inside workers, and results
     are still exact *)
  let xs = List.init 8 Fun.id in
  let expected = List.map (fun x -> List.init 8 (fun y -> x + y)) xs in
  let got =
    Pool.parallel_map ~domains:4
      (fun x ->
        Pool.parallel_map ~domains:4 (fun y -> x + y) (List.init 8 Fun.id))
      xs
  in
  checkb "nested map exact" true (expected = got)

let test_filter_map () =
  let f x = if x mod 2 = 0 then Some (x / 2) else None in
  let xs = List.init 50 Fun.id in
  check_ints "filter_map matches sequential" (List.filter_map f xs)
    (Pool.parallel_filter_map ~domains:4 f xs)

let test_default_domains () =
  let saved = Pool.default_domains () in
  Pool.set_default_domains 3;
  checki "set_default_domains" 3 (Pool.default_domains ());
  Pool.set_default_domains 0;
  checki "clamped to 1" 1 (Pool.default_domains ());
  Pool.set_default_domains saved;
  checkb "available_domains positive" true (Pool.available_domains () >= 1)

(* ---------- Metrics ---------- *)

let test_counters () =
  Metrics.reset ();
  Metrics.incr "a";
  Metrics.incr ~by:4 "a";
  Metrics.incr "b";
  checki "a accumulated" 5 (Metrics.counter_value "a");
  checki "b" 1 (Metrics.counter_value "b");
  checki "unknown counter is 0" 0 (Metrics.counter_value "nope");
  check_strs "sorted names" [ "a"; "b" ] (List.map fst (Metrics.counters ()));
  Metrics.reset ();
  checki "reset clears" 0 (Metrics.counter_value "a")

let test_timers () =
  Metrics.reset ();
  let r = Metrics.time "t" (fun () -> 41 + 1) in
  checki "time returns result" 42 r;
  ignore (Metrics.time "t" (fun () -> ()));
  (match Metrics.timers () with
   | [ ("t", total, count) ] ->
     checki "two observations" 2 count;
     checkb "non-negative total" true (total >= 0L)
   | _ -> Alcotest.fail "expected exactly one timer");
  (* a raising thunk still records its time *)
  (match Metrics.time "raises" (fun () -> failwith "x") with
   | _ -> Alcotest.fail "expected Failure"
   | exception Failure _ -> ());
  checkb "raising run recorded" true
    (List.exists (fun (n, _, c) -> n = "raises" && c = 1) (Metrics.timers ()));
  Metrics.reset ()

let test_counters_across_domains () =
  Metrics.reset ();
  ignore
    (Pool.parallel_map ~domains:4
       (fun x ->
         Metrics.incr "par.items";
         x)
       (List.init 40 Fun.id));
  checki "all domain increments land" 40 (Metrics.counter_value "par.items");
  Metrics.reset ()

let test_json () =
  Metrics.reset ();
  Metrics.incr ~by:7 "json.counter";
  Metrics.add_ns "json.timer" 1500L;
  let s = Metrics.to_json () in
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  checkb "counter in json" true (contains "\"json.counter\": 7");
  checkb "timer in json" true (contains "\"total_ns\": 1500");
  checkb "object shape" true
    (String.length s >= 2 && s.[0] = '{' && s.[String.length s - 1] = '}');
  Metrics.reset ()

let test_monotonic_clock () =
  let a = Metrics.now_ns () in
  let b = Metrics.now_ns () in
  checkb "clock does not go backwards" true (b >= a)

(* ---------- Json ---------- *)

let test_json_depth_limit () =
  let nested depth = String.make depth '[' ^ String.make depth ']' in
  checkb "max_depth nested arrays parse" true
    (Result.is_ok (Json.of_string (nested Json.max_depth)));
  checkb "one level deeper is an error" true
    (Result.is_error (Json.of_string (nested (Json.max_depth + 1))));
  (* a megabyte of open brackets: an error, not a stack overflow *)
  checkb "a line of brackets is an error" true
    (Result.is_error (Json.of_string (String.make 1_000_000 '[')))

let test_json_escape_clean () =
  let clean = "no byte here needs escaping: caf\xc3\xa9" in
  checkb "clean string returned as is" true (Json.escape_string clean == clean);
  Alcotest.(check string)
    "escapes quotes, backslashes and control bytes" "a\\\"b\\\\c\\nd\\u001fe"
    (Json.escape_string "a\"b\\c\nd\031e")

let test_json_raw_spliced () =
  Alcotest.(check string)
    "raw text printed verbatim" "{\"a\": {\"b\": 1.5}, \"c\": [1, 2]}"
    (Json.to_string
       (Json.Obj [ ("a", Json.Raw "{\"b\": 1.5}"); ("c", Json.Raw "[1, 2]") ]))

(* ---------- qcheck properties ---------- *)

let small_ints = QCheck.(list_of_size Gen.(0 -- 40) small_int)

let prop_map_equals_sequential =
  QCheck.Test.make ~name:"parallel_map f = List.map f (any domain count)"
    ~count:100
    QCheck.(pair small_ints (int_range 1 8))
    (fun (xs, domains) ->
      let f x = (x * 31) + 7 in
      Pool.parallel_map ~domains f xs = List.map f xs)

let prop_map_strings =
  QCheck.Test.make ~name:"parallel_map over strings" ~count:50
    QCheck.(pair (list_of_size Gen.(0 -- 30) printable_string) (int_range 1 6))
    (fun (xs, domains) ->
      let f s = String.uppercase_ascii s ^ "!" in
      Pool.parallel_map ~domains f xs = List.map f xs)

let prop_filter_map_equals_sequential =
  QCheck.Test.make
    ~name:"parallel_filter_map f = List.filter_map f (any domain count)"
    ~count:100
    QCheck.(pair small_ints (int_range 1 8))
    (fun (xs, domains) ->
      let f x = if x mod 3 = 0 then Some (x + 1) else None in
      Pool.parallel_filter_map ~domains f xs = List.filter_map f xs)

(* JSON trees whose strings hold quotes, backslashes, every control
   byte and multi-byte UTF-8, and whose floats are finite non-integers
   (an integral float prints as "3.0" and parses back as a [Float] too,
   but the property is about the general case). *)
let json_string_gen =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        map (String.make 1) (char_range '\000' '\031');
        oneofl [ "\""; "\\"; "/"; "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x98\x80" ];
        map (String.make 1) printable;
      ]
  in
  map (String.concat "") (list_size (0 -- 12) piece)

let json_float_gen =
  QCheck.Gen.(
    map
      (fun (m, e) ->
        let f = ldexp (m +. 0.5) e in
        if Float.is_integer f then 0.25 else f)
      (pair (float_range (-1000.0) 1000.0) (int_range (-40) 20)))

let json_gen =
  let open QCheck.Gen in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) json_float_gen;
               map (fun s -> Json.String s) json_string_gen;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4) (pair json_string_gen (self (n / 3)))) );
             ])

let json_arb = QCheck.make ~print:Json.to_string json_gen

let prop_json_round_trip =
  QCheck.Test.make ~name:"Json.of_string (to_string v) = Ok v" ~count:300
    json_arb (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* A document whose top level is an array or an object: every proper
   prefix of it is incomplete. *)
let prop_json_prefixes_rejected =
  QCheck.Test.make
    ~name:"every proper prefix of a document is an Error, never an exception"
    ~count:100
    (QCheck.make ~print:Json.to_string
       QCheck.Gen.(
         oneof
           [
             map (fun l -> Json.List l) (list_size (0 -- 4) json_gen);
             map
               (fun l -> Json.Obj l)
               (list_size (0 -- 4) (pair json_string_gen json_gen));
           ]))
    (fun v ->
      let text = Json.to_string v in
      List.for_all
        (fun i ->
          match Json.of_string (String.sub text 0 i) with
          | Error _ -> true
          | Ok _ -> false
          | exception _ -> false)
        (List.init (String.length text) Fun.id))

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "empty input" `Quick test_empty_input;
          Alcotest.test_case "single item" `Quick test_single_item;
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exceptions_propagate;
          Alcotest.test_case "earliest exception wins" `Quick
            test_earliest_exception_wins;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "nested maps stay exact" `Quick
            test_nested_parallel_map;
          Alcotest.test_case "filter_map" `Quick test_filter_map;
          Alcotest.test_case "default domains" `Quick test_default_domains;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "timers" `Quick test_timers;
          Alcotest.test_case "counters across domains" `Quick
            test_counters_across_domains;
          Alcotest.test_case "json dump" `Quick test_json;
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
        ] );
      ( "json",
        [
          Alcotest.test_case "nesting depth limit" `Quick test_json_depth_limit;
          Alcotest.test_case "escape_string keeps clean strings" `Quick
            test_json_escape_clean;
          Alcotest.test_case "raw text spliced verbatim" `Quick
            test_json_raw_spliced;
          qt prop_json_round_trip;
          qt prop_json_prefixes_rejected;
        ] );
      ( "properties",
        [
          qt prop_map_equals_sequential;
          qt prop_map_strings;
          qt prop_filter_map_equals_sequential;
        ] );
    ]
