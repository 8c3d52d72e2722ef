type bundle = {
  soc : Soc_spec.t;
  vi : Vi.t option;
  scenarios : Scenario.t list;
}

(* ---------- printing ---------- *)

let print_float b x =
  (* Shortest representation that still round-trips: integers print as
     such; everything else takes the least precision in 9..17 whose
     rendering parses back to the identical double (%.17g always does).
     Round-tripping is monotone in the precision: the nearest
     (p+1)-digit decimal is never farther from x than the nearest p-digit
     one, so it parses back to x whenever that one does (x's rounding
     interval is symmetric except at a power of two, and the tests check
     every power of two).  So the least such precision is bisected, in at
     most four tries, where a linear scan took up to nine. *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else begin
    let render precision = Printf.sprintf "%.*g" precision x in
    (* the least round-tripping precision is in [lo, hi]; [at_hi] is
       [hi]'s rendering once a try has checked it *)
    let rec least lo hi at_hi =
      if lo >= hi then (match at_hi with Some s -> s | None -> render hi)
      else begin
        let mid = (lo + hi) / 2 in
        let s = render mid in
        if float_of_string s = x then least lo mid (Some s)
        else least (mid + 1) hi at_hi
      end
    in
    Buffer.add_string b (least 9 17 None)
  end

let to_string bundle =
  let b = Buffer.create 4096 in
  let soc = bundle.soc in
  Buffer.add_string b (Printf.sprintf "soc %s\n" soc.Soc_spec.name);
  Buffer.add_string b (Printf.sprintf "flit_bits %d\n" soc.Soc_spec.flit_bits);
  Buffer.add_string b
    (Printf.sprintf "intermediate_island %b\n"
       soc.Soc_spec.allow_intermediate_island);
  Array.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "core %d %s %s area " c.Core_spec.id c.Core_spec.name
           (Core_spec.kind_to_string c.Core_spec.kind));
      print_float b c.Core_spec.area_mm2;
      Buffer.add_string b " freq ";
      print_float b c.Core_spec.freq_mhz;
      Buffer.add_string b " dyn ";
      print_float b c.Core_spec.dynamic_mw;
      Buffer.add_string b " leak ";
      print_float b c.Core_spec.leakage_mw;
      Buffer.add_char b '\n')
    soc.Soc_spec.cores;
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "flow %d %d bw " f.Flow.src f.Flow.dst);
      print_float b f.Flow.bandwidth_mbps;
      Buffer.add_string b
        (Printf.sprintf " lat %d\n" f.Flow.max_latency_cycles))
    soc.Soc_spec.flows;
  (match bundle.vi with
   | None -> ()
   | Some vi ->
     Buffer.add_string b (Printf.sprintf "islands %d\n" vi.Vi.islands);
     Array.iteri
       (fun core isl ->
         Buffer.add_string b (Printf.sprintf "assign %d %d\n" core isl))
       vi.Vi.of_core;
     Array.iteri
       (fun isl shut ->
         if not shut then
           Buffer.add_string b (Printf.sprintf "always_on %d\n" isl))
       vi.Vi.shutdownable);
  List.iter
    (fun s ->
      Buffer.add_string b (Printf.sprintf "scenario %s " s.Scenario.name);
      print_float b s.Scenario.duty;
      Array.iteri
        (fun core used ->
          if used then Buffer.add_string b (Printf.sprintf " %d" core))
        s.Scenario.used_cores;
      Buffer.add_char b '\n')
    bundle.scenarios;
  Buffer.contents b

(* ---------- parsing ---------- *)

type parse_state = {
  mutable name : string option;
  mutable flit_bits : int;
  mutable intermediate : bool;
  mutable cores : Core_spec.t list;  (* reversed *)
  mutable flows : Flow.t list;       (* reversed *)
  mutable islands : int option;
  mutable assigns : (int * int) list;
  mutable always_on : int list;
  mutable raw_scenarios : (string * float * int list) list;  (* reversed *)
}

exception Parse_error of string

let fail line_no fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "line %d: %s" line_no m))) fmt

let int_of line_no what s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail line_no "%s: expected an integer, got %S" what s

let float_of line_no what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail line_no "%s: expected a number, got %S" what s

let bool_of line_no what s =
  match bool_of_string_opt s with
  | Some v -> v
  | None -> fail line_no "%s: expected true/false, got %S" what s

let keyword line_no expected actual =
  if expected <> actual then
    fail line_no "expected keyword %S, got %S" expected actual

let parse_line state line_no tokens =
  match tokens with
  | [] -> ()
  | "soc" :: rest ->
    (match rest with
     | [ name ] -> state.name <- Some name
     | _ -> fail line_no "soc takes exactly one name")
  | [ "flit_bits"; v ] -> state.flit_bits <- int_of line_no "flit_bits" v
  | [ "intermediate_island"; v ] ->
    state.intermediate <- bool_of line_no "intermediate_island" v
  | "core" :: id :: name :: kind :: rest ->
    let id = int_of line_no "core id" id in
    let kind =
      match Core_spec.kind_of_string kind with
      | Some k -> k
      | None -> fail line_no "unknown core kind %S" kind
    in
    let area, freq, dyn, leak =
      match rest with
      | [ k1; area; k2; freq; k3; dyn; k4; leak ] ->
        keyword line_no "area" k1;
        keyword line_no "freq" k2;
        keyword line_no "dyn" k3;
        keyword line_no "leak" k4;
        ( float_of line_no "area" area,
          float_of line_no "freq" freq,
          float_of line_no "dyn" dyn,
          Some (float_of line_no "leak" leak) )
      | [ k1; area; k2; freq; k3; dyn ] ->
        keyword line_no "area" k1;
        keyword line_no "freq" k2;
        keyword line_no "dyn" k3;
        ( float_of line_no "area" area,
          float_of line_no "freq" freq,
          float_of line_no "dyn" dyn,
          None )
      | _ -> fail line_no "malformed core line"
    in
    let core =
      try
        Core_spec.make ~id ~name ~kind ~area_mm2:area ~freq_mhz:freq
          ~dynamic_mw:dyn ?leakage_mw:leak ()
      with Invalid_argument m -> fail line_no "%s" m
    in
    state.cores <- core :: state.cores
  | [ "flow"; src; dst; k1; bw; k2; lat ] ->
    keyword line_no "bw" k1;
    keyword line_no "lat" k2;
    let flow =
      try
        Flow.make
          ~src:(int_of line_no "flow src" src)
          ~dst:(int_of line_no "flow dst" dst)
          ~bw:(float_of line_no "flow bw" bw)
          ~lat:(int_of line_no "flow lat" lat)
      with Invalid_argument m -> fail line_no "%s" m
    in
    state.flows <- flow :: state.flows
  | [ "islands"; k ] -> state.islands <- Some (int_of line_no "islands" k)
  | [ "assign"; core; isl ] ->
    state.assigns <-
      (int_of line_no "assign core" core, int_of line_no "assign island" isl)
      :: state.assigns
  | [ "always_on"; isl ] ->
    state.always_on <- int_of line_no "always_on" isl :: state.always_on
  | "scenario" :: name :: duty :: cores ->
    let duty = float_of line_no "scenario duty" duty in
    let used = List.map (int_of line_no "scenario core") cores in
    state.raw_scenarios <- (name, duty, used) :: state.raw_scenarios
  | directive :: _ -> fail line_no "unknown directive %S" directive

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokenize line =
  List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim line))

let build state =
  let name =
    match state.name with
    | Some n -> n
    | None -> raise (Parse_error "missing 'soc <name>' line")
  in
  let cores = Array.of_list (List.rev state.cores) in
  (* cores may appear in any order: sort by id and demand density *)
  Array.sort (fun a b -> compare a.Core_spec.id b.Core_spec.id) cores;
  let soc =
    try
      Soc_spec.make ~name ~cores ~flows:(List.rev state.flows)
        ~flit_bits:state.flit_bits
        ~allow_intermediate_island:state.intermediate ()
    with Invalid_argument m -> raise (Parse_error m)
  in
  let vi =
    match state.islands with
    | None ->
      if state.assigns <> [] || state.always_on <> [] then
        raise (Parse_error "assign/always_on without an 'islands' line")
      else None
    | Some islands ->
      let n = Soc_spec.core_count soc in
      let of_core = Array.make n (-1) in
      List.iter
        (fun (core, isl) ->
          if core < 0 || core >= n then
            raise (Parse_error (Printf.sprintf "assign: unknown core %d" core));
          of_core.(core) <- isl)
        state.assigns;
      Array.iteri
        (fun core isl ->
          if isl < 0 then
            raise
              (Parse_error (Printf.sprintf "core %d has no island assignment" core)))
        of_core;
      let shutdownable = Array.make islands true in
      List.iter
        (fun isl ->
          if isl < 0 || isl >= islands then
            raise (Parse_error (Printf.sprintf "always_on: bad island %d" isl));
          shutdownable.(isl) <- false)
        state.always_on;
      (try Some (Vi.make ~islands ~of_core ~shutdownable ())
       with Invalid_argument m -> raise (Parse_error m))
  in
  let scenarios =
    List.rev_map
      (fun (sname, duty, used) ->
        try
          Scenario.make ~name:sname ~used ~cores:(Soc_spec.core_count soc)
            ~duty
        with Invalid_argument m -> raise (Parse_error m))
      state.raw_scenarios
  in
  (try Scenario.validate_duties scenarios
   with Invalid_argument m -> raise (Parse_error m));
  { soc; vi; scenarios }

let parse contents =
  let state =
    {
      name = None;
      flit_bits = 32;
      intermediate = true;
      cores = [];
      flows = [];
      islands = None;
      assigns = [];
      always_on = [];
      raw_scenarios = [];
    }
  in
  match
    String.split_on_char '\n' contents
    |> List.iteri (fun i line ->
           parse_line state (i + 1) (tokenize (strip_comment line)))
  with
  | () -> (try Ok (build state) with Parse_error m -> Error m)
  | exception Parse_error m -> Error m

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
    (match
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     with
     | contents -> parse contents
     | exception Sys_error m -> Error m
     | exception End_of_file ->
       Error (Printf.sprintf "%s: file truncated while reading" path))

(* Atomic save: write to a fresh temp file in the destination directory,
   then rename over the target, so a crash or I/O error mid-write never
   leaves a half-written spec behind. *)
let save path bundle =
  let contents = to_string bundle in
  match
    Filename.open_temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".") ".tmp"
  with
  | exception Sys_error m -> Error m
  | tmp, oc ->
    (match
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () ->
           output_string oc contents;
           close_out oc)
     with
     | () ->
       (match Sys.rename tmp path with
        | () -> Ok ()
        | exception Sys_error m ->
          (try Sys.remove tmp with Sys_error _ -> ());
          Error m)
     | exception Sys_error m ->
       (try Sys.remove tmp with Sys_error _ -> ());
       Error m)

(* ---------- equality ---------- *)

(* Exact: [print_float] emits the shortest rendering that parses back to
   the identical double, so a round-trip must reproduce every float
   bit-for-bit. *)
let feq = Float.equal

let equal_core (a : Core_spec.t) (b : Core_spec.t) =
  a.Core_spec.id = b.Core_spec.id
  && a.Core_spec.name = b.Core_spec.name
  && a.Core_spec.kind = b.Core_spec.kind
  && feq a.Core_spec.area_mm2 b.Core_spec.area_mm2
  && feq a.Core_spec.freq_mhz b.Core_spec.freq_mhz
  && feq a.Core_spec.dynamic_mw b.Core_spec.dynamic_mw
  && feq a.Core_spec.leakage_mw b.Core_spec.leakage_mw

let equal_flow (a : Flow.t) (b : Flow.t) =
  a.Flow.src = b.Flow.src && a.Flow.dst = b.Flow.dst
  && feq a.Flow.bandwidth_mbps b.Flow.bandwidth_mbps
  && a.Flow.max_latency_cycles = b.Flow.max_latency_cycles

let equal_vi (a : Vi.t) (b : Vi.t) =
  a.Vi.islands = b.Vi.islands
  && a.Vi.of_core = b.Vi.of_core
  && a.Vi.shutdownable = b.Vi.shutdownable

let equal_scenario (a : Scenario.t) (b : Scenario.t) =
  a.Scenario.name = b.Scenario.name
  && feq a.Scenario.duty b.Scenario.duty
  && a.Scenario.used_cores = b.Scenario.used_cores

let rec equal_lists eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> eq x y && equal_lists eq xs ys
  | _, [] | [], _ -> false

let equal_bundle a b =
  let sa = a.soc and sb = b.soc in
  sa.Soc_spec.name = sb.Soc_spec.name
  && sa.Soc_spec.flit_bits = sb.Soc_spec.flit_bits
  && sa.Soc_spec.allow_intermediate_island
     = sb.Soc_spec.allow_intermediate_island
  && Array.length sa.Soc_spec.cores = Array.length sb.Soc_spec.cores
  && Array.for_all2 equal_core sa.Soc_spec.cores sb.Soc_spec.cores
  && equal_lists equal_flow sa.Soc_spec.flows sb.Soc_spec.flows
  && (match (a.vi, b.vi) with
      | None, None -> true
      | Some va, Some vb -> equal_vi va vb
      | Some _, None | None, Some _ -> false)
  && equal_lists equal_scenario a.scenarios b.scenarios
