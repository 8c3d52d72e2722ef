(* In-memory spans around calls into the library's layers.

   A span is (id, name, parent, domain, start, stop) on the monotonic
   clock.  Recording is off until [set_enabled true]; then each span
   costs two clock reads and a short critical section.  Spans are kept
   off the OCaml heap, in chunks of a Bigarray, so a long traced run
   does not grow the heap that the gc.* metrics read.  [all] and [write]
   turn them back into records when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span *)
  domain : int;
  start_ns : int64;
  stop_ns : int64;
}

let on = ref false
let set_enabled b = on := b
let next_id = Atomic.make 1

(* The innermost open span of the calling domain, so nested calls find
   their parent without threading it through. *)
let current : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let now = Noc_exec.Metrics.now_ns

(* Storage, under [lock]: span k sits in chunk k / chunk_spans, as
   [fields] ints (id, name index, parent, domain, start, stop). *)
let fields = 6
let chunk_spans = 65536

type chunk = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let lock = Mutex.create ()
let chunks : chunk list ref = ref []  (* newest first *)
let count = ref 0
let name_index : (string, int) Hashtbl.t = Hashtbl.create 64
let names : string list ref = ref []  (* newest first *)

let intern name =
  match Hashtbl.find_opt name_index name with
  | Some k -> k
  | None ->
    let k = Hashtbl.length name_index in
    Hashtbl.add name_index name k;
    names := name :: !names;
    k

let record ~id ~name ~parent ~domain ~start_ns ~stop_ns =
  Mutex.lock lock;
  if !count mod chunk_spans = 0 then
    chunks :=
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout (fields * chunk_spans)
      :: !chunks;
  let a = List.hd !chunks and o = fields * (!count mod chunk_spans) in
  a.{o} <- id;
  a.{o + 1} <- intern name;
  a.{o + 2} <- parent;
  a.{o + 3} <- domain;
  a.{o + 4} <- Int64.to_int start_ns;
  a.{o + 5} <- Int64.to_int stop_ns;
  incr count;
  Mutex.unlock lock

(* [within ?parent name f] runs [f ()] inside a span.  [parent] adopts a
   span opened on another domain, for work handed to a pool worker. *)
let within ?parent name f =
  if not !on then f ()
  else begin
    let saved = Domain.DLS.get current in
    let parent = Option.value parent ~default:saved in
    let id = Atomic.fetch_and_add next_id 1 in
    Domain.DLS.set current id;
    let start_ns = now () in
    let finish () =
      let stop_ns = now () in
      Domain.DLS.set current saved;
      record ~id ~name ~parent ~domain:(Domain.self () :> int) ~start_ns ~stop_ns
    in
    Fun.protect ~finally:finish f
  end

let current_id () = Domain.DLS.get current

(* Every span recorded so far, oldest first. *)
let all () =
  Mutex.lock lock;
  let n = !count and chunks = Array.of_list (List.rev !chunks) in
  let names = Array.of_list (List.rev !names) in
  Mutex.unlock lock;
  List.init n (fun k ->
      let a = chunks.(k / chunk_spans) and o = fields * (k mod chunk_spans) in
      {
        id = a.{o};
        name = names.(a.{o + 1});
        parent = a.{o + 2};
        domain = a.{o + 3};
        start_ns = Int64.of_int a.{o + 4};
        stop_ns = Int64.of_int a.{o + 5};
      })

let dur_ns s = Int64.sub s.stop_ns s.start_ns
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Total and self time (duration minus the part covered by direct
   children) per span name, in milliseconds. *)
let totals spans =
  let child_ns = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let prev = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0L in
        Hashtbl.replace child_ns s.parent (Int64.add prev (dur_ns s)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = dur_ns s in
      let self =
        Int64.sub d (Option.value (Hashtbl.find_opt child_ns s.id) ~default:0L)
      in
      let t, sf = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0L, 0L) in
      Hashtbl.replace by_name s.name (Int64.add t d, Int64.add sf self))
    spans;
  fun name ->
    let t, sf = Option.value (Hashtbl.find_opt by_name name) ~default:(0L, 0L) in
    (ms_of_ns t, ms_of_ns sf)

let durations_ms spans name =
  List.filter_map
    (fun s -> if s.name = name then Some (ms_of_ns (dur_ns s)) else None)
    spans

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let write path spans =
  let module J = Noc_exec.Json in
  let t0 =
    List.fold_left (fun acc s -> if s.start_ns < acc then s.start_ns else acc)
      Int64.max_int spans
  in
  let us ns = J.Float (Int64.to_float ns /. 1e3) in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("ts", us (Int64.sub s.start_ns t0));
        ("dur", us (dur_ns s));
        ("pid", J.Int 1);
        ("tid", J.Int s.domain);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent) ]);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (J.to_string (J.Obj [ ("traceEvents", J.List (List.map event spans)) ]));
      output_char oc '\n')
