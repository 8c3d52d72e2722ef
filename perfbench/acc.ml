(* What a run accumulates: operations attempted and failed, output-check
   failures, and named samples for the metrics. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  samples : (string, float list) Hashtbl.t;
}

let create () =
  { attempted = 0; failed = 0; problems = []; samples = Hashtbl.create 64 }

let attempt t = t.attempted <- t.attempted + 1
let fail t = t.failed <- t.failed + 1

let problem t fmt =
  Printf.ksprintf (fun m -> t.problems <- m :: t.problems) fmt

let expect t cond fmt =
  Printf.ksprintf (fun m -> if not cond then t.problems <- m :: t.problems) fmt

(* [guard t what f] runs [f ()]; an exception in it is a problem. *)
let guard t what f =
  try f () with ex -> problem t "%s raised %s" what (Printexc.to_string ex)

let add t name x =
  Hashtbl.replace t.samples name
    (x :: Option.value (Hashtbl.find_opt t.samples name) ~default:[])

let samples t name = Option.value (Hashtbl.find_opt t.samples name) ~default:[]

(* [add_item t name item x] records [x] as a sample of [name] for one of
   several items that differ in cost: an input, an edit slot, a served
   spec.  A metric over them combines each item's median, so neither the
   mix of items in the run nor a gap between their costs can move it. *)
let add_item t name item x = add t (name ^ "/" ^ item) x

(* The samples of [name], one list per item. *)
let items t name =
  let prefix = name ^ "/" in
  Hashtbl.fold
    (fun k v acc -> if String.starts_with ~prefix k then v :: acc else acc)
    t.samples []

let now = Noc_exec.Metrics.now_ns

let ms_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e6

(* [timed f] is [f ()] with its wall time in milliseconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let digest = Noc_serve.Serve.Codec.result_digest
