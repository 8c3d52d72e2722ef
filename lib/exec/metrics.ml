module Log = (val Logs.src_log Pool.log_src : Logs.LOG)

let now_ns () = Monotonic_clock.now ()

let lock = Mutex.create ()
let counters_tbl : (string, int) Hashtbl.t = Hashtbl.create 16
let timers_tbl : (string, int64 * int) Hashtbl.t = Hashtbl.create 16

let locked f = Mutex.protect lock f

let incr ?(by = 1) name =
  locked (fun () ->
      let v = Option.value (Hashtbl.find_opt counters_tbl name) ~default:0 in
      Hashtbl.replace counters_tbl name (v + by))

let counter_value name =
  locked (fun () ->
      Option.value (Hashtbl.find_opt counters_tbl name) ~default:0)

let add_ns name ns =
  locked (fun () ->
      let total, count =
        Option.value (Hashtbl.find_opt timers_tbl name) ~default:(0L, 0)
      in
      Hashtbl.replace timers_tbl name (Int64.add total ns, count + 1))

let time name f =
  let t0 = now_ns () in
  Fun.protect ~finally:(fun () -> add_ns name (Int64.sub (now_ns ()) t0)) f

let count_allocation name f =
  let s0 = Gc.quick_stat () in
  Fun.protect
    ~finally:(fun () ->
      let s1 = Gc.quick_stat () in
      (* words, truncated: both stats are exact integer-valued floats *)
      incr ~by:(int_of_float (s1.Gc.minor_words -. s0.Gc.minor_words))
        (name ^ ".minor_words");
      incr ~by:(int_of_float (s1.Gc.major_words -. s0.Gc.major_words))
        (name ^ ".major_words"))
    f

let timer_ns name =
  locked (fun () ->
      match Hashtbl.find_opt timers_tbl name with
      | Some (total, _) -> total
      | None -> 0L)

let sorted_bindings tbl =
  locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () = sorted_bindings counters_tbl

let timers () =
  sorted_bindings timers_tbl
  |> List.map (fun (name, (total, count)) -> (name, total, count))

let reset () =
  locked (fun () ->
      Hashtbl.reset counters_tbl;
      Hashtbl.reset timers_tbl)

let report () =
  List.iter
    (fun (name, v) -> Log.info (fun m -> m "counter %-32s %d" name v))
    (counters ());
  List.iter
    (fun (name, total, count) ->
      Log.info (fun m ->
          m "timer   %-32s %.3f ms over %d run%s" name
            (Int64.to_float total /. 1e6)
            count
            (if count = 1 then "" else "s")))
    (timers ())

let to_json () =
  Json.to_string
    (Json.document ~kind:"metrics"
       [
         ( "counters",
           Json.Obj
             (List.map (fun (name, v) -> (name, Json.Int v)) (counters ())) );
         ( "timers_ns",
           Json.Obj
             (List.map
                (fun (name, total, count) ->
                  ( name,
                    Json.Obj
                      [
                        ("total_ns", Json.Int (Int64.to_int total));
                        ("count", Json.Int count);
                      ] ))
                (timers ())) );
       ])
