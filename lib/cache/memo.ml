module Metrics = Noc_exec.Metrics

type ('k, 'v) t = {
  memo_name : string;
  registry_id : int;
  hits_counter : string;
  misses_counter : string;
  evictions_counter : string;
  lock : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
}

(* The registry exists only so [clear_all] can reach every live table; it
   is keyed by id so [unregister] can drop a table again — otherwise a
   long-running process (the serve daemon) that creates request-scoped
   scratch tables would grow the registry, and root every table it ever
   made, for the life of the process. *)
let registry_lock = Mutex.create ()
let registry : (int, unit -> unit) Hashtbl.t = Hashtbl.create 16
let next_id = ref 0

let create ?(size = 64) memo_name =
  Mutex.lock registry_lock;
  let id = !next_id in
  incr next_id;
  Mutex.unlock registry_lock;
  let t =
    {
      memo_name;
      registry_id = id;
      hits_counter = "cache." ^ memo_name ^ ".hits";
      misses_counter = "cache." ^ memo_name ^ ".misses";
      evictions_counter = "cache." ^ memo_name ^ ".evictions";
      lock = Mutex.create ();
      tbl = Hashtbl.create size;
    }
  in
  Mutex.lock registry_lock;
  Hashtbl.replace registry id (fun () ->
      Mutex.lock t.lock;
      Hashtbl.reset t.tbl;
      Mutex.unlock t.lock);
  Mutex.unlock registry_lock;
  t

let unregister t =
  Mutex.lock registry_lock;
  Hashtbl.remove registry t.registry_id;
  Mutex.unlock registry_lock;
  Mutex.lock t.lock;
  Hashtbl.reset t.tbl;
  Mutex.unlock t.lock

let registered () =
  Mutex.lock registry_lock;
  let n = Hashtbl.length registry in
  Mutex.unlock registry_lock;
  n

let name t = t.memo_name

let locked t f = Mutex.protect t.lock f

let find_opt t key = locked t (fun () -> Hashtbl.find_opt t.tbl key)

let find_or_add t key compute =
  match find_opt t key with
  | Some v ->
    Metrics.incr t.hits_counter;
    v
  | None ->
    Metrics.incr t.misses_counter;
    (* compute outside the lock: a concurrent miss on the same key just
       duplicates work on a pure function; first insert wins, so every
       caller still sees one value per key *)
    let v = compute () in
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some winner -> winner
        | None ->
          Hashtbl.add t.tbl key v;
          v)

let length t = locked t (fun () -> Hashtbl.length t.tbl)
let clear t = locked t (fun () -> Hashtbl.reset t.tbl)

let remove t key =
  let removed =
    locked t (fun () ->
        if Hashtbl.mem t.tbl key then begin
          Hashtbl.remove t.tbl key;
          true
        end
        else false)
  in
  if removed then Metrics.incr t.evictions_counter;
  removed

let remove_where t pred =
  let removed =
    locked t (fun () ->
        let doomed =
          Hashtbl.fold
            (fun k _ acc -> if pred k then k :: acc else acc)
            t.tbl []
        in
        List.iter (Hashtbl.remove t.tbl) doomed;
        List.length doomed)
  in
  if removed > 0 then Metrics.incr ~by:removed t.evictions_counter;
  removed

let clear_all () =
  Mutex.lock registry_lock;
  let clears = Hashtbl.fold (fun _ f acc -> f :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.iter (fun f -> f ()) clears

let digest v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])
