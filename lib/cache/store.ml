module Metrics = Noc_exec.Metrics

type t = {
  root : string;
  namespace : string;
  lock : Mutex.t;
}

(* 4: [Topology.t] grew its per-switch NI count.  Stored results are
   marshalled [Synth.result]s, topologies included, and unmarshalling a
   value of the old layout at the new type is undefined behaviour, not a
   decode error, so the namespace must retire version-3 entries.  (3:
   synthesis options lost the [prune] field, which the serve daemon's
   request keys digested, so a version-2 key names a different input
   tuple.  2: the options grew the routing-engine field.) *)
let format_version = 4

let namespace ?(tag = "") () =
  Printf.sprintf "%d/ocaml-%s/%s" format_version Sys.ocaml_version tag

let magic = "noc-store"

let ensure_dir dir =
  (* racing creators are fine: only a still-missing directory is an error *)
  if not (Sys.file_exists dir) then (
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ());
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Store: %s exists and is not a directory" dir)

let open_store ?tag root =
  ensure_dir root;
  { root; namespace = namespace ?tag (); lock = Mutex.create () }

let root t = t.root

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The file name hashes (namespace, key), so incompatible builds never
   collide on a path; the header re-states the namespace for defense in
   depth (e.g. a store directory copied between machines mid-upgrade). *)
let hash_of t key = Digest.to_hex (Digest.string (t.namespace ^ "\x00" ^ key))
let shard_of hash = String.sub hash 0 2
let path_of t key =
  let hash = hash_of t key in
  Filename.concat (Filename.concat t.root (shard_of hash)) hash

let header t payload =
  Printf.sprintf "%s %s %s %d\n" magic t.namespace
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

(* ---------- reading ---------- *)

type entry = Payload of string | Absent | Incompatible | Corrupt

let read_entry t path =
  match open_in_bin path with
  | exception Sys_error _ -> Absent
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> Corrupt
        | line ->
          (match String.split_on_char ' ' line with
          | [ m; ns; digest; len ] when m = magic ->
            if ns <> t.namespace then Incompatible
            else (
              match int_of_string_opt len with
              | None -> Corrupt
              | Some len ->
                (match really_input_string ic len with
                | exception End_of_file -> Corrupt
                | payload ->
                  if
                    pos_in ic = in_channel_length ic
                    && Digest.to_hex (Digest.string payload) = digest
                  then Payload payload
                  else Corrupt))
          | _ -> Corrupt))

let find t key =
  let entry = locked t (fun () -> read_entry t (path_of t key)) in
  (match entry with
  | Payload _ -> Metrics.incr "store.hits"
  | Absent -> Metrics.incr "store.misses"
  | Incompatible ->
    Metrics.incr "store.incompatible";
    Metrics.incr "store.misses"
  | Corrupt ->
    Metrics.incr "store.corrupt";
    Metrics.incr "store.misses");
  match entry with Payload p -> Some p | _ -> None

let mem t key =
  match locked t (fun () -> read_entry t (path_of t key)) with
  | Payload _ -> true
  | Absent | Incompatible | Corrupt -> false

(* ---------- writing ---------- *)

let add t key payload =
  locked t (fun () ->
      let path = path_of t key in
      let dir = Filename.dirname path in
      ensure_dir dir;
      (* write-then-rename: a reader of [path] sees the old complete
         entry or the new complete entry, never a prefix *)
      let tmp = Filename.temp_file ~temp_dir:dir ".wip" ".tmp" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
        (fun () ->
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              output_string oc (header t payload);
              output_string oc payload);
          Sys.rename tmp path));
  Metrics.incr "store.writes"

let remove t key =
  let removed =
    locked t (fun () ->
        let path = path_of t key in
        if Sys.file_exists path then (
          Sys.remove path;
          true)
        else false)
  in
  if removed then Metrics.incr "store.evictions";
  removed

(* ---------- maintenance ---------- *)

let fold_entry_paths t f acc =
  let shards = try Sys.readdir t.root with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc shard ->
      let dir = Filename.concat t.root shard in
      if String.length shard = 2 && Sys.is_directory dir then
        Array.fold_left
          (fun acc file -> f acc (Filename.concat dir file))
          acc (Sys.readdir dir)
      else acc)
    acc shards

(* A writer killed between [temp_file] and [rename] (or whose
   [Fun.protect] cleanup never ran — power loss, SIGKILL) leaves a
   [.wip*.tmp] file in the shard directory.  Readers never look at tmp
   names, so orphans are invisible to [find] — this is pure disk
   hygiene.  [max_age_s] guards the race against live concurrent
   writers: their tmp files exist for milliseconds, so anything older
   by mtime is an orphan. *)
let gc_tmp ?(max_age_s = 60.0) t =
  let now = Unix.gettimeofday () in
  let removed =
    locked t (fun () ->
        let shards = try Sys.readdir t.root with Sys_error _ -> [||] in
        Array.fold_left
          (fun acc shard ->
            let dir = Filename.concat t.root shard in
            if String.length shard = 2 && Sys.is_directory dir then
              Array.fold_left
                (fun acc file ->
                  if
                    String.length file > 4
                    && String.sub file 0 4 = ".wip"
                    && Filename.check_suffix file ".tmp"
                  then (
                    let path = Filename.concat dir file in
                    match Unix.stat path with
                    | exception Unix.Unix_error _ -> acc
                    | st ->
                      if now -. st.Unix.st_mtime >= max_age_s then (
                        try
                          Sys.remove path;
                          acc + 1
                        with Sys_error _ -> acc)
                      else acc)
                  else acc)
                acc (Sys.readdir dir)
            else acc)
          0 shards)
  in
  if removed > 0 then Metrics.incr ~by:removed "store.tmp_gc";
  removed

let length t =
  locked t (fun () ->
      fold_entry_paths t
        (fun acc path ->
          match read_entry t path with
          | Payload _ -> acc + 1
          | Absent | Incompatible | Corrupt -> acc)
        0)

let clear t =
  locked t (fun () ->
      fold_entry_paths t
        (fun () path ->
          match read_entry t path with
          | Payload _ -> Sys.remove path
          | Absent | Incompatible | Corrupt -> ())
        ())
