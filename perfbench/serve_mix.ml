(* The serve mix: [noc_synth serve] as a child process, driven over one
   connection at a time in a closed loop.  Each round runs two sessions
   on fresh stores — cold answers (computed), a restart, store answers —
   and the warm phase (memo answers) in slices between them. *)

module Json = Noc_exec.Json
module Synth = Noc_synthesis.Synth
module Config = Noc_synthesis.Config
module Serve = Noc_serve.Serve
module Store = Noc_cache.Store
module Memo = Noc_cache.Memo
module Spec_io = Noc_spec.Spec_io

type daemon = { pid : int; ic : in_channel; oc : out_channel }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Unix.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else
    let data = In_channel.with_open_bin src In_channel.input_all in
    Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* High-water RSS of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      0.0
      (String.split_on_char '\n' text)

let socket_path dir = Filename.concat dir "serve.sock"

(* The daemon synthesizes on one domain (NOC_JOBS=1), whatever the
   caller's environment says. *)
let environment () =
  Array.append
    [| "NOC_JOBS=1" |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"NOC_JOBS=" kv))
          (Array.to_list (Unix.environment ()))))

(* Daemons not yet stopped; [kill_all] ends them if a run aborts. *)
let live : int list ref = ref []

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> live := List.filter (( <> ) pid) !live
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let send d line =
  output_string d.oc line;
  output_char d.oc '\n';
  flush d.oc;
  input_line d.ic

(* Start the daemon and wait for its first answered ping, polling the
   socket every half millisecond. *)
let start ~exe ~dir ~store =
  let socket = socket_path dir in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; socket; "--store"; store; "--workers"; "2" |]
      (environment ()) null log log
  in
  live := pid :: !live;
  Unix.close log;
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "serve daemon exited before listening");
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        reap pid;
        failwith "serve daemon did not listen within 30 s"
      end;
      Unix.sleepf 0.0005;
      connect ()
  in
  let fd = connect () in
  let d =
    { pid; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  in
  let pong =
    send d
      (Json.to_string
         (Json.document ~kind:"serve_request" [ ("op", Json.String "ping") ]))
  in
  (match Json.of_string pong with
  | Ok doc when Json.member "pong" doc = Some (Json.Bool true) -> ()
  | _ -> failwith "serve daemon did not answer ping");
  d

(* Ask the daemon to shut down and wait for it, killing it if it has not
   exited within ten seconds. *)
let stop d =
  (try
     ignore
       (send d
          (Json.to_string
             (Json.document ~kind:"serve_request" [ ("op", Json.String "shutdown") ])))
   with End_of_file | Sys_error _ -> ());
  close_in_noerr d.ic;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.001;
      wait ()
    | 0, _ ->
      prerr_endline "perfbench: daemon ignored shutdown; killed";
      Unix.kill d.pid Sys.sigkill;
      reap d.pid
    | _ -> live := List.filter (( <> ) d.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

type answer = { source : string; digest : string; key : string; elapsed_ms : float }

let parse_answer acc label line =
  match Json.of_string line with
  | Error e ->
    Acc.problem acc "%s: unparsable response: %s" label e;
    None
  | Ok doc ->
    let str k = match Json.member k doc with Some (Json.String s) -> s | _ -> "" in
    if str "status" <> "ok" then begin
      Acc.problem acc "%s: %s %s" label (str "code") (str "error");
      None
    end
    else
      Some
        {
          source = str "source";
          digest = str "result_digest";
          key = str "key";
          elapsed_ms =
            (match Json.member "elapsed_ns" doc with
            | Some (Json.Int ns) -> float_of_int ns /. 1e6
            | _ -> 0.0);
        }

(* Every answer for a spec must carry the digest of the first one; after
   the measured rounds, [finish] compares that digest with a local
   uncached one-domain sweep of the spec. *)
type memory = { served : string option array }

let memory (inputs : Inputs.t) =
  { served = Array.make (List.length inputs.Inputs.serve) None }

let reference (s : Inputs.serve_spec) =
  Synth.run
    ~options:{ Synth.Options.default with Synth.Options.cache = false; domains = Some 1 }
    Config.default s.Inputs.soc s.Inputs.vi

let finish acc mem (inputs : Inputs.t) =
  List.iteri
    (fun k (s : Inputs.serve_spec) ->
      Acc.guard acc (s.Inputs.label ^ " reference sweep") (fun () ->
          Acc.expect acc
            (mem.served.(k) = Some (Acc.digest (reference s)))
            "%s: served digest differs from a local uncached sweep" s.Inputs.label))
    inputs.Inputs.serve

(* In-process probes of the layers the daemon runs, for the traced run:
   [Serve.handle_line] over a copy of the store, the codec, the store,
   and the spec parser. *)
let probe_layers acc (inputs : Inputs.t) ~dir ~store ~keys =
  let copy = Filename.concat dir "store-copy" in
  rm_rf copy;
  copy_tree store copy;
  let state =
    Serve.create_state
      { (Serve.default_config ~socket_path:"") with Serve.store_dir = Some copy }
  in
  let scratch = Memo.create "perfbench.scratch" in
  List.iter
    (fun (s : Inputs.serve_spec) ->
      List.iter
        (fun source ->
          let (line, _), ms =
            Acc.timed (fun () -> Serve.handle_line state ~scratch s.Inputs.line)
          in
          match parse_answer acc s.Inputs.label line with
          | Some a ->
            Acc.expect acc (a.source = source)
              "%s: in-process answer from %s, expected %s"
              s.Inputs.label a.source source;
            Acc.add acc ("serve.handle_line_ms." ^ source) ms
          | None -> ())
        [ "store"; "memo" ])
    inputs.Inputs.serve;
  Memo.unregister scratch;
  let handle = Store.open_store ~tag:Serve.Codec.tag copy in
  let fresh = Filename.concat dir "store-add" in
  rm_rf fresh;
  let added = Store.open_store ~tag:Serve.Codec.tag fresh in
  Array.iteri
    (fun k key ->
      match Acc.timed (fun () -> Store.find handle key) with
      | None, _ -> Acc.problem acc "store copy lacks entry %d" k
      | Some payload, find_ms -> (
        Acc.add acc "cache.store.find_ms" find_ms;
        Acc.add acc "cache.store.bytes" (float_of_int (String.length payload));
        match Acc.timed (fun () -> Serve.Codec.decode payload) with
        | None, _ -> Acc.problem acc "store entry %d does not decode" k
        | Some r, ms ->
          Acc.add acc "serve.codec.decode_ms" ms;
          let _, ms = Acc.timed (fun () -> Serve.Codec.result_digest r) in
          Acc.add acc "serve.codec.digest_ms" ms;
          let payload, ms = Acc.timed (fun () -> Serve.Codec.encode r) in
          Acc.add acc "serve.codec.encode_ms" ms;
          let (), ms = Acc.timed (fun () -> Store.add added key payload) in
          Acc.add acc "cache.store.add_ms" ms))
    keys;
  List.iter
    (fun (s : Inputs.serve_spec) ->
      Option.iter
        (fun text ->
          let _, ms = Acc.timed (fun () -> Spec_io.parse text) in
          Acc.add acc "spec.parse_ms" ms)
        s.Inputs.spec_text)
    inputs.Inputs.serve;
  rm_rf copy;
  rm_rf fresh

(* One round of the serve mix: two sessions, each a daemon on a fresh
   store (cold phase) that is later restarted on the same store (store
   phase), with the warm phase sent in slices between them.  Spreading the
   phases over the round makes their figures sample the whole run rather
   than one moment of it. *)
type round = {
  acc : Acc.t;
  mem : memory;
  inputs : Inputs.t;
  exe : string;
  dir : string;
  traced : bool;
  index : int;
  keys : string array;
  mutable daemon : daemon option;
  mutable store : string;
  mutable slice : int;  (** warm slices sent so far *)
  mutable sent : int;  (** warm requests answered so far *)
  mutable rss : float;
}

let sessions = 2

(* Warm slices per round; [tick] sends one. *)
let slices = 20

let ask r ~phase ~expect k =
  let d = Option.get r.daemon in
  let s = List.nth r.inputs.Inputs.serve k in
  let acc = r.acc in
  Acc.attempt acc;
  let request =
    if r.traced then
      Spans.within "exec.json.print" (fun () -> Json.to_string s.Inputs.request)
    else s.Inputs.line
  in
  let reply, ms =
    Acc.timed (fun () -> match send d request with l -> Ok l | exception ex -> Error ex)
  in
  let answer =
    match reply with
    | Error ex ->
      Acc.problem acc "%s: request raised %s" s.Inputs.label (Printexc.to_string ex);
      None
    | Ok line ->
      if r.traced then
        Acc.add acc "exec.json.bytes"
          (float_of_int (String.length request + String.length line));
      Spans.within "exec.json.parse" (fun () -> parse_answer acc s.Inputs.label line)
  in
  match answer with
  | None -> Acc.fail acc
  | Some a ->
    Acc.expect acc (a.source = expect) "%s phase: %s answered from %s" phase
      s.Inputs.label a.source;
    (match r.mem.served.(k) with
    | None -> r.mem.served.(k) <- Some a.digest
    | Some d ->
      Acc.expect acc (a.digest = d) "%s phase: %s answered a different result" phase
        s.Inputs.label);
    r.keys.(k) <- a.key;
    Acc.add_item acc phase (string_of_int k) ms;
    if r.traced then begin
      Acc.add acc ("serve.daemon_ms." ^ a.source) a.elapsed_ms;
      if a.source = "memo" then Acc.add acc "serve.transport_ms" (ms -. a.elapsed_ms)
    end

let each_spec r f = List.iteri (fun k _ -> f k) r.inputs.Inputs.serve

let stop_daemon r =
  Option.iter
    (fun d ->
      r.rss <- Float.max r.rss (peak_rss_mb (string_of_int d.pid));
      stop d)
    r.daemon;
  r.daemon <- None

(* Stop the running daemon, if any, and start one on [store]. *)
let restart r store =
  stop_daemon r;
  r.store <- store;
  r.daemon <- Some (start ~exe:r.exe ~dir:r.dir ~store)

let cold_phase r session =
  let store = Filename.concat r.dir (Printf.sprintf "store-%d-%d" r.index session) in
  rm_rf store;
  restart r store;
  each_spec r (ask r ~phase:"cold_ms" ~expect:"computed")

let store_phase r =
  restart r r.store;
  each_spec r (ask r ~phase:"store_hit_ms" ~expect:"store")

let open_round acc mem ~exe ~dir ~traced ~index (inputs : Inputs.t) =
  let r =
    {
      acc; mem; inputs; exe; dir; traced; index;
      keys = Array.make (List.length inputs.Inputs.serve) "";
      daemon = None; store = ""; slice = 0; sent = 0; rss = 0.0;
    }
  in
  cold_phase r 0;
  r

(* One warm slice: the next [1/slices] of the round's warm order, timed
   as one sample of the answer rate.  Sessions change hands at fixed
   slices: each session's store phase halfway through it, the next
   session's cold phase at its start. *)
let tick r =
  if r.slice < slices then begin
    let order = r.inputs.Inputs.warm_order in
    let target = Array.length order * (r.slice + 1) / slices in
    let n = target - r.sent in
    let t0 = Acc.now () in
    while r.sent < target do
      ask r ~phase:"memo_ms" ~expect:"memo" order.(r.sent);
      r.sent <- r.sent + 1
    done;
    Acc.add r.acc "warm_req_per_s" (float_of_int n /. (Acc.ms_since t0 /. 1e3));
    r.slice <- r.slice + 1;
    let per_session = slices / sessions in
    if r.slice < slices then
      if r.slice mod per_session = per_session / 2 then store_phase r
      else if r.slice mod per_session = 0 then cold_phase r (r.slice / per_session)
  end

(* Send the slices the round did not reach, then stop the daemon. *)
let close_round r =
  while r.slice < slices do
    tick r
  done;
  stop_daemon r;
  Acc.add r.acc "daemon_rss_mb" r.rss;
  if r.traced then probe_layers r.acc r.inputs ~dir:r.dir ~store:r.store ~keys:r.keys;
  for session = 0 to sessions - 1 do
    rm_rf (Filename.concat r.dir (Printf.sprintf "store-%d-%d" r.index session))
  done

(* One set-up: make the inputs, then start a daemon on an empty store and
   wait for its first answered ping.  Returns the inputs and the time. *)
let setup ~exe ~dir ~seed =
  let t0 = Acc.now () in
  let inputs = Inputs.make seed in
  let store = Filename.concat dir "store-setup" in
  rm_rf store;
  let d = start ~exe ~dir ~store in
  let ms = Acc.ms_since t0 in
  stop d;
  rm_rf store;
  (inputs, ms)
