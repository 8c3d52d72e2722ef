(** Synthesis as a service: a concurrent, self-defending daemon on a
    Unix socket.

    The wire protocol is newline-delimited JSON using the shared
    versioned envelope ({!Noc_exec.Json.document}): each request is one
    ["serve_request"] document on one line, answered by one
    ["serve_response"] line (field reference in docs/FORMAT.md).  A
    connection may issue any number of requests; malformed lines and
    failing requests are answered with [{"status": "error", "code":
    ...}] and never terminate the daemon.

    {2 Concurrency and self-defense}

    Accepted connections are pushed onto a bounded queue
    ({!Noc_exec.Bqueue}) drained by a pool of worker domains, so [N]
    connections are served in parallel (per-connection scratch memos
    keep them isolated) and one slow cold synthesis no longer
    head-of-line-blocks the socket.  When the queue is full the daemon
    answers immediately with [code = "overloaded"] (carrying
    [retry_after_ms]) and closes the connection instead of stalling —
    {!Client.request_with_retry} honors the hint with exponential
    backoff and jitter.

    Frames are bounded: a request line longer than {!max_line_bytes}
    is answered [code = "too_large"] and its connection closed, and a
    request nested deeper than {!Noc_exec.Json.max_depth} is a
    [bad_request].

    A request may carry [deadline_ms]: synthesis then runs under a
    {!Noc_exec.Cancel} token with a monotonic deadline, checked at
    candidate boundaries, and a request that overruns is answered with
    [code = "timeout"] within roughly one candidate's evaluation time.

    A [shutdown] request (or SIGTERM/SIGINT when
    [config.handle_signals]) drains gracefully: the socket is closed
    and unlinked first, queued connections are still served, in-flight
    work gets [config.drain_ms] to finish, and whatever remains is then
    cancelled (answered [code = "cancelled"]) before the daemon joins
    its workers and returns.  Results persisted to the store are
    written atomically throughout, so a drain never leaves a torn
    entry.

    {2 Caching}

    Cold [synth] requests run {!Noc_synthesis.Synth.run} — which fans
    candidate evaluation out across the {!Noc_exec.Pool} domain pool —
    and persist the full sweep result in a content-addressed
    {!Noc_cache.Store} keyed by a digest of the request's entire input
    (config, spec, VI assignment, result-affecting options).  A repeat
    of the same spec is answered without synthesizing, from one of two
    warm layers, named by the response's [source] field: ["memo"], an
    in-process cache of decoded results, each with its answer fields
    rendered once (microseconds — no disk read, no [Marshal] decode, no
    re-rendering), or ["store"], the persistent store
    itself (a disk hit costs the decode, milliseconds for a large
    sweep, and is promoted into the memo).  Because the store is on
    disk, warm entries survive restarts and may be shared by a fleet of
    instances; ["computed"] marks the cold path.

    [rerun] requests carry a base spec plus a {!Noc_spec.Delta} chain.
    The daemon classifies the chain with {!Noc_spec.Delta.dirty_chain}:
    a chain whose dirty set is empty (always-on toggles, core frequency
    edits — no synthesis stage reads them) re-uses the base result
    verbatim under the edited spec's key, and a dirty chain evicts
    exactly the superseded base entry from the store, evicts the stale
    in-memory memo entries via {!Noc_synthesis.Synth.rerun}, and
    re-synthesizes incrementally.  Scenario deltas are rejected with a
    pointer to [scenarios]: they edit the scenario set, not the spec.

    {2 Scenario requests (schema_version 2)}

    A [scenarios] request (envelope version 2, docs/FORMAT.md) runs
    multi-scenario selection: the union sweep is computed (or served
    warm) exactly as for [synth], then scored with
    {!Noc_synthesis.Synth.score_scenarios} against the request's
    scenario set — an explicit ["scenarios"] list of
    [{"name", "duty", "used_cores"}] objects, or the spec's/benchmark's
    declared set.  The store keys scenario answers on the request key
    extended with {!Noc_spec.Scenario.digest}, aliasing the
    scenario-independent union artifact under the scenario key: a
    repeat of the same (spec, scenario set) hits in one lookup, and a
    scenario-set edit falls back to the plain union key without
    recomputing or evicting anything.  The response adds the selection
    verdict to the usual sweep fields: [best_scenario_point],
    [weighted_power_mw], [union_baseline_mw], [scenario_digest],
    [all_feasible] and one [evals] entry per scenario (canonical
    name-sorted order) with its gated islands, active/parked flow
    counts, system power and per-scenario verification verdict. *)

module Json = Noc_exec.Json

val schema_request : string
(** ["serve_request"]. *)

val schema_response : string
(** ["serve_response"]. *)

(** Serialization of {!Noc_synthesis.Synth.result} for the store. *)
module Codec : sig
  val tag : string
  (** Codec version tag folded into {!Noc_cache.Store.namespace} — bump
      whenever the marshaled layout of [Synth.result] changes, so stale
      store entries are skipped rather than mis-decoded. *)

  val encode : Noc_synthesis.Synth.result -> string

  val decode : string -> Noc_synthesis.Synth.result option
  (** [None] on any decoding failure (payloads are already namespace- and
      checksum-guarded by the store, so this is a last-resort guard). *)

  val result_digest : Noc_synthesis.Synth.result -> string
  (** Hex digest of the result's canonical signature: every saved point's
      (power, latency, switch/indirect/link/crossing counts, wire
      length) in sweep order plus the tried/feasible/recovered counters.
      Two results with equal digests are the same sweep outcome, whether
      computed fresh, replayed from memo tables, or read back from the
      store — the bit-identity handle used by tests and [bench serve]. *)
end

type config = {
  socket_path : string;
  store_dir : string option;
      (** [None] disables persistence (in-process memo tables still make
          repeats warm within one daemon's lifetime) *)
  synth_config : Noc_synthesis.Config.t;
      (** base synthesis config; a request's [alpha] field overrides *)
  options : Noc_synthesis.Synth.Options.t;
      (** base options; request fields [seed] / [protect] override *)
  max_requests : int option;
      (** drain after this many requests (tests / smoke runs); [None]
          runs until a [shutdown] request *)
  workers : int;
      (** worker domains serving connections in parallel (default 4);
          each cold synthesis additionally fans out across the
          {!Noc_exec.Pool} — cap [options.domains] when running many
          workers on few cores *)
  queue_capacity : int;
      (** accepted connections waiting for a worker (default 16);
          beyond this, new connections are shed with [overloaded] *)
  drain_ms : int;
      (** graceful-drain budget (default 5000): how long a shutdown
          waits for in-flight work before cancelling it *)
  retry_after_ms : int;
      (** backoff hint carried by [overloaded] responses (default 50) *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT handlers that trigger a graceful drain
          (default [false] — in-process daemons in tests and benches
          must not take over the process's signal dispositions; the CLI
          sets it) *)
}

val default_config : socket_path:string -> config
(** [Config.default] synthesis config, default options, no store, no
    request limit, 4 workers, queue of 16, 5 s drain, 50 ms retry hint,
    signals not handled. *)

type state
(** One daemon's mutable state: store handle, result cache, request and
    saturation counters, and the live-token registry a drain cancels. *)

val create_state : config -> state
(** Also sweeps orphaned store temp files ({!Noc_cache.Store.gc_tmp})
    when a store is configured. *)

type spec_source
(** A request's spec source: its [spec] text or [benchmark] name, plus
    its [islands], [comm], [seed], [alpha] and [protect] fields. *)

type resolved
(** The spec a source resolves to — SoC, VI assignment, declared
    scenarios — and its {!request_key}. *)

val request_key :
  Noc_synthesis.Config.t ->
  Noc_synthesis.Synth.Options.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  string
(** The store key of a sweep: a hex digest of the config, the SoC, the VI
    assignment and the result-affecting options (seed, anneal,
    assignment strategy, protect). *)

val handle_line :
  state ->
  scratch:(spec_source, resolved) Noc_cache.Memo.t ->
  string ->
  string * [ `Continue | `Stop ]
(** Process one request line and render the response line (without the
    trailing newline).  Every exception a request can raise — parse
    errors, [Synth.No_feasible_design], [Kway.Partition_error],
    [Placer.Invalid_plan], deadline [Cancel.Cancelled], I/O failures —
    is converted to an error response with a taxonomy [code]; this
    function never raises.  [scratch] is the connection-scoped table
    from spec sources to resolved specs and keys (see {!run}): a repeat
    on one connection resolves its spec and key without parsing or
    digesting it again.  Its keys assume one [state]'s base config, so
    a [scratch] serves one [state] only.  [`Stop] is returned for a
    [shutdown] request.  Safe to call from several domains on one
    [state]. *)

val max_line_bytes : int
(** The longest request line the daemon reads (4 MiB, newline excluded).
    A connection that sends more without a newline is answered
    [code = "too_large"] and closed. *)

val error_response_of_exn : exn -> Json.t
(** The error document a failing request is answered with — exposed so
    tests can pin that typed synthesis errors ([Kway.Partition_error],
    [Placer.Invalid_plan], [No_feasible_design], ...) are classified as
    per-request diagnostics with stable [code]s, not daemon-killing
    crashes. *)

val run : config -> unit
(** Bind the socket (replacing a stale socket file), spawn the worker
    pool, and serve until a [shutdown] request, [max_requests], or (when
    [handle_signals]) SIGTERM/SIGINT — then drain as described above and
    return after every worker has been joined.  Each connection gets a
    request-scoped spec table (see {!handle_line}) that is
    {!Noc_cache.Memo.unregister}ed when the connection closes, so a
    long-lived daemon does not accumulate scratch tables; the daemon's
    own result cache is unregistered the same way on shutdown.  SIGPIPE
    is set to ignore (idempotent, never restored) so peers disconnecting
    mid-response surface as catchable write errors. *)

(** Minimal blocking client, used by the CLI [request] subcommand, the
    serve bench and the tests. *)
module Client : sig
  type t

  val connect : ?retry_for:float -> string -> t
  (** Connect to the daemon's socket.  [retry_for] (seconds, default 0)
      keeps retrying while the socket does not exist yet or refuses —
      for callers that just started the daemon.  The retry window is
      measured on the monotonic clock, so wall-clock steps neither hang
      nor truncate it. *)

  val request : t -> Json.t -> Json.t
  (** Send one request document, wait for the response line.
      @raise Failure on a closed connection or an unparsable response. *)

  val request_line : t -> string -> string
  (** Raw variant (used to exercise malformed envelopes). *)

  val request_with_retry :
    ?retries:int -> ?connect_for:float -> string -> Json.t -> Json.t
  (** [request_with_retry path json] opens a fresh connection per
      attempt (the daemon closes shed connections) and retries — up to
      [retries] times (default 5) — when the daemon answers
      [overloaded] or the connection fails mid-request, sleeping the
      response's [retry_after_ms] hint scaled by exponential backoff
      with jitter (capped at 2 s).  Returns the final response
      (possibly still [overloaded] once retries are exhausted).
      [connect_for] is each attempt's {!connect} [retry_for] (default
      5 s).
      @raise Failure (or the underlying [Unix.Unix_error]) when the
      last attempt fails outright. *)

  val close : t -> unit
end
