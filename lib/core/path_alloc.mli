(** Step 15 of Algorithm 1: least-cost path computation for every flow, in
    decreasing bandwidth order.

    The cost of a hop is a linear combination ([Config.beta]) of the power
    increase of opening/reusing the link and of the hop's latency relative
    to the flow's constraint.  Opening rules enforce shutdown safety by
    construction: a new inter-switch link is legal only inside one island,
    directly from the flow's source island to its destination island, or
    to/from/inside the always-on intermediate NoC VI — never through a
    third shutdownable island.

    If the cheapest path of a flow busts its latency constraint, the flow is
    retried with a pure-latency cost.  If a flow still has no admissible
    path, the allocator recovers transactionally instead of rejecting the
    candidate outright: it checkpoints the topology (see
    {!Topology.checkpoint}), rips up the cheapest committed flows holding
    the congested links, routes the failed flow, re-routes the ripped-up
    flows hottest-first, and rolls everything back if any step fails.  A
    failed recovery falls back to restarting the allocation from the
    pristine topology with the troublesome flows prioritised (at most
    twice); only then is the candidate rejected (the paper only saves
    design points where "paths found for all flows"). *)

type error = {
  flow : Noc_spec.Flow.t;
  reason : [ `No_path | `Latency of int (** cycles over budget *) ];
}

type engine = Flat
(** The one search engine: A* over the flat adjacency, with the exact
    hop-cost floor into the target as its constant heuristic (see
    docs/ALGORITHM.md, "The flat core and A*").  {!route_all} still
    accepts and ignores an [?engine] argument, and
    {!Synth.Options.routing} still names this type, so callers written
    when the library had a second engine keep compiling. *)

type stats = {
  ripups : int;    (** committed flows ripped up by successful recoveries *)
  reroutes : int;  (** ripped-up flows re-committed (equal to [ripups]) *)
  rollbacks : int; (** recoveries abandoned via checkpoint rollback *)
  restarts : int;  (** full restarts from the pristine topology *)
}
(** What recovery did during one [route_all] call.  All-zero when every
    flow routed first try.  The same events are aggregated process-wide in
    {!Noc_exec.Metrics} under [path_alloc.ripups], [path_alloc.reroutes],
    [path_alloc.rollbacks] and [path_alloc.restarts] ([path_alloc.ripups]
    also counts rip-ups later undone by a rollback; the [stats] field only
    counts those that survived). *)

val route_all :
  ?priority:(int * int) list ->
  ?cache:bool ->
  ?engine:engine ->
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Topology.t ->
  clocks:Freq_assign.island_clock array ->
  (stats, error) result
(** Mutates the topology: creates links and commits all routes on success
    (and clears the topology's undo journal).  On error the topology must
    be discarded (links of already-routed flows remain).  Flows are
    processed in {!by_bandwidth} order — except that flows whose
    [(src, dst)] appears in
    [priority] are routed first, in [priority] order.  Failures recover
    in place per the module description; the result reports what recovery
    had to do.  Deterministic: identical inputs produce identical
    topologies, routes and stats.

    Each call adds its search counts to {!Noc_exec.Metrics}:
    [path_alloc.searches] (A* searches), [path_alloc.hop_costs] (hop
    kernel evaluations, the heuristic's floor pass included) and
    [path_alloc.hop_skips] (hops the search's lower bound dropped before
    costing them).

    [cache] and [engine] are ignored: the hop cost has no memo left to
    switch off (see docs/ALGORITHM.md, "The closed-form hop kernel"),
    and there is one engine (see {!engine}).
    @raise Invalid_argument if two switches of one island (or of the
    intermediate VI) differ in supply or clock. *)

val pp_error : Format.formatter -> error -> unit

val by_bandwidth : Noc_spec.Flow.t -> Noc_spec.Flow.t -> int
(** The routing order: decreasing bandwidth, ties broken by (src, dst)
    for determinism.  Recovery re-routes ripped-up flows in this order,
    and protected synthesis allocates backup routes in it. *)

(** {2 Fault masks and incremental sessions}

    A {!mask} removes switches and directed links from the allocator's
    view: masked resources are neither reused nor reopened by the search.
    The fault analyzer ({!Noc_fault}) repairs severed flows through a
    masked {!session}; protected synthesis allocates backup routes through
    an unmasked one. *)

type mask = {
  dead_switch : int -> bool;
  dead_link : int -> int -> bool;  (** directed, [dead_link src dst] *)
}

val no_mask : mask
(** Masks nothing. *)

val mask_union : mask -> mask -> mask
(** A resource is dead if either argument says so. *)

type session
(** Mutable routing state bound to one topology, for incremental
    (re-)routing outside [route_all].  Not thread-safe; use one session —
    and one {!Topology.copy} — per worker. *)

val session :
  ?mask:mask ->
  Config.t ->
  Topology.t ->
  clocks:Freq_assign.island_clock array ->
  session
(** Recounts ports and capacities from the topology as it stands.  Links
    already dropped by a fault should be removed (rip up their flows)
    before the session is created so the counters match the survivor
    fabric; the mask then prevents reopening them.  {!reroute} and
    {!route_backup} add their search counts to {!Noc_exec.Metrics} as
    {!route_all} does.
    @raise Invalid_argument if two switches of one island (or of the
    intermediate VI) differ in supply or clock. *)

val discard : session -> Noc_spec.Flow.t -> bool
(** Rip up the committed route of the flow (see {!Topology.remove_flow})
    and keep the session's port accounting in step.  Returns [false] if
    the flow had no committed route. *)

val reroute : session -> Noc_spec.Flow.t -> (unit, error) result
(** Route the (currently unrouted) flow under the session's mask and the
    usual shutdown/latency/capacity rules: first directly, then via the
    transactional rip-up-and-reroute recovery.  On [Error] the topology is
    exactly as before the call (failed recoveries roll back). *)

val route_backup : session -> Noc_spec.Flow.t -> (unit, error) result
(** Allocate a protection route for a flow that already has a committed
    primary: switch-disjoint from the primary when port budgets allow,
    otherwise link-disjoint (directed).  The backup obeys every opening
    rule and the flow's latency budget, opens real links/ports, but
    commits no bandwidth ({!Topology.commit_backup}).  NI-local flows
    (source and destination on one switch) need no backup and return
    [Ok ()].
    @raise Invalid_argument if the flow has no committed primary route. *)
