(** The paper's Algorithm 1, end to end: sweep the switch count of every
    island from its minimum to one-per-core, and the indirect switch count
    of the intermediate NoC VI, routing all flows for each candidate and
    saving every feasible design point. *)

type result = {
  points : Design_point.t list;
      (** all feasible design points, in sweep order *)
  plan : Noc_floorplan.Placer.plan;  (** the core placement used *)
  clocks : Freq_assign.island_clock array;
  candidates_tried : int;
  candidates_feasible : int;
  candidates_recovered : int;
      (** feasible candidates that only routed thanks to
          {!Path_alloc}'s rip-up/reroute recovery (each re-checked with
          {!Verify.check_all} before being saved) *)
}

exception No_feasible_design of string

(** Every knob of a synthesis run in one record, so call sites name only
    what they change:
    [{ Options.default with seed = 7; protect = true }]. *)
module Options : sig
  type t = {
    seed : int;  (** placement annealing and min-cut tie-breaking *)
    anneal : bool;
        (** simulated-annealing placement refinement before synthesis *)
    assignment_strategy : Switch_alloc.strategy;
        (** how cores map to switches; {!Switch_alloc.Round_robin} is the
            ablation baseline quantifying what min-cut grouping buys *)
    protect : bool;
        (** additionally allocate a backup route per multi-hop flow
            ({!Path_alloc.route_backup}: switch-disjoint where port budgets
            allow, link-disjoint otherwise) and verify every saved point
            with [Verify.check_all ~require_backups:true]; candidates whose
            flows cannot all be protected are rejected as infeasible *)
    domains : int option;
        (** worker domains for candidate evaluation; [None] means
            {!Noc_exec.Pool.default_domains} ([--jobs] / [NOC_JOBS]).
            Results are identical for any domain count. *)
    cache : bool;
        (** memoize sub-problems process-wide: per-island min-cut
            partitions, per-island clock assignment, the (annealed)
            floorplan and whole candidate evaluations.  Every table is keyed on a content digest of the projection of
            the spec that sub-problem reads, which is what makes {!rerun}
            incremental.  Cached and uncached runs are bit-identical (see
            ALGORITHM.md, "Memoization soundness" and "Incremental
            invalidation"); hit/miss/eviction counts appear in
            {!Noc_exec.Metrics} under [cache.*]. *)
    routing : Path_alloc.engine;
        (** ignored: {!Path_alloc} has one search engine
            ({!Path_alloc.engine}).  Kept so callers that set it still
            compile; excluded from every memo and store key. *)
    cancel : Noc_exec.Cancel.t;
        (** cooperative cancellation token, checked once at the start of
            {!run} and once per candidate at the sweep boundary.  When it
            fires (explicit {!Noc_exec.Cancel.cancel} or a deadline),
            {!run} raises {!Noc_exec.Cancel.Cancelled} within roughly one
            candidate's evaluation time, before any result is assembled —
            a cancelled run never produces a partial [result].  Like
            [domains]/[cache], the token does not participate in
            memo keys: per-candidate entries computed before the
            cancellation are sound and survive for the next run.  Default
            {!Noc_exec.Cancel.never}. *)
  }

  val default : t
  (** [{ seed = 0; anneal = true; assignment_strategy = Min_cut;
        protect = false; domains = None; cache = true;
        routing = Path_alloc.Flat; cancel = Cancel.never }] *)
end

val run :
  ?options:Options.t -> Config.t -> Noc_spec.Soc_spec.t -> Noc_spec.Vi.t -> result
(** Deterministic for a fixed {!Options.t}: identical inputs produce
    identical results, for any [domains] count and whether or not [cache]
    is enabled.
    @raise No_feasible_design if no candidate routes all flows within
    constraints.
    @raise Freq_assign.Infeasible if some island cannot clock high enough. *)

val rerun :
  ?options:Options.t ->
  prev:result ->
  delta:Noc_spec.Delta.t list ->
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  (Noc_spec.Soc_spec.t * Noc_spec.Vi.t) * result
(** Incremental re-synthesis after a chain of spec edits.  [soc]/[vi]
    are the {e base} spec that produced [prev] (under the same
    [options]); the deltas are applied in order and the edited spec is
    returned with the new result.

    [rerun] computes the chain's dirty sets per delta kind
    ({!Noc_spec.Delta.dirty_chain}), evicts exactly the stale entries
    from the clock / floorplan / partition / evaluation memo tables
    (observable as [cache.*.evictions] metrics), and re-runs synthesis.
    Because every memo key is a content digest of that sub-problem's
    full read set, the result is {e bit-identical} to a from-scratch
    {!run} on the edited spec — same points in the same order, same
    counts — for any domain count.  The speedup depends on the delta
    kind: edits no synthesis stage reads (always-on toggles, core
    frequency constraints) resolve every candidate from the evaluation
    memo, while flow edits re-route candidates but still reuse untouched
    islands' clocks and partitions.

    @raise Invalid_argument if a delta does not apply to the spec, or if
    [prev] is inconsistent with [(config, soc, vi)].
    @raise No_feasible_design / [Freq_assign.Infeasible] as {!run}, for
    the edited spec. *)

val invalidate :
  ?options:Options.t ->
  prev:result ->
  delta:Noc_spec.Delta.t list ->
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  Noc_spec.Soc_spec.t * Noc_spec.Vi.t
(** The eviction half of {!rerun}, exposed for cache-invalidation tests:
    applies the delta chain, evicts the stale memo entries (when
    [options.cache]), and returns the edited spec without re-running
    synthesis.  Eviction is hygiene, not correctness — stale entries are
    unreachable anyway because every key digests its inputs — so the
    counters it bumps ([cache.clocks.evictions], [cache.plan.evictions],
    [cache.partition.evictions], [cache.eval.evictions]) are the
    specification of "exactly the affected entries". *)

(** {2 Multi-scenario synthesis}

    One topology across usage modes (ROADMAP item 3): the union spec's
    flows are routed once, and the sweep's feasible points are then
    judged against a {!Noc_spec.Scenario} set — each scenario gating its
    dead islands off — selecting by duty-cycle-weighted system power
    instead of raw NoC power. *)

(** One scenario's report on the selected design point. *)
type scenario_eval = {
  scenario : Noc_spec.Scenario.t;
  gated : int list;  (** islands gated off in this scenario *)
  active_flows : int;  (** flows with both endpoints used *)
  parked_flows : int;
      (** flows terminating in an unused core: off by design in this
          scenario, not degradation *)
  power_mw : float;
      (** system power in this scenario with shutdown applied
          ([Shutdown.leakage_report]'s [power_with_shutdown_mw]) *)
  verified : (unit, Verify.violation list) Stdlib.result;
      (** full {!Verify.check_all} of the topology projected onto this
          scenario's flow subset (inactive flows un-routed, their
          exclusive links dropped, stale backups pruned), against the
          full-spec island clocks *)
}

type scenarios_result = {
  union : result;  (** the underlying union-spec sweep *)
  best : Design_point.t;
      (** duty-weighted-power argmin over the sweep points feasible in
          every scenario (sweep order breaks ties) *)
  weighted_power_mw : float;  (** [best]'s duty-weighted system power *)
  union_baseline_mw : float;
      (** duty-weighted system power of the naive choice — the union
          sweep's {!best_power} point.  [weighted_power_mw <=
          union_baseline_mw] always: the argmin ranges over a set
          containing that point (unless it fails scenario verification,
          in which case it was never a valid baseline). *)
  evals : scenario_eval list;  (** canonical (name-sorted) order *)
}

val run_scenarios :
  ?options:Options.t ->
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  scenarios:Noc_spec.Scenario.t list ->
  scenarios_result
(** Multi-scenario synthesis: {!run} on the union spec, then scenario
    scoring/selection ({!score_scenarios}).  Deterministic exactly like
    {!run} — and additionally invariant under scenario-list permutation,
    because every duty-weighted float fold runs in canonical
    (name-sorted) scenario order.  Scenario membership and duty cycles
    are deliberately absent from every synthesis memo key, so the union
    sweep's caches stay warm across scenario edits.
    @raise Invalid_argument on an invalid scenario set (typed
    {!Noc_spec.Scenario.error} rendered in the message), an empty set,
    or a scenario sized for a different core count.
    @raise No_feasible_design if no candidate routes the union flows, or
    no sweep point verifies in every scenario. *)

val score_scenarios :
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  scenarios:Noc_spec.Scenario.t list ->
  result ->
  scenarios_result
(** The pure scoring/selection half of {!run_scenarios}, applied to an
    existing union sweep result (the serve daemon's warm path re-scores
    a stored sweep under a new scenario set without re-synthesizing).
    Selection: filter points surviving every scenario's gating
    ({!Shutdown.Scoring.survives}), take the duty-weighted-power argmin,
    fully re-verify it per scenario, and on any verification failure
    exclude it and repeat.  The set is validated and prepared once
    ({!Shutdown.Scoring.prepare}); each point then costs one topology
    pass and one walk over its primary routes.
    @raise Invalid_argument / [No_feasible_design] as {!run_scenarios}. *)

val rerun_scenarios :
  ?options:Options.t ->
  prev:scenarios_result ->
  delta:Noc_spec.Delta.t list ->
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  scenarios:Noc_spec.Scenario.t list ->
  (Noc_spec.Soc_spec.t * Noc_spec.Vi.t * Noc_spec.Scenario.t list)
  * scenarios_result
(** {!rerun} generalized to scenario bundles.  The delta chain may mix
    spec edits and scenario edits ({!Noc_spec.Delta.apply_bundle}).  A
    chain whose dirty set is synthesis-clean — scenario weight or
    membership edits, always-on toggles, core frequency changes — reuses
    [prev.union] verbatim and only re-runs the scoring pass (metric
    [synth.scenario_rescore]); a synthesis-dirty chain evicts exactly
    the stale cache entries and re-sweeps.  Bit-identical to a fresh
    {!run_scenarios} on the edited bundle either way. *)

val best_power : result -> Design_point.t
(** Feasible point with the lowest total NoC power (the paper's headline
    metric); ties broken towards lower average latency. *)

val best_latency : result -> Design_point.t
(** Feasible point with the lowest average zero-load latency; ties broken
    towards lower power. *)
