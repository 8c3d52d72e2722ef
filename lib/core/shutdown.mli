(** Shutdown support: the safety invariant that makes island power-gating
    possible, and the leakage-savings analysis that motivates it.

    Safety invariant (the paper's headline property): for every flow
    [s → d], every switch on its route lies in the island of [s], the
    island of [d], or the always-on intermediate NoC VI.  Then gating any
    set of islands can only kill flows that terminate in a gated island —
    never a flow between two live ones. *)

type violation = {
  v_flow : Noc_spec.Flow.t;
  v_switch : int;          (** the offending switch on the route *)
  v_island : int;          (** the third island it sits in *)
}

val pp_violation : Format.formatter -> violation -> unit

val route_transits :
  Noc_spec.Vi.t -> Topology.t -> Noc_spec.Flow.t * int list -> violation list
(** The third-island rule on one route: every switch of it that sits in
    an island other than its flow's two endpoint islands, in route
    order.  {!check_topology}, {!survives_gating} and [Verify] all read
    this one definition. *)

val check_topology :
  Noc_spec.Vi.t -> Topology.t -> (unit, violation list) result
(** Verify the invariant on every committed route — primaries and backup
    (protection) routes alike.  Accumulates {e all} violations, matching
    [Verify.check]'s list-of-violations contract. *)

val survives_gating :
  Noc_spec.Vi.t -> Topology.t -> gated:int list -> (unit, violation list) result
(** Direct check used by tests: with the given islands gated, does every
    flow between two live islands avoid all gated switches?  (Implied by
    {!check_topology}, but verified independently.)  Accumulates all
    violations. *)

(** Power accounting of one usage scenario. *)
type scenario_row = {
  scenario : Noc_spec.Scenario.t;
  gated : int list;  (** islands gated in this scenario *)
  power_without_shutdown_mw : float;
      (** used cores' dynamic + all leakage + NoC power *)
  power_with_shutdown_mw : float;
      (** gated islands' core and NoC leakage removed *)
  savings_fraction : float;
}

type report = {
  rows : scenario_row list;
  weighted_savings_fraction : float;
      (** duty-weighted over scenarios (remaining duty = all-on operation) *)
  weighted_power_mw : float;
      (** duty-weighted system power with shutdown applied — the
          multi-scenario synthesis objective *)
  full_power_mw : float;
      (** everything on: cores dynamic + leakage + NoC dynamic + leakage *)
}

val leakage_report :
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  Design_point.t ->
  scenarios:Noc_spec.Scenario.t list ->
  report
(** [rows] preserve the given scenario order; all duty-weighted totals
    fold over the canonical (name-sorted) order so a scenario-list
    permutation yields bit-identical floats.
    @raise Invalid_argument if duties are inconsistent
    ({!Noc_spec.Scenario.validate_duties}). *)

val weighted_power_mw :
  Config.t ->
  Noc_spec.Soc_spec.t ->
  Noc_spec.Vi.t ->
  Design_point.t ->
  scenarios:Noc_spec.Scenario.t list ->
  float
(** [leakage_report ...].weighted_power_mw: the duty-cycle-weighted system
    power of one design point across the scenario set, with gated islands'
    leakage removed per scenario and the residual duty charged at full
    power.  Permutation-invariant (canonical fold order). *)

val island_noc_leakage_mw :
  Config.t -> Noc_spec.Vi.t -> Topology.t -> island:int -> float
(** Leakage of the NoC components gated together with the island: its
    switches, the NIs of its cores and the converters on crossing links
    driven from or received in it (each converter is counted with exactly
    one island — the source switch's — so summing over islands never
    double-counts).  One entry of {!island_noc_leakages}.
    @raise Invalid_argument on an island outside the VI. *)

val island_noc_leakages : Config.t -> Noc_spec.Vi.t -> Topology.t -> float array
(** {!island_noc_leakage_mw} of every island, indexed by island, from one
    pass over the topology.  Each entry gets exactly the additions, in
    the same order, that a walk over that island alone makes, so it is
    the same float bit for bit. *)

(** A scenario set prepared once for scoring many design points.

    {!leakage_report} and {!weighted_power_mw} are views over this
    module for a single point.  A sweep scores every saved point against
    the same set, so {!Scoring.prepare} computes what depends on the
    scenarios alone: each scenario's gated islands, its used cores'
    dynamic power plus every core's leakage, its share of the spec's
    bandwidth, the per-island core leakage, the duty left to all-on
    operation and the spec totals.  A point then costs one topology pass
    ({!island_noc_leakages}) and O(scenarios × gated islands)
    arithmetic.  Every float is computed by the same operations in the
    same order as before the split, so results are bit-identical. *)
module Scoring : sig
  type t

  val prepare :
    Config.t ->
    Noc_spec.Soc_spec.t ->
    Noc_spec.Vi.t ->
    scenarios:Noc_spec.Scenario.t list ->
    t
  (** Report rows keep the given scenario order; duty-weighted totals
      fold over the canonical (name-sorted) order.
      @raise Invalid_argument if duties are inconsistent
      ({!Noc_spec.Scenario.validate_duties}). *)

  val report : t -> Design_point.t -> report
  (** {!leakage_report} of one point. *)

  val weighted_power_mw : t -> Design_point.t -> float
  (** [(report t point).weighted_power_mw], without building the rows. *)

  val survives : t -> Topology.t -> bool
  (** Does every scenario's gating leave every live flow's primary route
      clear ({!survives_gating} [= Ok ()] for each scenario's gated
      islands)?  One walk over the primary routes collects the
      third-island transits (normally none); each scenario is then
      answered in O(transits). *)
end

val pp_report : Format.formatter -> report -> unit
