(** Synthesized NoC topology: switches, NI attachments, inter-switch links
    and per-flow routes.

    Conventions:
    - Every core owns one NI attached to exactly one switch of the core's
      own island (paper §3.1); the NI⇄switch link pair is implicit and
      contributes one input and one output port to the switch.
    - Inter-switch links are directed.  A link whose endpoints sit in
      different locations (island/intermediate) is an island {e crossing}
      and carries a bi-synchronous FIFO converter.
    - A route is the switch-id sequence a flow traverses, source switch
      first.  Zero-load route latency follows the paper's Fig. 3 convention
      (output of source NI → input of destination NI):
      2 cycles per switch, 1 per inter-switch link, plus 4 per crossing. *)

type location = Island of int | Intermediate

type switch = {
  sw_id : int;
  location : location;
  freq_mhz : float;
  vdd : float;
  position : Noc_floorplan.Geometry.point;
}

type link = {
  link_src : int;
  link_dst : int;
  mutable bw_mbps : float;  (** bandwidth committed by routed flows *)
  length_mm : float;
  crossing : bool;
  stages : int;
      (** pipeline register banks on the wire (0 = single-cycle link, the
          paper's unpipelined case); each adds one cycle of latency *)
}

type edit
(** One reversible structural mutation; see {!checkpoint}. *)

type t = {
  islands : int;  (** VI count, excluding the intermediate island *)
  switches : switch array;
  core_switch : int array;
  ni_count : int array;
      (** NIs attached to each switch, counted once by {!create} from
          [core_switch] (attachments never change afterwards); read it
          through {!ni_ports} *)
  links : link Noc_graph.Flat.t;
      (** dense (src, dst)-indexed flat adjacency; use {!find_link} /
          {!links_list} rather than probing directly *)
  mutable routes : (Noc_spec.Flow.t * int list) list;
  mutable backup_routes : (Noc_spec.Flow.t * int list) list;
      (** fault-protection routes committed by {!commit_backup}; they use
          real links and ports but carry no committed bandwidth *)
  flit_bits : int;
  mutable journal : edit list;
      (** undo journal of every {!add_link}, {!commit_flow} and
          {!remove_flow} since creation (or the last {!clear_journal}),
          newest first *)
}

type checkpoint
(** A position in the undo journal, obtained with {!checkpoint} and
    consumed by {!rollback}. *)

val create :
  islands:int ->
  switches:switch array ->
  core_switch:int array ->
  flit_bits:int ->
  t
(** @raise Invalid_argument on inconsistent ids or empty switch set. *)

val location_equal : location -> location -> bool
val is_crossing : t -> int -> int -> bool
(** Do the two switches sit in different locations? *)

val add_link : ?stages:int -> t -> src:int -> dst:int -> length_mm:float -> link
(** Create the directed link (zero committed bandwidth); [stages] defaults
    to 0 (unpipelined).
    @raise Invalid_argument if it already exists, ids are bad, or [stages]
    is negative. *)

val find_link : t -> src:int -> dst:int -> link option

val link_count : t -> int
(** Number of inter-switch links.  O(1). *)

val links_list : t -> link list
(** Sorted by (src, dst); deterministic. *)

val commit_flow : t -> Noc_spec.Flow.t -> route:int list -> unit
(** Record the route and add the flow's bandwidth to every link on it.
    @raise Invalid_argument if consecutive route switches have no link, the
    route does not start/end at the flow's NI switches, or is empty. *)

val remove_flow : t -> Noc_spec.Flow.t -> (int list * link list) option
(** Rip up the committed route of the flow with the same (src, dst):
    un-charge its bandwidth from every link on the route, drop the route,
    and remove links whose committed bandwidth returns to zero (within
    1e-6 MB/s).  Returns the removed route and the dropped links — the
    caller owns any derived port accounting — or [None] if the flow has no
    committed route.  Fully journaled: a later {!rollback} restores the
    route, the charges and the dropped links.
    @raise Invalid_argument if the committed route references a missing
    link (corrupted topology). *)

val remove_flows : t -> Noc_spec.Flow.t list -> unit
(** [List.iter (fun f -> ignore (remove_flow t f)) flows] in one pass
    over the routes instead of one per flow.  Every link gets the same
    subtractions in the same order, so committed bandwidths and dropped
    links are identical.  Journaled like {!remove_flow}.
    @raise Invalid_argument as {!remove_flow}. *)

val commit_backup : t -> Noc_spec.Flow.t -> route:int list -> unit
(** Record a backup (protection) route for the flow.  Every hop must be an
    existing link; no bandwidth is charged — a backup only carries traffic
    once a fault has taken its primary (and the primary's charge) down.
    Journaled like {!commit_flow}.
    @raise Invalid_argument on a missing link or bad endpoints. *)

val backup_route : t -> Noc_spec.Flow.t -> int list option
(** The committed backup route of the flow with the same (src, dst), if
    any. *)

val copy : t -> t
(** An independent deep copy: link records (and their mutable committed
    bandwidth) are duplicated, routes and backups carried over, and the
    journal starts empty.  Edits to the copy never touch the original —
    use one copy per parallel fault-campaign worker. *)

val checkpoint : t -> checkpoint
(** Capture the current journal position.  O(1). *)

val rollback : t -> checkpoint -> unit
(** Reverse every edit made since the checkpoint was taken, newest first:
    links created are removed, links dropped are restored, bandwidth
    charges and the routes list are reset.  O(edits since checkpoint).
    Rolling back to the same checkpoint twice is a no-op the second time.
    @raise Invalid_argument if the checkpoint is not a suffix of the
    current journal (taken from another topology, already rolled past, or
    invalidated by {!clear_journal}). *)

val clear_journal : t -> unit
(** Forget the undo history (frees it for garbage collection) and
    invalidate every outstanding non-empty checkpoint.  Call once a
    topology's editing session is over. *)

val attached_cores : t -> int -> int list
(** Cores whose NI hangs off the given switch, increasing ids. *)

val ni_ports : t -> int -> int
(** Number of NIs attached to a switch (each adds one input and one output
    port).  O(1). *)

val in_ports : t -> int -> int
(** Total input ports: attached NIs + incoming inter-switch links. *)

val out_ports : t -> int -> int
val arity : t -> int -> int
(** [max (in_ports) (out_ports)] — the quantity bounded by [max_sw_size]. *)

val switches_of_location : t -> location -> switch list

val route_latency_cycles : t -> int list -> int
(** Zero-load latency of a route per the convention above.
    @raise Invalid_argument on an empty route. *)

val crossings_of_route : t -> int list -> int

val average_latency_cycles : t -> float
(** Mean zero-load latency over all committed routes (what Fig. 3 plots).
    @raise Invalid_argument if no route is committed. *)

val max_latency_violation : t -> (Noc_spec.Flow.t * int) option
(** The worst flow whose route latency exceeds its constraint, with the
    excess in cycles; [None] when all constraints hold. *)

val total_link_length_mm : t -> float

val pp_netlist : Format.formatter -> t -> unit
(** Figure-4-style description: per island, its switches with attached
    cores, then every link with committed bandwidth. *)

val to_dot : t -> core_name:(int -> string) -> string
(** Graphviz rendering (switch boxes clustered per island). *)
