(** The section 6 configuration: several Pentium/IXP pairs connected by a
    Gigabit Ethernet switch into one larger router.

    "We next plan to construct a router from four Pentium/IXP pairs
    connected by a Gigabit Ethernet switch.  The main difference ... is
    that we will need to budget RI capacity to service packets arriving on
    the 'internal' link ..., leaving fewer cycles for the VRP."

    Each member keeps its 8 external 100 Mbps ports and adds a 1 Gbps
    uplink into a learning switch.  Globally, external port [g] lives on
    member [g / ports_per_member].  A member routes locally-owned subnets
    out its own ports and everything else across the switch to the owner,
    whose uplink MAC the route's gateway field names — so the internal hop
    is ordinary IP forwarding plus a MAC-switched fabric, and a
    cross-member packet pays classification (and TTL) twice, exactly the
    structural cost the paper anticipates.

    {b Parallel execution.}  Every member runs its own {!Sim.Engine};
    members interact only through the fabric, whose minimum latency
    ([switch_latency_us]) bounds how far one member may simulate ahead of
    its peers.  {!run_for} therefore advances the cluster in {e epochs}
    of that lookahead: frames sent during one epoch are parked in the
    destination's mailbox and scheduled — in a canonical
    [(arrival, sender, sender-sequence)] order — at the start of the
    next, before the receiver can pass their timestamps.  With
    [~domains:n > 1] the per-epoch member work is spread across [n]
    OCaml domains with a barrier per epoch; with the default
    [~domains:1] the identical epoch machinery runs on one domain, so a
    parallel run is bit-for-bit identical to a sequential one (same
    per-member telemetry, same invariant audits) by construction.

    The cluster extends the PR-2 fault plane across members: a
    {!Fault.Cluster_scenario} can damage a member's fabric link
    (drop/corrupt/stall, seeded and windowed) or fail-stop a whole member
    and later restart it.  Cluster-level invariants — fabric-frame
    conservation by cause, no frame accepted by a crashed member's
    uplinks, membership state matching the schedule, convergence after
    damage ends, and no malformed frame escaping an external port — are
    audited at every {!run_for} barrier together with each member's own
    registry.

    {b Fabric queueing (PR 6).}  Each uplink into the switch and each
    switch egress port can carry a finite {!Fabric_queue} (tail-drop,
    RED, strict-priority or weighted per-class service).  Queue delay
    only ever adds to the switch latency, so the conservative-lookahead
    bound is untouched; queue occupancy exerts backpressure into
    {!inject} and, through the uplink MAC's transmit gate, into the
    member's own egress path.  The conservation invariant extends to
    offered = settled + in_flight + queued + dropped, with crash-flushed
    queues accounted.  The default bypass configuration reproduces the
    unqueued fabric byte for byte. *)

module Fabric_queue = Fabric_queue

type member_health = {
  mutable up : bool;
  mutable crash_epochs : int;
  mutable up_since_us : float;
  mutable quiet_since_us : float;
  mutable uplink_rx_at_crash : int;
  mutable attempts_at_quiet : int;
  mutable delivered_at_quiet : int;
  mutable refused_at_quiet : int;
  mutable awaiting_recovery : bool;
  mutable recovery_latency_us : float;
      (** us from rejoin to the first fabric delivery; negative until
          measured *)
}

type fabric_counts = {
  offered : int;  (** frames leaving any member's uplink into the switch *)
  delivered : int;  (** accepted by the destination member's uplink *)
  dropped_link : int;  (** lost to injected link damage *)
  dropped_down : int;  (** destination member was crashed *)
  dropped_unknown : int;  (** destination MAC not a member uplink *)
  dropped_queue : int;
      (** dropped by a finite fabric queue: tail drop, RED early drop,
          or flushed by a crash *)
  rx_refused : int;  (** destination uplink port memory overflowed *)
  corrupted : int;  (** frames byte-damaged in transit (still forwarded) *)
  stalled : int;  (** frames that paid extra injected latency *)
  in_flight : int;  (** on the fabric wire (or mid-stall) right now *)
  queued : int;  (** parked in a fabric queue right now *)
  bp_refused : int;
      (** external injects refused by uplink-queue backpressure (not
          fabric frames — never part of [offered]) *)
}

type fabric_msg = {
  arrival_ps : int;
  src : int;
  src_seq : int;
  dst_port : int;
  frame : Packet.Frame.t;
}
(** A frame in flight across the fabric, parked in the destination's
    mailbox until its next epoch drains it. *)

type inbox = { ilock : Mutex.t; pending : fabric_msg list array }
(** Per-member mailbox, double-buffered by epoch parity: senders append
    to the current epoch's buffer while the owner drains the previous
    epoch's at each epoch start. *)

type t = {
  engines : Sim.Engine.t array;  (** one engine per member *)
  members : Router.t array;
  switch_latency_us : float;  (** fabric minimum latency = epoch length *)
  domains : int;  (** worker domains used by {!run_for} *)
  faults : Fault.Cluster_scenario.t;
  latency_ps : int;
  clock_ps : int ref;  (** cluster barrier clock *)
  mutable epoch : int;
  egress_rng : Sim.Rng.t array;
  ingress_rng : Sim.Rng.t array;
  churn_rng : Sim.Rng.t array;
      (** per-member route-churn streams, split after the queue streams *)
  churn_writes : int array;
      (** routing-table writes by the churn driver, member-sharded *)
  offered_by : int array;  (** fabric accounting, sharded by acting member: *)
  launched_by : int array;  (** egress counters index the sender, ... *)
  eg_dropped_link : int array;
  eg_dropped_unknown : int array;
  eg_corrupted : int array;
  eg_stalled : int array;
  settled_to : int array;  (** ... ingress counters the receiver *)
  in_dropped_link : int array;
  in_dropped_down : int array;
  in_corrupted : int array;
  in_stalled : int array;
  attempts_to : int array;
  delivered_to : int array;
  refused_to : int array;
  fabric_queue : Fabric_queue.config;
      (** the per-hop queue configuration (default bypass) *)
  mutable eg_queues : (int * Packet.Frame.t) Fabric_queue.t array;
      (** member [m]'s uplink queue into the switch (on [m]'s engine) *)
  mutable in_queues : (int * Packet.Frame.t) Fabric_queue.t array;
      (** the switch egress queue towards member [m] (on [m]'s engine) *)
  in_q_dropped : int array;
      (** ingress-queue drops, settled and dst-sharded *)
  bp_refused : int array;
      (** external injects refused by backpressure, member-sharded *)
  inboxes : inbox array;
  send_seq : int array;
  cur_parity : int array;
  health : member_health array;
  invariants : Fault.Invariant.t;
  telemetry : Telemetry.Registry.t;
  member_scopes : Telemetry.Scope.t array;
  frame_pools : Packet.Frame_pool.t array;
  invalid_escapes : int array;
  pending_violations : string list array;
}

val create :
  ?members:int ->
  ?ports_per_member:int ->
  ?switch_latency_us:float ->
  ?domains:int ->
  ?config:Router.config ->
  ?faults:Fault.Cluster_scenario.t ->
  ?frame_pool:bool ->
  ?fabric_queue:Fabric_queue.config ->
  unit ->
  t
(** [create ()] builds a 4-member cluster (8 external ports each), routes
    subnet 10.[g].0.0/16 to global external port [g], wires the uplinks
    through the switch, and starts every member on its own engine.
    [config] overrides the per-member router configuration (the uplink
    ports are added to it).

    [switch_latency_us] (default 2) is the fabric's minimum latency and
    so the epoch length of the conservative scheduler.  Raises
    [Invalid_argument] unless it is positive and at least 1 ps.

    [domains] (default 1, clamped to [members]) spreads each epoch's
    member work across that many OCaml domains.  Any value yields the
    identical simulation; [> 1] only changes wall-clock time.  Every
    simulating domain's minor arena is raised to a 4M-word floor (never
    lowered), so whole epochs run without a minor collection.

    [faults] injects the cluster scenario; the default [zero] builds no
    driver fibers and draws no randomness, so a faultless cluster is
    byte-identical to one created without the argument.  [frame_pool]
    gives each member a recycling frame pool (with its conservation
    invariant), for pool-accounting audits across crash/restart.

    [fabric_queue] (default {!Fabric_queue.bypass}) puts a finite queue
    of that configuration on every uplink and every switch egress port.
    The bypass default delivers synchronously, draws nothing and never
    pauses, so an unqueued cluster behaves exactly as before; RED's
    drop draws come from dedicated per-hop streams split after the
    damage streams, so enabling queueing never shifts existing draws. *)

val uplink_mac : int -> Packet.Ethernet.mac
(** The MAC identifying member [m]'s uplink on the fabric. *)

val member_of_global_port : t -> int -> int * int
(** [member_of_global_port t g] is [(member, local_port)]. *)

val engine_of_global_port : t -> int -> Sim.Engine.t
(** The engine of the member owning global port [g] — where a traffic
    source feeding that port must be spawned. *)

val time : t -> int64
(** The cluster barrier clock in picoseconds: the target of the last
    {!run_for} (0 before the first). *)

val inject : t -> global_port:int -> Packet.Frame.t -> bool
(** Offer a frame to a global external port.  False if port memory is
    full, the owning member is crashed — or the member's uplink queue
    has engaged backpressure (counted in [bp_refused]). *)

val delivered : t -> global_port:int -> int
(** Frames transmitted out a global external port. *)

val delivered_total : t -> int
(** Across all external ports (uplinks excluded). *)

val fabric_frames : t -> int
(** Frames offered to the switch so far (equals
    [(fabric_counts t).offered]). *)

val internal_pps : t -> float
(** Fabric crossings per second so far. *)

val vrp_budget_with_internal_link : t -> line_rate_pps:float -> Router.Vrp.budget
(** The paper's section 6 point, quantified: the per-MP VRP budget once
    the input contexts must also service the internal link's share
    ([line_rate_pps] external aggregate plus the measured internal rate). *)

val fabric_counts : t -> fabric_counts
(** Fabric accounting by cause; conservation ([offered] equals the other
    buckets plus [in_flight] plus [queued]) is audited at every
    barrier.  [bp_refused] stands apart: those frames never entered the
    fabric. *)

val member_up : t -> int -> bool
val crash_epochs : t -> int -> int

val route_churn_writes : t -> int
(** Total routing-table writes performed by [route_churn] drivers across
    all members — the churn scenarios' injected-effect measure, also per
    member as the [route_churn_writes] telemetry gauge. *)

val recovery_latency_us : t -> int -> float option
(** Time from member [m]'s latest rejoin to the first fabric frame its
    uplink accepted afterwards; [None] until a restart completes the
    measurement. *)

val frame_pool : t -> int -> Packet.Frame_pool.t option
(** Member [m]'s recycling pool when [create ~frame_pool:true]. *)

val run_for : t -> us:float -> unit
(** Advance the simulation by [us] in lookahead-bounded epochs (across
    [domains] OCaml domains when [> 1]), then audit the cluster
    invariant registry and every member's own registry (every pause is a
    barrier; worker domains are joined first, so audits read race-free). *)

val check_invariants : t -> int
(** Audit now; the number of new violations across cluster and members.
    {!run_for} calls this automatically. *)

val invariants_ok : t -> bool

val violations : t -> (string * Fault.Invariant.violation) list
(** All violations recorded so far, tagged ["cluster"] or ["member<i>"]. *)

val telemetry_snapshot : t -> Telemetry.Json.t
(** Deterministic JSON of the cluster registry (fabric counters, per-member
    health gauges, crash/restart events, invariant events) plus every
    member's own snapshot — equal runs yield equal JSON, the seed-replay
    property, and parallel runs yield the same JSON as sequential ones,
    the lookahead-identity property. *)

val member_metrics_md5 : t -> int -> string
(** MD5 of member [m]'s own telemetry snapshot — the per-member identity
    digest compared between sequential and parallel runs. *)
