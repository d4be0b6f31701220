(** The assembled three-level router (paper Figures 1 and 8): MicroEngine
    input/output loops around the port queues, the StrongARM bridge with
    its local and Pentium-bound queues, the Pentium with its
    proportional-share scheduler, and the {!Iface} control interface
    binding them.

    Queue ids: [0 .. n_ports-1] are the output-port queues; {!qid_sa_local}
    is the StrongARM's exceptional/local queue; the Pentium-bound flow
    queues follow it, picked by flow hash.

    The built-in protocol processing is the paper's boot configuration:
    validate, classify (full classifier), run the installed per-flow and
    general forwarder chain, and finish with minimal IP (TTL decrement,
    incremental checksum, MAC rewrite); packets with IP options, TTL
    expiry, or route-cache misses divert to the StrongARM. *)

(** {1 Library interface}

    [Router] doubles as the library's entry module: every public module of
    the core library is re-exported here. *)

module Cost_model = Cost_model
module Vrp = Vrp
module Chip_ctx = Chip_ctx
module Desc = Desc
module Squeue = Squeue
module Forwarder = Forwarder
module Classifier = Classifier
module Input_loop = Input_loop
module Output_loop = Output_loop
module Fixed_infra = Fixed_infra
module Strongarm = Strongarm
module Pentium = Pentium
module Psched = Psched
module Admission = Admission
module Iface = Iface
module Capacity = Capacity
module Wfq = Wfq

(** {1 The assembled router} *)

type config = {
  hw : Ixp.Config.t;
  cm : Cost_model.t;
  n_ports : int;
  port_mbps : float;
  uplink_ports : int;
      (** extra high-speed ports after the externals (the section 6
          cluster's internal links; the evaluation board's 2 x 1 Gbps) *)
  uplink_mbps : float;
  n_input_contexts : int;
  n_output_contexts : int;
  sa_wakeup : Strongarm.wakeup;
  queue_capacity : int;
  route_engine : Iproute.Table.engine;
      (** read by nothing: {!Iproute.Table} has one engine.  Kept only
          because the end-to-end benchmark harness sets it; the next
          benchmark change deletes it with {!Iproute.Table.engine}. *)
  selective_invalidation : bool;
      (** route changes drop only the covered cache lines (see
          {!Iproute.Table.create}) *)
  circular_buffers : bool;
      (** the paper's single-pass circular DRAM buffer pool (true) vs the
          per-buffer stack pool it declined to build (section 3.2.3) *)
  batch_mps : int;
      (** MPs one context activation may cover per token acquisition
          (default 16, one transfer FIFO's worth); forced to 1 when
          [Cost_model.per_burst] is off *)
  faults : Fault.Scenario.t;
      (** fault-injection scenario; {!Fault.Scenario.zero} (the default)
          builds no injector at all, so the fault-free router is
          unchanged in timing, randomness, and telemetry *)
}

val default_config : config
(** The prototype: 8 x 100 Mbps ports, 16 input + 8 output contexts,
    polling StrongARM, lazy PCI copies. *)

type t = {
  config : config;
  engine : Sim.Engine.t;
  chip : Ixp.Chip.t;
  routes : Iproute.Table.t;
  nexthops : Iproute.Table.nexthop array;
      (** one next hop per port, built once at {!create}: every route
          {!add_route} or the RIP daemon installs shares its port's *)
  classifier : Classifier.t;
  iface : Iface.t;
  sa : Strongarm.t;
  pe : Pentium.t;
  out_queues : Squeue.t array;
  istats : Input_loop.stats;
  ostats : Output_loop.stats;
  delivered : Sim.Stats.Counter.t array;  (** frames out each port *)
  latency : Sim.Stats.Histogram.t;  (** arrival-to-transmit, ps *)
  telemetry : Telemetry.Registry.t;
      (** every level's instruments, registered at {!create}; clocked by
          the router's engine *)
  input_scope : Telemetry.Scope.t;  (** receives input-stage drop events *)
  output_scope : Telemetry.Scope.t;  (** receives stale-buffer events *)
  injector : Fault.Injector.t option;
      (** the armed fault plane; [None] when [config.faults] is zero *)
  invariants : Fault.Invariant.t;
      (** router-wide invariants, audited at every {!run_for} barrier:
          buffer-pool conservation, queue accounting, no malformed frame
          escaping an output port, input-stage accounting, forwarding
          progress, and (under injection) VRP budget detection *)
  invalid_escapes : int ref;  (** malformed frames seen leaving a port *)
  vrp_detected : int ref;  (** injected budget overruns admission caught *)
  delivery_digests : string array option ref;
      (** per-port chained delivery digests; [None] until
          {!enable_delivery_digest} *)
  digest_scratch : Bytes.t ref;
      (** the buffer {!digest_fold} assembles each digest input in *)
  mutable frame_pool : Packet.Frame_pool.t option;
      (** attached via {!set_frame_pool}; [None] leaves every allocation
          path exactly as before *)
  port_targets : Input_loop.target array;
      (** preallocated routed-out verdicts, one per port — the
          [To_queue] records for routed packets and forwarder steers,
          built once at {!create} *)
  sa_targets : Input_loop.target array;
      (** preallocated StrongARM diverts (fid -1), indexed by the routed
          port + 1 (index 0 = no route) *)
  sa_ttl_target : Input_loop.target;  (** the TTL-expired divert *)
}

val create :
  ?config:config -> ?alloc_gauges:bool -> ?engine:Sim.Engine.t -> unit -> t
(** Build (does not start fibers).  Pass a shared [engine] to place
    several routers in one simulation (see {!connect}).

    [alloc_gauges] (default [false]) additionally registers host-GC
    allocation gauges ([gc_minor_words], [gc_promoted_words], ...) in the
    [sim] telemetry scope, rebased at creation.  They are opt-in because
    they report host facts, not simulation facts: their values vary with
    allocator warm-up and domain placement, so registering them would
    break snapshot-digest comparisons across replays and domain counts. *)

val set_frame_pool : t -> Packet.Frame_pool.t -> unit
(** Attach a {!Packet.Frame_pool} (call before {!start}).  Frames the
    router is done with — dropped at input, or released by the DRAM
    buffer pool — are given back to it, and its conservation invariant
    joins the audited set.  Purely an allocation-recycling concern: the
    simulated timing, counters, and delivered traffic are identical with
    or without a pool. *)

val nexthop : t -> int -> Iproute.Table.nexthop
(** [nexthop t port] is the next hop out [port] via that port's peer
    MAC: the shared record of {!field-nexthops} for a port of this
    router, a fresh one for any other. *)

val add_route : t -> Iproute.Prefix.t -> port:int -> unit
(** Convenience: route a prefix out a port via [nexthop t port]. *)

val start :
  ?process:(t -> Chip_ctx.t -> Packet.Frame.t -> in_port:int -> Input_loop.target) ->
  t ->
  unit
(** Spawn every fiber: input contexts (two per port, maximally separated in
    the token rotation), output contexts (one per port), the StrongARM and
    the Pentium.  [process] overrides protocol processing (used by the
    section 3.6 and robustness benches). *)

val inject : t -> port:int -> Packet.Frame.t -> bool
(** Deliver a frame to a port's receive memory (what a traffic source
    calls); false if port memory overflowed. *)

val connect : t -> port:int -> (Packet.Frame.t -> unit) -> unit
(** Attach a delivery callback to a port's transmit side (in addition to
    the per-port counter) — e.g. [connect a ~port:6 (fun f -> ignore
    (inject b ~port:0 f))] cables router [a]'s port 6 to router [b]'s
    port 0, the multi-chassis configuration of the paper's section 6. *)

val enable_delivery_digest : t -> unit
(** Arm the per-port delivery-schedule digest (idempotent; call before
    traffic).  Every frame delivered out port [i] — through the default
    sink or a {!connect} callback — folds [(time ‖ frame bytes)] into
    port [i]'s chained MD5.  This is the batching equivalence gate's
    observable: two executions are equivalent iff every port's digest
    matches, regardless of how activations were coalesced internally.
    Disabled (the default) it costs one ref read per delivery. *)

val digest_fold :
  Bytes.t ref -> Digest.t -> time:int -> Packet.Frame.t -> Digest.t
  [@@test_only]
(** [digest_fold scratch prev ~time f] is one link of a delivery-digest
    chain: [Digest.string (prev ^ string_of_int time ^ "|" ^ bytes)]
    where [bytes] are [f]'s [len] bytes, computed in [scratch] (grown when
    too small) without building the string.  [time] is the delivery
    instant in picoseconds; a negative one raises [Invalid_argument]. *)

val port_delivery_digests : t -> string array
(** Per-port digests (hex).  Raises [Invalid_argument] unless
    {!enable_delivery_digest} was called. *)

val run_for : t -> us:float -> unit
(** Advance the simulation, then audit the invariant registry (every
    pause is a barrier). *)

val check_invariants : t -> int
(** Audit the invariant registry now; the number of new violations.
    {!run_for} calls this automatically. *)

val frame_escapable : Packet.Frame.t -> bool
(** Would a downstream host accept this frame?  The no-invalid-escape
    check: a frame leaving an output port must be well-formed (Ethernet
    header, and a valid IPv4 header or an MPLS ethertype).  Exposed so
    the cluster fabric can run the same audit on member egress. *)

val qid_sa_local : t -> int

val default_process :
  t -> Chip_ctx.t -> Packet.Frame.t -> in_port:int -> Input_loop.target
(** The boot protocol processing described above (exposed so overrides can
    fall back to it). *)

val delivered_total : t -> int

val telemetry_snapshot : t -> Telemetry.Json.t
(** Deterministic JSON snapshot of every registered instrument —
    per-MicroEngine, per-queue, per-port, both stage loops, the StrongARM,
    and the Pentium's scheduler — at the current simulated time. *)

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph state dump: per-port counters, SA/PE counters, queue
    depths. *)
