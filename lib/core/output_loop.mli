(** The output processing loop (paper Figure 6, sections 3.3-3.4.3).

    Each output context owns a statically-assigned set of queues and FIFO
    slots.  Per iteration it takes the output token (the FIFO slots are
    consumed strictly in order by the transmit DMA, so contexts must
    serialize their slot activations), then either continues streaming the
    MPs of the current packet (DRAM to FIFO, slot enable) or selects the
    next packet from its queues.

    Disciplines (Table 1):
    - [O1_batch]: one queue; the head pointer is read once and every ready
      packet is drained before re-reading (section 3.4.3's batching).
    - [O2_single]: one queue; head pointer read per packet.
    - [O3_multi]: multiple prioritized queues behind a readiness bit-array
      (section 3.4.3's indirection). *)

type discipline = O1_batch | O2_single | O3_multi

type stats = {
  mps_out : Sim.Stats.Counter.t;
  pkts_out : Sim.Stats.Counter.t;
  stale_bufs : Sim.Stats.Counter.t;
      (** packets lost to circular-buffer reuse (section 3.2.3) *)
}

val make_stats : unit -> stats

val register_stats : Telemetry.Scope.t -> stats -> unit
(** Register every stage counter under a telemetry scope (typically
    ["output"]). *)

type t = {
  cm : Cost_model.t;
  discipline : discipline;
  queues : Squeue.t array;  (** this context's queues, priority order *)
  port_for : Desc.t -> Ixp.Mac_port.t option;
      (** transmit target per packet (a context may service several
          ports' queues); [None] omits device interaction (the peak-rate
          experiments of section 3.5.1) *)
  on_tx : (Desc.t -> Packet.Frame.t -> unit) option;
      (** observer invoked as each packet completes transmission *)
  idle_backoff_cycles : int;
  scope : Telemetry.Scope.t option;
      (** telemetry scope receiving one event per stale buffer; [None]
          records nothing *)
}

val spawn_context :
  ?burst_mps:int ->
  t ->
  Ixp.Chip.t ->
  ring:Sim.Token_ring.t ->
  slot:int ->
  ctx_id:int ->
  stats:stats ->
  unit
(** Start one output context as a fiber.  [burst_mps] (default 16)
    bounds how many MPs one token acquisition may stream to the wire;
    forced to 1 when [Cost_model.per_burst = false], which reproduces
    the classic one-MP-per-rotation Figure 6 loop exactly.  Idle
    contexts park on their queues' push waiters; wire pacing sleeps for
    the MAC's exact slot-free time. *)
