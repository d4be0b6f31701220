(** The output processing loop (paper Figure 6, sections 3.3-3.4.3).

    Each output context owns a statically-assigned set of queues and FIFO
    slots, and keeps in-flight slots: packets it has dequeued and is
    streaming to the wire MP by MP (DRAM to FIFO, slot enable).  Per
    activation it takes the output token (the FIFO slots are consumed
    strictly in order by the transmit DMA, so contexts must serialize
    their slot activations), then moves MPs of its highest-priority
    in-flight packet whose wire has room, and fills an idle slot from its
    queues when none has.

    One loop serves every discipline (Table 1); a discipline only says how
    an idle slot is filled:
    - [O1_batch]: one slot, from the first queue; the head pointer is read
      once and every ready packet is drained before re-reading (section
      3.4.3's batching).
    - [O2_single]: one slot, from the first queue; head pointer read per
      packet.
    - [O3_multi]: one slot per queue, in priority order; a readiness
      bit-array read finds the ready queues, then the chosen queue's head
      pointer is read (section 3.4.3's indirection). *)

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
  on_tx : Desc.t -> Packet.Frame.t -> unit;
      (** observer invoked as each packet completes transmission *)
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
(** Start one output context; [ctx_id] selects the hosting
    MicroEngine.  The context is a state machine whose states are the
    loop's wait points (token request and grant, the commit before an
    MP asks its wire for room, wire pacing, parking on its queues),
    stepped on engine callbacks, or in a fiber when a charge can wait by
    itself ({!Chip_ctx.charges_wait}).  [burst_mps] (default 16) bounds how many MPs one token
    acquisition may stream to the wire; forced to 1 when
    [Cost_model.per_burst = false], which reproduces the classic
    one-MP-per-rotation Figure 6 loop exactly.  While no wire has room,
    the context fills an idle slot or sleeps for the soonest MAC's exact
    slot-free time.  An idle context parks on its queues' push waiters:
    under O.1 and O.2 when the head read that opens an activation finds
    nothing, under O.3 when an activation ends with nothing in flight and
    nothing queued. *)
