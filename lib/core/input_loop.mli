(** The input processing loop (paper Figure 5, sections 3.2-3.2.3).

    Each input context runs this loop once per received MP: acquire the
    token (serializing the shared DMA state machine), check the port and
    load the next MP into its statically-owned FIFO slot, release the
    token, copy the MP to registers, run protocol processing (classifier +
    forwarders — the VRP), write the MP to its DRAM buffer, and on the
    packet's first MP enqueue a descriptor on the destination queue.

    The queueing discipline (Table 1, I.1-I.3) is [enq]: [Private] keeps
    the tail pointer in registers and skips synchronization; [Protected]
    takes the per-queue hardware mutex around the head-pointer update.

    A context is a state machine whose states are the loop's wait points
    (token request and grant, the booked-charge commit before the
    enqueue, the queue mutex, parking on the port), stepped by the
    engine ({!Sim.Engine.start_steps}). *)

type source =
  | Replay of Packet.Frame.t
      (** the paper's "infinitely fast port": one packet preloaded per FIFO
          slot, iterated without port interaction *)
  | Port of Ixp.Mac_port.t  (** a real MAC port, statically assigned *)

type target =
  | To_queue of { qid : int; out_port : int; fid : int }
  | Drop_it

type stats = {
  mps_in : Sim.Stats.Counter.t;
  pkts_in : Sim.Stats.Counter.t;
  enq_ok : Sim.Stats.Counter.t;
  enq_drop : Sim.Stats.Counter.t;
  drop_by_process : Sim.Stats.Counter.t;
  batch_mps : Sim.Stats.Histogram.t;
      (** realized burst sizes (MPs per context activation) *)
}

val make_stats : unit -> stats

val register_stats : Telemetry.Scope.t -> stats -> unit
(** Register every stage counter under a telemetry scope (typically
    ["input"]). *)

type enqueue =
  | Private  (** I.1: tail pointer in registers, no synchronization *)
  | Protected
      (** I.2/I.3: hardware-mutex protected head-pointer update; waits
          under contention *)
  | Custom of (Chip_ctx.t -> Squeue.t -> Desc.t -> bool)
      (** another discipline-charged enqueue, such as the spinlock
          ablation; it may wait by itself, so its contexts run as
          fibers *)

type t = {
  cm : Cost_model.t;
  enq : enqueue;  (** the discipline-charged enqueue *)
  process : Chip_ctx.t -> Packet.Frame.t -> in_port:int -> target;
      (** protocol processing for a packet's first MP; charges its own
          hardware costs and returns the destination *)
  queue_of : int -> Squeue.t;  (** resolve a [qid] to its queue *)
  notify : (int -> unit) option;
      (** fired after a successful enqueue to [qid] (e.g. signal the
          StrongARM that an exceptional packet arrived) *)
  scope : Telemetry.Scope.t option;
      (** telemetry scope receiving one event per dropped packet (queue
          full, pool dry, protocol drop); [None] records nothing *)
  recycle : (Packet.Frame.t -> unit) option;
      (** fired with frames dropped before reaching the buffer pool
          (protocol drop, pool dry), so a {!Packet.Frame_pool} feeding
          the sources gets every frame back; [None] for unpooled
          traffic *)
}

val spawn_context :
  ?burst_mps:int ->
  t ->
  Ixp.Chip.t ->
  ring:Sim.Token_ring.t ->
  slot:int ->
  ctx_id:int ->
  source:source ->
  stats:stats ->
  unit
(** Start one input context.  [slot] is both the context's token ring
    position and its FIFO slot; [ctx_id] selects the hosting
    MicroEngine.  [burst_mps] (default 16, one transfer FIFO's worth)
    bounds how many MPs one token acquisition may drain; it is forced to
    1 when the cost model activates per MP ([Cost_model.per_burst =
    false]), which reproduces the classic one-MP-per-rotation loop
    exactly.  The context runs on engine callbacks, or as a fiber when
    a charge can wait by itself ({!Chip_ctx.charges_wait}) or [enq] is
    [Custom]. *)

val enqueue_protected :
  Cost_model.t -> Chip_ctx.t -> Squeue.t -> Desc.t -> bool
(** I.2/I.3 for a fiber: the [Protected] enqueue's two halves with the
    commit and the mutex wait between them; blocks under contention.
    The StrongARM uses it to re-enqueue diverted packets onto output
    queues. *)
