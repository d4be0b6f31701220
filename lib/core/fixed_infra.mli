(** The section 3 "fixed infrastructure" testbench: the FIFO-to-FIFO
    peak-rate experiments behind Table 1 and Figures 7, 9 and 10.

    Reproduces the paper's methodology: input contexts replay a preloaded
    64-byte packet ("emulating infinitely fast network ports"), the null
    forwarder runs with a trivial classifier assuming a route-cache hit,
    and device interaction is omitted.  Output-only runs are fooled into
    believing data is always available; input-only runs enqueue into
    effectively-unbounded queues. *)

type input_discipline =
  | I1_private  (** private queues, tail pointers in registers *)
  | I2_protected  (** hardware-mutex protected public queues *)
  | I_spinlock
      (** ablation: test-and-set over SRAM, the mechanism section 3.4.2
          rejects for its memory contention *)
  | I_dynamic
      (** ablation: dynamic context scheduling through a scratch work
          queue, the alternative section 3.2.1 rejects *)

type output_discipline = O1_batch | O2_single | O3_multi

type stage = Input_only | Output_only | Both

type config = {
  cm : Cost_model.t;
  hw : Ixp.Config.t;
  n_input_contexts : int;  (** paper default 16 (4 MicroEngines) *)
  n_output_contexts : int;  (** paper default 8 (2 MicroEngines) *)
  input_disc : input_discipline;
  output_disc : output_discipline;
  stage : stage;
  contention : bool;  (** all packets to one protected queue (I.3 /
                          Figure 10) *)
  exceptional_share : float;
      (** fraction of packets classified as exceptional and enqueued for a
          StrongARM drainer instead of an output queue — the section 4.7
          control-flood experiment.  The input stage still does identical
          work per packet, which is exactly the paper's isolation claim. *)
  vrp_blocks : Vrp.code;  (** extra VRP work per packet (Figure 9/10) *)
  frame_len : int;  (** 64 for the paper's worst case *)
  n_queues : int;  (** output-port queues (8 on the prototype) *)
  queue_capacity : int;
  warmup_us : float;
  measure_us : float;
}

val default : config
(** The paper's 4/2-MicroEngine split, I.2 + O.1, 64-byte packets. *)

type result = {
  in_mpps : float;  (** packets/s entering queues (input-stage rate) *)
  out_mpps : float;  (** packets/s leaving (output-stage rate) *)
  sram_utilization : float;
  dram_utilization : float;
  input_token_hold : float;
      (** fraction of wall time the input token was held — 1.0 means the
          serialized DMA section is the bottleneck *)
  output_token_hold : float;
  mutex_waits : int;  (** contended queue-mutex acquisitions *)
  enq_drops : int;
  stale_bufs : int;
  sa_kpps : float;  (** exceptional packets serviced by the StrongARM *)
  sa_backlog : int;  (** exceptional packets still queued at the end *)
  dram_ops_per_pkt : float;  (** measured channel operations per packet *)
  sram_ops_per_pkt : float;
  scratch_ops_per_pkt : float;
  latency_ns_mean : float;
      (** mean arrival-to-transmit delay — the paper's "3550 ns of delay
          as it is forwarded" plus queueing *)
}

val run : ?telemetry:Telemetry.Registry.t -> config -> result
(** Build a fresh engine+chip, run the configured stages, measure over the
    post-warmup window.  Output contexts are dealt the queues
    round-robin, but an O.1 or O.2 context owns only the first queue it
    is dealt, the one it serves.  So a [Both]-stage run of O.1 or O.2
    with more queues than output contexts raises [Invalid_argument]: the
    packets on the other queues would never be dequeued.  An output-only
    run's refiller keeps those queues full, unowned.

    When [telemetry] is given, the run's instruments are registered into
    it before fibers start — per-MicroEngine scopes (["me"] labeled by
    id, with a derived cycles-per-packet gauge per stage), per-queue
    scopes, the stage counters, the latency histogram, and a ["vrp"]
    scope counting budget checks/overruns for the configured
    [vrp_blocks] — and its clock is bound to the run's engine, so
    [Telemetry.Registry.snapshot] after [run] returns reports the whole
    experiment. *)

val run_on : Sim.Engine.t -> config -> result [@@test_only]
(** [run_on engine cfg] is {!run} on a fresh [engine] the caller holds,
    so a test can read its event counters afterwards. *)

val pp_result : Format.formatter -> result -> unit
