(** The router's per-MP cost accounting (paper Table 2, section 3.5.1).

    Every constant here is a MicroEngine-cycle or operation count charged by
    the input/output loops.  The defaults reproduce the instruction counts
    the paper reports for its fastest feasible configuration (I.2 + O.1):
    171 register instructions on the input side, 109 on the output side,
    DRAM (0r/2w) + (2r/0w), SRAM (2/1) + (0/1), Scratch (2/4) + (0/2).

    Cycle counts that the paper does not itemize (the token-held serialized
    sections guarding the DMA state machine and the output FIFO ordering)
    are calibrated so the simulated Table 1 and Figure 7 match the paper;
    they are regular record fields so benches can probe sensitivity. *)

type t = {
  (* Input side (Figure 5), per MP. *)
  input_serial_instr : int;
      (** instructions executed while holding the input token (port_rdy
          check, DMA slot programming) *)
  input_serial_wait : int;
      (** non-instruction cycles under the token: the CSR/DMA round trip
          to off-chip port hardware — the serialization Figure 7 blames
          for input's scaling knee *)
  input_copy_instr : int;  (** IN_FIFO to transfer-register copy *)
  input_loop_instr : int;
      (** buffer address calculation, MP tagging, loop control *)
  classify_null_instr : int;
      (** the trivial classifier of section 3.5.1: hardware hash of the
          destination address, route-cache hit assumed *)
  classify_null_sram_reads : int;  (** route-cache entry *)
  classify_full_instr : int;
      (** the full two-hash classifier of section 4.5 (56 instructions) *)
  classify_full_sram_bytes : int;  (** 20 bytes of flow metadata *)
  forward_null_instr : int;  (** minimal forwarder: destination MAC patch *)
  enqueue_instr : int;
  enqueue_sram_writes : int;  (** queue entry *)
  enqueue_scratch_reads : int;  (** head pointer *)
  enqueue_scratch_writes : int;  (** head pointer, readiness bit *)
  mutex_scratch_reads : int;  (** hardware-mutex acquire (I.2/I.3) *)
  mutex_scratch_writes : int;  (** hardware-mutex release (I.2/I.3) *)
  alloc_scratch_writes : int;  (** circular buffer cursor *)
  (* Output side (Figure 6). *)
  output_serial_instr : int;
  output_serial_wait : int;  (** FIFO slot activation *)
  output_mp_instr : int;  (** per-MP: address calc, FIFO copy control *)
  output_pkt_instr : int;  (** per-packet: select_queue, dequeue *)
  dequeue_sram_writes : int;  (** tail pointer update *)
  dequeue_scratch_reads : int;  (** head-pointer check (skipped by
                                    batching after the first of a batch) *)
  dequeue_scratch_writes : int;
  o3_select_instr : int;  (** multi-queue selection (O.3) *)
  o3_scratch_reads : int;  (** readiness bit-array *)
  (* StrongARM (section 3.6). *)
  sa_poll_instr : int;  (** polling loop per packet: dequeue + dispatch *)
  sa_dequeue_sram_bytes : int;
  sa_interrupt_cycles : int;  (** added per packet under interrupts *)
  sa_route_lookup_instr : int;
      (** full longest-prefix match on a route-cache miss; with its SRAM
          reads this reproduces the paper's "236 cycles per packet" *)
  sa_route_lookup_sram_bytes : int;
  (* Pentium (section 3.7). *)
  pe_loop_instr : int;  (** queue management around each packet *)
  pe_touch_cycles_per_byte : float;
      (** memory-touch cost of reading+writing payload past the first MP
          (what makes 1500-byte packets expensive on the host) *)
  (* VRP interpreter (section 4.2). *)
  vrp_mem_op_instr : int;
      (** per-memory-op instructions in the VRP's generic load/store
          sequence (address computation, transfer-register management) *)
  vrp_mem_op_wait : int;
      (** per-memory-op stall beyond the raw Table 3 latency (context
          swap in/out around the reference) *)
  (* Multi-field (tuple-space) classification. *)
  mf_cache_instr : int;
      (** flow-cache probe: hash the 5-tuple+DSCP key, compare one
          cached entry — charged on every classified packet *)
  mf_probe_instr : int;
      (** per-tuple probe on a cache miss: mask the key and hash into
          that tuple's table *)
  mf_probe_sram_bytes : int;
      (** rule entry fetched per tuple probe *)
  (* Dynamic-allocation ablation (section 3.2.1). *)
  dyn_sched_scratch_reads : int;
  dyn_sched_scratch_writes : int;
  dyn_sched_instr : int;
  (* Batched execution (Snabb-style burst loops). *)
  per_burst : bool;
      (** the router's per-burst activation (true) vs the paper's
          measured one-MP-per-activation loop (false).  When true, the
          input and output token serial sections (the DMA/CSR round
          trip, the FIFO slot activation) are charged once per burst
          rather than once per MP, which Table 2's per-transfer (not
          per-MP) CSR cost permits; and the loops turn on
          {!Chip_ctx.set_defer}.  Every Table 2 charge is booked
          ({!Sim.Server.book_i}) either way; with this on the booked
          delays stay pending and are paid as one wait at the next
          shared-state interaction (queue, token, MAC, park), with it
          off each is paid at once, one engine event per charge.
          Per-batch charging resolves contention at batch rather than
          operation granularity — it pays the enqueue critical section
          before the mutex — so the calibration apparatus
          ({!Fixed_infra}) keeps this off *)
  sa_poll_backoff_cycles : int;
      (** StrongARM polling-mode idle backoff ceiling: with event-driven
          ME loops the SA's poll is the background noise floor, so its
          idle cadence is a tunable *)
}

val default : t
(** Constants reproducing the paper's Table 2 and calibrated sections. *)

val input_reg_total : t -> int
(** Register instructions per input MP in I.2 (should be ~171). *)

val output_reg_total : t -> int
(** Register instructions per output MP in O.1 (should be ~109). *)
