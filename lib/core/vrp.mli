(** The Virtual Router Processor (paper sections 4.2-4.3).

    The VRP is the budgeted abstract machine in which per-packet extensions
    run on the MicroEngines: straight-line code (no backward jumps — the
    property admission control exploits) over packet registers, a handful
    of scratch registers, flow state in SRAM, and the hardware hash unit.

    A forwarder's cost is declared as an op list; {!static_cost} is the
    admission-control view and {!execute} charges the same ops against the
    simulated hardware, so the two cannot drift apart. *)

type op =
  | Instr of int  (** [n] register-to-register instructions *)
  | Sram_read of int  (** load [bytes] of flow state *)
  | Sram_write of int  (** store [bytes] of flow state *)
  | Scratch_read of int
  | Scratch_write of int
  | Dram_read of int  (** touch packet body in DRAM (beyond registers) *)
  | Dram_write of int
  | Hash  (** one hardware hash unit operation *)

type code = op list
(** Loop-free by construction: a list has no backward jumps, mirroring the
    paper's observation that MP-sized processing needs no loops. *)

type cost = {
  instr : int;
  sram_read_bytes : int;
  sram_write_bytes : int;
  scratch_read_bytes : int;
  scratch_write_bytes : int;
  dram_read_bytes : int;
  dram_write_bytes : int;
  hashes : int;
}

val zero_cost : cost
val add_cost : cost -> cost -> cost
val static_cost : code -> cost

val sram_transfers : Ixp.Config.t -> cost -> int [@@test_only]
(** Number of 4-byte SRAM operations the cost implies. *)

val cycles_estimate : Ixp.Config.t -> cost -> int
(** Requester-visible cycles: instructions plus uncontended memory
    latencies, with each direction's bytes charged as one pipelined
    burst (first unit pays full latency, subsequent units one occupancy
    slot each — a lower bound on the charged execution).  What admission
    control compares against the budget. *)

val istore_slots : code -> int
(** Instruction-store footprint: register instructions plus one issue slot
    per memory/hash operation, plus the trailing indirect jump. *)

val execute : Chip_ctx.t -> code -> unit
(** [execute ctx code] (inside a MicroEngine context fiber) charges every
    op against the simulated hardware, in order.  It allocates nothing. *)

val execute_generic : Cost_model.t -> Chip_ctx.t -> code -> unit
(** {!execute} plus, before each memory op, the cost model's
    [vrp_mem_op_instr] instructions and [vrp_mem_op_wait] stall cycles:
    the VRP's generic load/store sequence — address computation,
    transfer-register shuffling, context swap — that the Router
    Infrastructure's hand-scheduled assembly avoids. *)

(** {1 Budgets} *)

type budget = {
  b_cycles : int;  (** register instructions per MP *)
  b_sram_transfers : int;  (** 4-byte SRAM operations per MP *)
  b_hashes : int;  (** hash unit operations per MP *)
  b_state_bytes : int;  (** persistent SRAM flow state *)
  b_istore_slots : int;  (** instruction store room *)
}

val pp_budget : Format.formatter -> budget -> unit

val prototype_budget : budget
(** The paper's section 4.3 characterization for 8 x 100 Mbps: 240 cycles,
    24 SRAM transfers, 3 hashes, 96 bytes of state, 650 ISTORE slots. *)

val check :
  budget -> cost -> state_bytes:int -> slots:int -> (unit, string list) result
(** [check b cost ~state_bytes ~slots] verifies a forwarder fits, returning
    every violated dimension on failure. *)

val check_recorded :
  ?scope:Telemetry.Scope.t ->
  budget ->
  cost ->
  state_bytes:int ->
  slots:int ->
  (unit, string list) result
(** {!check}, additionally counting the check (and any overrun, with one
    event per violated dimension) under a telemetry scope when given. *)
