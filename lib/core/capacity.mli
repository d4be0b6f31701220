(** Closed-form capacity model: the paper's back-of-envelope arithmetic
    (section 3.5.1) plus an analytic input-stage throughput predictor used
    to derive VRP budgets from line rates (section 4.3).

    The simulator is the ground truth; this model is the sanity check the
    paper itself performs ("our actual rate of 3.47 Mpps is 80% of this
    optimistic upper bound") and the fast path for budget queries that
    would otherwise need a simulation per point. *)

type t = {
  hw : Ixp.Config.t;
  cm : Cost_model.t;
  me_queue_cap : float;
      (** cap on the issue-queueing inflation factor (a context competes
          with its three siblings for the engine) *)
  mem_op_overhead : int;
      (** per-memory-op context-swap/command overhead the latency tables
          do not include *)
}

val default : t

val packet_delay_cycles : t -> int
(** Register instructions plus uncontended memory latency for one 64-byte
    packet through input+output — the paper's "710 cycles" (3550 ns). *)

val packets_in_parallel : t -> at_mpps:float -> float
(** The paper's "the system is able to forward a little over 12 packets in
    parallel" at 3.47 Mpps. *)

val optimistic_upper_bound_mpps : t -> float
(** All memory free, all six engines forwarding: 200 MHz / 280 cycles x 6 =
    4.29 Mpps. *)

val vrp_budget :
  t -> contexts:int -> line_rate_pps:float -> hashes:int -> Vrp.budget
(** Invert the predicted input-stage rate (a fixed point on the
    token/engine/memory cycle) over combo blocks (10 instructions + one
    4-byte SRAM read, the paper's Figure 9 unit): the largest per-MP
    budget that still sustains [line_rate_pps].  State bytes = 4 x SRAM
    transfers (what load/store instructions can move); ISTORE slots are
    whatever the hardware leaves the VRP. *)
