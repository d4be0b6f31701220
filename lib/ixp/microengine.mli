(** A MicroEngine: one single-issue core timeshared by four hardware
    contexts (paper section 2.2).

    Register-to-register instructions occupy the core; a context that
    blocks on memory releases it, which is precisely the latency-hiding
    trick the whole chip is designed around.  We model the core as a FIFO
    server: [exec me ~now n] books [n] instruction cycles of core
    occupancy, so when all four contexts are compute-bound they divide
    the core's 200 MHz between them.  The engine only books; the caller
    ([Chip_ctx]) decides when the delay is paid. *)

type t

val create : Sim.Engine.t -> Sim.Engine.Clock.clock -> t
(** [create engine clock] is an idle core whose contexts are fibers
    of [engine]. *)

val exec : t -> now:int -> int -> int
(** [exec me ~now n] books [n] register instructions on the core as of
    virtual time [now] (engine time plus delays the requester has already
    booked) and returns the requester's delay instead of waiting (see
    {!Sim.Server.book_i}).  It counts nothing: the caller pays the delay
    and then {!retire}s the instructions. *)

val exec_wait : t -> now:int -> instr:int -> wait:int -> int
(** [exec_wait me ~now ~instr ~wait] books [instr] register instructions
    followed by [wait] cycles with the core released, as a single fused
    booking — timing-identical to {!exec} of [instr] then a [wait]-cycle
    stall under any core contention, in one event instead of two. *)

val exec_wait_light : t -> instr:int -> wait:int -> int
(** [exec_wait_light me ~instr ~wait] accounts {!exec_wait}'s work in
    the busy-time counter and returns its duration in picoseconds
    without queueing on the core's busy horizon.  For short serial
    sections executed while holding the token under per-batch charging:
    queueing them behind sibling contexts' whole-burst bookings would
    stretch the token hold by foreign bursts and collapse ring rotation
    (see {!Sim.Server.record_i}). *)

val retire : t -> int -> unit
(** [retire me n] counts [n] instructions as issued (no-op for [n <= 0]):
    once their delay is paid under per-operation charging, at booking
    under per-batch charging. *)

val instructions : t -> int
(** Total instructions issued. *)

val register_telemetry : Telemetry.Scope.t -> t -> unit
(** Register this engine's issued-instruction and busy-time gauges under
    a telemetry scope (typically ["me"] labeled with the engine's
    index). *)
