(** A MicroEngine: one single-issue core timeshared by four hardware
    contexts (paper section 2.2).

    Register-to-register instructions occupy the core; a context that
    blocks on memory releases it, which is precisely the latency-hiding
    trick the whole chip is designed around.  We model the core as a FIFO
    server: [exec me n] charges [n] instruction cycles of core occupancy,
    so when all four contexts are compute-bound they divide the core's
    200 MHz between them. *)

type t

val create : Sim.Engine.t -> Sim.Engine.Clock.clock -> id:int -> t
(** [create engine clock ~id] is an idle core whose contexts are fibers
    of [engine]. *)

val id : t -> int

val exec : t -> int -> unit
(** [exec me n] (inside a context fiber) runs [n] register instructions. *)

val exec_wait : t -> instr:int -> wait:int -> unit
(** [exec_wait me ~instr ~wait] runs [instr] register instructions and
    then sleeps [wait] cycles with the core released, as a single fused
    access — timing-identical to [exec me instr; wait_cycles wait] under
    any core contention, in one event instead of two. *)

val exec_booked : t -> now:int -> int -> int
(** [exec_booked me ~now n] books {!exec}'s core charge as of virtual
    time [now] and returns the requester's delay instead of waiting (the
    per-batch charging path; see {!Sim.Server.book_i}). *)

val exec_wait_booked : t -> now:int -> instr:int -> wait:int -> int
(** Booked form of {!exec_wait}. *)

val exec_wait_light : t -> instr:int -> wait:int -> int
(** [exec_wait_light me ~instr ~wait] accounts {!exec_wait}'s work in the
    instruction and busy-time counters and returns its duration in
    picoseconds without queueing on the core's busy horizon.  For short
    serial sections executed while holding the token under per-batch
    charging: queueing them behind sibling contexts' whole-burst
    bookings would stretch the token hold by foreign bursts and collapse
    ring rotation (see {!Sim.Server.record_i}). *)

val instructions : t -> int
(** Total instructions issued. *)

val busy_time : t -> int64
(** Core-occupied picoseconds, for utilization. *)

val register_telemetry : Telemetry.Scope.t -> t -> unit
(** Register this engine's issued-instruction and busy-time gauges under
    a telemetry scope (typically ["me"] labeled with {!id}). *)
