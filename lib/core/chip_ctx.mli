(** A processor's view of the chip: the handle threaded through the
    input/output loops, the VRP interpreter, and the StrongARM's queue
    operations.

    For a MicroEngine context, register instructions occupy the hosting
    engine's issue pipeline (shared with its three sibling contexts).  For
    the StrongARM — which has its own core but shares the SRAM and DRAM
    channels with the MicroEngines (the interference that motivates
    section 4.1's "the StrongARM must run within the same resource budget")
    — instructions simply consume StrongARM cycles while memory operations
    contend on the same channel servers.

    Every charge below follows one rule.  The unit books its cost at the
    context's virtual clock ({!now_ps_i}) and returns the delay; the
    delay is added to [pending] and, unless [defer] is on, paid at once
    with {!commit}.  Per-operation charging is therefore booking with the
    delay paid immediately, and the work (instructions, memory
    operations) is counted after the charge: once it completes under
    per-operation charging, at booking under per-batch charging.  A zero
    charge never waits. *)

type host = Me of Ixp.Microengine.t | Cpu of Sim.Engine.Clock.clock

type t = {
  chip : Ixp.Chip.t;
  host : host;
  mutable defer : bool;
      (** per-batch charging on: charges stay in [pending] until the next
          {!commit} instead of being paid at once (see {!set_defer}) *)
  mutable pending : int;
      (** booked-but-unpaid delay in picoseconds; paid by {!commit} *)
}

val make : Ixp.Chip.t -> ctx_id:int -> t
(** [make chip ~ctx_id] binds global MicroEngine context [ctx_id] to its
    engine (contexts are numbered ME-major). *)

val make_cpu : Ixp.Chip.t -> Sim.Engine.Clock.clock -> t
(** [make_cpu chip clock] is the view of a conventional processor (the
    StrongARM) sharing the chip's memories. *)

val set_defer : t -> bool -> unit
(** [set_defer t on] selects when charges are paid
    ([Cost_model.per_burst]).  Off (the default): every charge is paid
    as soon as it is booked, one wait per operation.  On (per-batch
    charging): charges stay pending and {!commit} pays the accumulated
    total as one engine event.  Booking happens at the virtual clock
    either way, so horizons and utilization stats are exactly those of
    the per-operation path when uncontended.  Hot loops commit before
    every shared-state interaction — queue, token, MAC, park — so
    cross-context interleaving is resolved at batch granularity.
    Charges on a fault-injected memory channel always commit first and
    wait per unit, preserving the injector's draw sequence. *)

val commit : t -> unit
(** Pay any pending booked delay with a single wait; a no-op when
    nothing is pending, so it never yields for a zero charge.  With
    [defer] off every charge commits itself; with it on, callers must
    commit before suspending, acquiring shared resources, or acting on
    shared mutable state. *)

val commit_delay : t -> int
(** [commit_delay t] is {!commit} for a stepped context: it takes the
    pending booked delay (clearing it) and returns it for the step to
    wait out; [0] means go on at once, without yielding. *)

val charges_wait : t -> bool
(** [charges_wait t] says whether a charge on [t] can wait by itself:
    with per-operation charging ([defer] off), or when one of the chip's
    memory channels has faults armed.  A loop over such a context must
    run on {!Sim.Engine.start_steps}' fiber driver. *)

val now_ps_i : t -> int
(** The context's virtual clock in picoseconds: engine time plus pending
    booked delay (what arrival stamps use under per-batch charging). *)

val exec : t -> int -> unit
(** Run register instructions on this context's processor; a MicroEngine
    counts them after the charge. *)

val exec_wait_serial : t -> instr:int -> wait:int -> unit
(** [exec_wait_serial t ~instr ~wait] runs [instr] instructions, then
    blocks for [wait] cycles more with the processor free, for the
    token-held serial sections.  Under per-batch
    charging the charge is accumulated as pure duration (instructions
    and busy time still accounted) without queueing on the core's busy
    horizon: sibling contexts book whole bursts there, and inheriting a
    burst-sized queue delay while holding the token would serialize the
    whole ring behind it.  With per-batch charging off it books on the
    horizon and is paid as one event, timing-identical to [exec]
    followed by [wait_cycles]. *)

val wait_cycles : t -> int -> unit
(** Stall without occupying the processor's issue pipeline (e.g. a CSR
    round trip). *)

(** Memory operations: a burst booked on the channel, counted in
    {!Ixp.Mem.ops_completed} after the charge; on a fault-injected
    channel, pending delay is committed first and the units are waited
    for one by one. *)

val sram_read : t -> bytes:int -> unit
val sram_write : t -> bytes:int -> unit
val scratch_read : t -> bytes:int -> unit
val scratch_write : t -> bytes:int -> unit
val dram_read : t -> bytes:int -> unit
val dram_write : t -> bytes:int -> unit

val hash_charge : t -> unit
(** One hardware hash unit operation: its latency and one use.  No value
    is computed; every site models the hardware cost only. *)
