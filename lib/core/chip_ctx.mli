(** A processor's view of the chip: the handle threaded through the
    input/output loops, the VRP interpreter, and the StrongARM's queue
    operations.

    For a MicroEngine context, register instructions occupy the hosting
    engine's issue pipeline (shared with its three sibling contexts).  For
    the StrongARM — which has its own core but shares the SRAM and DRAM
    channels with the MicroEngines (the interference that motivates
    section 4.1's "the StrongARM must run within the same resource budget")
    — instructions simply consume StrongARM cycles while memory operations
    contend on the same channel servers. *)

type host = Me of Ixp.Microengine.t | Cpu of Sim.Engine.Clock.clock

type t = {
  chip : Ixp.Chip.t;
  host : host;
  ctx_id : int;
  mutable defer : bool;
      (** per-batch charging on: charges accumulate in [pending] instead
          of suspending (see {!set_defer}) *)
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
(** Enable per-batch charging ([Cost_model.per_burst]): each
    charge books its server access at the context's virtual clock
    (engine time + delays already booked, so horizons and utilization
    stats are exactly those of the per-operation path when uncontended)
    and {!commit} pays the accumulated total as one engine event.  Hot
    loops commit before every shared-state interaction — queue, token,
    MAC, park — so cross-context interleaving is resolved at batch
    granularity.  Only meaningful for [Me] hosts; charges on a
    fault-injected memory channel always commit first and run
    per-operation, preserving the injector's draw sequence. *)

val commit : t -> unit
(** Pay any pending booked delay with a single wait (no-op at zero).
    Must be called before suspending, acquiring shared resources, or
    acting on shared mutable state. *)

val now_ps : t -> int64
(** The context's virtual clock: engine time plus pending booked delay
    (what arrival stamps should use under per-batch charging). *)

val now_ps_i : t -> int
(** {!now_ps} as a native int — the allocation-free form the per-packet
    arrival stamp uses. *)

val exec : t -> int -> unit
(** Run register instructions on this context's processor. *)

val exec_wait : t -> instr:int -> wait:int -> unit
(** [exec_wait t ~instr ~wait] fuses [exec t instr] with a subsequent
    [wait_cycles t wait] into a single event: the processor is occupied
    for the instruction time only, the caller blocks for both.
    Timing-identical to the two-call form under any contention. *)

val exec_wait_serial : t -> instr:int -> wait:int -> unit
(** {!exec_wait} for the token-held serial sections.  Under per-batch
    charging the charge is accumulated as pure duration (instructions
    and busy time still accounted) without queueing on the core's busy
    horizon: sibling contexts book whole bursts there, and inheriting a
    burst-sized queue delay while holding the token would serialize the
    whole ring behind it.  Identical to {!exec_wait} when per-batch
    charging is off. *)

val wait_cycles : t -> int -> unit
(** Stall without occupying the processor's issue pipeline (e.g. a CSR
    round trip). *)

val sram_read : t -> bytes:int -> unit
val sram_write : t -> bytes:int -> unit
val scratch_read : t -> bytes:int -> unit
val scratch_write : t -> bytes:int -> unit
val dram_read : t -> bytes:int -> unit
val dram_write : t -> bytes:int -> unit

val hash : t -> int64 -> int
(** One hardware hash unit operation. *)

val hash_charge : t -> unit
(** One hash-unit operation whose value is discarded: same timing and
    use accounting as {!hash}, no [int64] argument to box and no mixing
    work.  For sites that model the hardware cost only. *)
