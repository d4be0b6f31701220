(** One memory channel (DRAM, SRAM, or Scratch) shared by every
    MicroEngine context and the StrongARM.

    Each operation moves at most [unit_bytes]; larger requests issue
    multiple back-to-back operations (that is what Table 2's "2 DRAM
    writes" for a 64-byte MP means).  The requester observes the Table 3
    latency plus any queueing behind other contexts — the contention
    that the paper's design works so hard to avoid.

    On the zero-fault path a multi-unit transfer is booked as one
    pipelined burst: the channel is occupied for [n * occupancy] and the
    requester is delayed by [latency + (n-1) * occupancy] — unit fills
    stream back to back, as the IXP's burst-capable SDRAM/SRAM
    interfaces do.  {!read_booked}/{!write_booked} return that delay for
    the caller to pay; {!read}/{!write} pay it at once.  With an
    injector installed the units are issued one by one, each waited
    for, so per-operation fault draws (drop/delay) keep their exact
    seeded sequence.  A channel moves accounting, not payload, so there
    are no bit flips to inject here: byte damage enters at the MAC. *)

type t

val create : Sim.Engine.t -> Sim.Engine.Clock.clock -> Config.mem_timing -> t
(** [create engine clock timing] is an idle channel serving the
    fibers of [engine].  Raises [Invalid_argument] unless
    [timing.unit_bytes] is a power of two ({!unit_log2}). *)

val unit_log2 : Config.mem_timing -> int
(** [log2 unit_bytes].  Raises [Invalid_argument] unless [unit_bytes] is
    a power of two (Table 3's are 32, 4 and 4). *)

val ops : unit_log2:int -> bytes:int -> int
(** The operations a [bytes]-sized access issues on a channel moving
    [2^unit_log2] bytes per operation: [ceil (bytes / unit)], 0 when
    [bytes <= 0].  The one ops-per-transfer count: the channels charge
    with it, and so do the analytic [Capacity] and [Vrp] models. *)

val set_faults : t -> Fault.Injector.t -> unit
(** Enable fault injection on this channel: per-operation drops (the
    operation consumes no bus time) and stalls ([mem_delay_cycles] extra
    latency). *)

val read : t -> bytes:int -> unit
(** [read ch ~bytes] (inside a fiber) performs [ceil (bytes/unit)] read
    operations, blocking for their cumulative latency, and counts them
    once they complete.  The waiting form: the only one a fault-injected
    channel accepts. *)

val write : t -> bytes:int -> unit
(** Like {!read} for writes. *)

val bookable : t -> bool
(** Whether this channel's charges may be booked without waiting: true
    on the zero-fault path, false once an injector is installed (the
    per-operation fault draws need the one-by-one issue sequence). *)

val read_booked : t -> now:int -> bytes:int -> int
(** [read_booked ch ~now ~bytes] books the burst as of virtual time
    [now] and returns the requester's delay instead of waiting.  It
    counts nothing: the caller pays the delay and then calls
    {!complete}.  Only valid when {!bookable}. *)

val write_booked : t -> now:int -> bytes:int -> int
(** Like {!read_booked} for writes. *)

val complete : t -> bytes:int -> unit
(** [complete ch ~bytes] counts a booked [bytes]-sized burst's operations
    in {!ops_completed}: once its delay is paid under per-operation
    charging, at booking under per-batch charging. *)

val read_ops : t -> bytes:int -> int [@@test_only]
(** Number of operations a [bytes]-sized access issues (cost accounting). *)

val server : t -> Sim.Server.t
(** The underlying server, for utilization queries. *)

val ops_completed : t -> int
(** Total operations served. *)
