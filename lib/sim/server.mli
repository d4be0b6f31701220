(** A queued server: the building block for buses, memory channels, DMA
    engines and processor issue pipelines.

    A server processes requests one at a time in arrival order.  Each
    request names an [occupancy] (how long the server itself stays busy,
    e.g. bus transfer time) and a [latency] (how long the requester
    observes, e.g. full memory round-trip); [latency >= occupancy] for
    pipelined devices whose end-to-end latency exceeds their per-request
    throughput cost.  Requests arriving while the server is busy queue in
    FIFO order.  Occupancy accounting gives utilization for free. *)

type t

val create : Engine.t -> t
(** [create engine] is an idle server whose requesters are fibers
    of [engine]. *)

val access : t -> occupancy:int64 -> latency:int64 -> unit
(** [access s ~occupancy ~latency] (inside a fiber) waits for the server to
    drain earlier requests, holds it for [occupancy], and returns after the
    requester-visible [latency] has elapsed from service start.  The total
    delay observed by the caller is [queueing + max latency occupancy]. *)

val access_i : t -> occupancy:int -> latency:int -> unit
(** {!access} on native-int picosecond durations — the allocation-free
    form the per-operation memory path uses. *)

val book_i : t -> now:int -> occupancy:int -> latency:int -> int
(** [book_i s ~now ~occupancy ~latency] records an access issued at
    virtual time [now] (engine time plus delays the requester has
    already booked) without waiting, returning the delay the requester
    experiences ([queueing + max latency occupancy]).  The per-batch
    charging path books each charge at its own virtual clock and pays
    the accumulated total with one wait at the next shared-state
    interaction.  The busy horizon is packed by occupancy from engine
    time (later bookings backfill the requester's latency gaps), so the
    server stays work-conserving under batch-granularity booking;
    queueing is charged only when the packed horizon passes the
    requester's own clock.  With [now] equal to engine time this is
    exactly {!access_i}'s accounting. *)

val record_i : t -> occupancy:int -> unit
(** [record_i s ~occupancy] accounts the work in the busy-time and
    request counters without advancing the busy horizon (no queueing).
    For short sections executed while holding a shared token or lock
    under per-batch charging, where queueing behind other requesters'
    batch-granularity bookings would stretch the hold by whole foreign
    bursts — a convoy the per-operation path never forms. *)

val busy_time : t -> int64
(** [busy_time s] is the cumulative occupancy served, for utilization. *)

val utilization : t -> total:int64 -> float [@@test_only]
(** [utilization s ~total] is [busy_time / total]. *)
