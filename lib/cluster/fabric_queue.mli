(** A finite queue on a fabric hop (a member's uplink into the switch, or
    a switch egress port towards a member), with a configurable service
    discipline — the per-flow queue structures *Queue Management in
    Network Processors* catalogs, reduced to what the section 6 sizing
    experiment needs.

    The queue drains at a configured link rate through one non-preemptive
    server fiber on the owning member's engine, so queueing only ever
    {e adds} latency on top of the fabric's minimum switch latency — the
    conservative-lookahead bound of the parallel scheduler survives any
    discipline.  All state is owned by one engine and every stochastic
    choice (RED's early-drop draw) comes from a dedicated seeded stream,
    so runs replay bit-identically and parallel runs match sequential
    ones.

    The default {!bypass} configuration delivers synchronously with no
    events, no draws and no occupancy: a cluster built without queueing
    behaves byte-for-byte as before. *)

type discipline =
  | Bypass  (** unbounded, zero-delay — the pre-queueing fabric *)
  | Tail_drop  (** single FIFO, drop arrivals when full *)
  | Red of { min_th : int; max_th : int; max_p : float; wq : float }
      (** random early detection on the EWMA of occupancy: drop
          probability ramps linearly from 0 at [min_th] to [max_p] at
          [max_th] (1 beyond), with [wq] the averaging weight *)
  | Prio of { classes : int }
      (** one FIFO per class; strict priority, the highest non-empty
          class is always served first *)
  | Wrr of { weights : int array }
      (** one FIFO per class; weighted round-robin — class [c] may take
          [weights.(c)] consecutive services per rotation, so no
          non-empty class ever starves *)

type config = { disc : discipline; capacity : int; rate_mbps : float }
(** [capacity] bounds total occupancy in frames (including the frame in
    service); [rate_mbps] is the hop's drain rate. *)

val bypass : config
val is_bypass : config -> bool

val parse : string -> (config, string) result
(** Spec grammar (the CLI's [--fabric-queue]):
    {v
    none | bypass
    taildrop:CAP
    red:CAP:MIN_TH:MAX_TH:MAX_P[:WQ]        (WQ defaults to 0.25)
    prio:CAP:CLASSES
    wrr:CAP:W0,W1,...
    v}
    any of which may take an [@MBPS] suffix overriding the default
    1000 Mbps drain rate, e.g. [taildrop:64@300].  Every number must be
    finite. *)

val to_spec : config -> string
(** Inverse of {!parse} (canonical form). *)

val red_drop_prob : min_th:int -> max_th:int -> max_p:float -> avg:float -> float
  [@@test_only]
(** The pure RED drop-probability curve, exposed for the monotonicity
    property test: 0 below [min_th], linear ramp to [max_p] at [max_th],
    1 at or above [max_th]. *)

type 'a t
(** A queue of ['a] payloads.  For non-[Bypass] configurations every
    operation must run inside a fiber on the owning member's engine. *)

val create :
  engine:Sim.Engine.t ->
  cfg:config ->
  rng:Sim.Rng.t ->
  deliver:('a -> unit) ->
  unit ->
  'a t
(** [engine] is the owning member's engine: the server fiber runs on it
    and service times and sojourns are measured on its clock.  [deliver]
    is called from the server fiber when a payload finishes its service
    time (synchronously from {!offer} under [Bypass]). *)

val offer : 'a t -> cls:int -> len:int -> 'a -> bool
(** Admit a [len]-byte frame of class [cls] (clamped to the configured
    class count).  [false] means the queue dropped it — tail drop at
    capacity or a RED early drop, counted by cause; the caller owns the
    accounting of the refused frame. *)

val flush : 'a t -> int
(** Empty the queue (a crash cut the link under it): every queued frame
    — and the frame in service, when its service completes — is counted
    in {!flushed} rather than delivered.  Returns the number of frames
    discarded immediately. *)

(** {1 State and counters} *)

val occupancy : 'a t -> int
(** Frames held right now, including the one in service. *)

val paused : 'a t -> bool
(** Backpressure: occupancy crossed the high watermark (3/4 capacity)
    and has not yet drained below the low one (1/2). *)

val enqueued : 'a t -> int
val serviced : 'a t -> int

val dropped_tail : 'a t -> int
val dropped_red : 'a t -> int

val dropped : 'a t -> int
(** [dropped_tail + dropped_red]. *)

val flushed : 'a t -> int
val hwm : 'a t -> int
(** High-water mark of occupancy. *)

val pauses : 'a t -> int
(** Times the high watermark engaged backpressure. *)

val delay_ps_total : 'a t -> int
(** Summed sojourn time (enqueue to delivery) of serviced frames — mean
    queue delay is [delay_ps_total / serviced]. *)
