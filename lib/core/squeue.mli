(** Packet queues (paper section 3.4): "contiguous circular arrays of
    32-bit entries in SRAM.  Head and tail pointers are simply indexes into
    the array, and they are stored in Scratch memory."

    The queue itself is pure bookkeeping; the memory traffic its operations
    cost is charged by the input/output loops according to the active
    discipline (Table 1), so one queue type serves I.1/I.2/I.3 and
    O.1/O.2/O.3 alike.  Each queue owns a hardware {!Sim.Mutex} used only
    by the protected disciplines. *)

type t

val create : ?name:string -> capacity:int -> unit -> t
(** [create ~capacity ()] is an empty circular queue. *)

val name : t -> string

val push : t -> Desc.t -> bool
(** [push q d] appends; false (and a drop count) when full. *)

val pop : t -> Desc.t option

val pop_nonempty : t -> Desc.t
(** [pop] for callers that have already checked [length t > 0] —
    allocation-free.  @raise Invalid_argument on an empty queue. *)

val length : t -> int
val is_empty : t -> bool

val add_waiter : t -> (unit -> unit) -> unit
(** [add_waiter q w] registers [w] to be called by the next successful
    {!push}; all registered waiters fire once and are cleared together.
    Lets consumers park on an empty queue instead of polling — producers
    need no cooperation.  Callbacks must tolerate spurious invocation
    (re-check the queue on wake) and must be idempotent per
    registration. *)

val mutex : t -> Sim.Mutex.t
(** The hardware mutex protecting this queue under I.2/I.3. *)

val dropped : t -> int [@@test_only]

val peak_length : t -> int
(** High-water mark, for sizing and robustness reports. *)

val check : t -> string option
(** Accounting audit: depth never exceeds capacity, and
    [enqueued = dequeued + depth].  [Some detail] on violation. *)

val register_telemetry : Telemetry.Scope.t -> t -> unit
(** Register depth/peak/enqueued/dequeued/dropped gauges plus the
    hardware mutex's contention count under a telemetry scope. *)
