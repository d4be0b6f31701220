(** Deterministic discrete-event simulation engine.

    Fibers (simulated threads of control: MicroEngine contexts, the
    StrongARM, the Pentium, traffic sources, ...) are OCaml functions run
    under an effect handler.  A fiber advances simulated time with
    {!wait_in}, parks itself on a resource with {!park} or {!suspend},
    and reads the clock with {!clock_i}.  The engine interleaves fibers
    in strict timestamp order with FIFO tie-breaking, so a run is a pure
    function of its inputs.

    {b One handle.}  Every fiber, device, loop and source reaches the
    engine through the handle it was built with: {!clock_i} and
    {!wait_in} read and advance it, {!spawn} starts a sibling fiber on
    it.  Nothing finds "the current engine" implicitly, so a cluster
    member, a device or a test reads exactly the clock it names.  The
    one exception is the counted pair {!now_i}/{!wait_i}, kept only for
    the end-to-end benchmark harness until it is rewritten.

    Time is measured in integer picoseconds so that the 200 MHz IXP clock
    (5000 ps) and the 733 MHz Pentium clock (1364 ps) share an exact common
    base. *)

type t
(** An engine instance: clock, run queue, fiber accounting. *)

type waker = unit -> unit
(** A one-shot callback that reschedules a suspended fiber at the current
    simulated instant.  Calling a waker twice raises [Invalid_argument]. *)

exception Deadlock of string
(** Raised by {!run} when fibers remain but no event is queued. *)

val create : unit -> t
(** [create ()] is a fresh engine at time 0 with no fibers. *)

val time : t -> int64
(** [time t] is the current simulated time in picoseconds (valid inside and
    outside fibers). *)

val clock_i : t -> int
(** [clock_i t] is {!time} as a native int: the allocation-free clock
    read of the data path. *)

val wait_in : t -> int -> unit
(** [wait_in t d] advances the calling fiber, which must be running on
    [t], [d] picoseconds.  When no other event falls inside the window
    the clock advances in place without queueing an event (wait
    elision, see {!set_coalescing}); otherwise the fiber suspends, so
    [wait_in t 0] yields to events already due at the same instant.
    Raises [Invalid_argument] if [d < 0], or if [t] is not dispatching
    (the caller is then a fiber of another engine, or no fiber). *)

val spawn : t -> string -> (unit -> unit) -> unit
(** [spawn t name fn] registers fiber [fn], to start at the current
    simulated time.  [name] appears in crash reports. *)

val spawn_at : t -> at:int64 -> string -> (unit -> unit) -> unit
(** [spawn_at t ~at name fn] registers fiber [fn] to start at absolute
    simulated time [at] (picoseconds).  Raises [Invalid_argument] if
    [at] is before [t]'s clock.  This is how the cluster fabric hands a
    frame arrival to a receiving member's engine: the sender computes
    the arrival timestamp and the receiver's engine starts the delivery
    fiber exactly then. *)

val run : t -> until:int64 -> unit
(** [run t ~until] executes queued events in order until the queue drains or
    the next event lies strictly after [until]; the clock ends at [until] if
    events remain, else at the last event time.  Raises {!Deadlock} only via
    {!run_until_idle}.

    An engine is single-owner while dispatching: re-entering [run] on an
    engine that is already running (from one of its own fibers, or from
    a sibling domain) raises [Invalid_argument].  Driving a {e
    different} engine from inside a fiber remains legal — the
    dispatching-engine pointer is saved and restored, and is
    domain-local, so engines running concurrently on separate domains
    never alias.  The interrupted engine stops dispatching until the
    nested run returns: {!wait_in} on it, or {!park} on one of its
    cells, from a fiber of the nested engine raises. *)

val run_until_idle : t -> unit
(** [run_until_idle t] executes events until none remain.  Raises
    {!Deadlock} if live fibers are still suspended when the queue drains
    (i.e. somebody is waiting on a waker that can no longer fire). *)

val live_fibers : t -> int [@@test_only]
(** [live_fibers t] is the number of fibers that have started and not yet
    returned. *)

val events_scheduled : t -> int
(** [events_scheduled t] is the total number of events ever pushed onto
    [t]'s run queue (timer expiries, wakeups, spawns).  Elided waits
    (see the implementation) never reach the queue, so this undercounts
    logical waits; it is a progress/efficiency gauge, not a semantic
    counter. *)

val elided_waits : t -> int
(** [elided_waits t] is the number of [wait]s satisfied in place by the
    elision fast path (clock advanced without queueing an event)
    {e outside} any batch span; waits absorbed inside a span are counted
    in {!absorbed_waits} instead.  [events_scheduled t + elided_waits t
    + absorbed_waits t] approximates the logical event count. *)

val ambient_lookups : t -> int
(** [ambient_lookups t] counts the times {!now_i} or {!wait_i} found [t]
    through the domain-local dispatching-engine key. *)

val far_hits : t -> int
(** [far_hits t] is the number of events pushed beyond the timing
    wheel's horizon into its far-tier heap — each such event pays a heap
    push/pop instead of an O(1) bucket insert. *)

(** {1 Activation coalescing and batch spans}

    The wait-elision fast path, plus the batch-span accounting layered
    on it, together form the "batched" execution mode: a context that
    works through a burst of frames advances the clock in place and
    never re-enters the run queue, so the whole burst costs one
    activation.  [set_coalescing t false] turns the fast path off
    entirely — every wait becomes a queued event — which is the
    reference "unbatched" arm of the per-port delivery-schedule
    equivalence gate.  Elision never reorders dispatch (it fires only
    when no queued event falls inside the wait window), so both modes
    produce identical delivery schedules; the gate in [test_fault]
    witnesses this across the fault matrix. *)

val set_coalescing : t -> bool -> unit
(** [set_coalescing t on] enables ([on = true], the default) or
    disables the in-place wait fast path — both plain elision and batch
    absorption.  Disabled, the engine is fully event-granular. *)

val batch_begin : t -> int
(** [batch_begin t] opens a batch span and returns its id.  Call from a
    fiber about to process a burst of frames in one activation.  The
    span is implicitly broken if the fiber truly suspends (a wait that
    cannot be absorbed, or a [suspend]). *)

val batch_end : t -> int -> frames:int -> unit
(** [batch_end t span ~frames] closes span [span], recording [frames]
    frames processed through the batch path.  The span counts as a
    coalesced activation only if it was never broken by a real
    suspension. *)

val absorbed_waits : t -> int
(** [absorbed_waits t] is the number of waits satisfied in place inside
    a batch span.  Disjoint from {!elided_waits}: a wait is counted in
    exactly one of the two gauges. *)

val batched_activations : t -> int
(** [batched_activations t] is the number of batch spans that completed
    without a real suspension — bursts fully coalesced into a single
    context activation. *)

val batch_frames_total : t -> int
(** [batch_frames_total t] is the total number of frames processed
    through batch spans ([batch_frames_total / batched_activations]
    approximates the mean realized batch size). *)

(** {1 Ambient clock, for the benchmark harness only}

    These two find the engine dispatching on the calling domain through
    a domain-local key and count the lookup ({!ambient_lookups}).  They
    exist only for the end-to-end benchmark harness; everything else
    passes the engine it holds. *)

val now_i : unit -> int [@@benchmark_only]
(** [now_i ()] is {!clock_i} of the engine running the calling fiber.
    Raises [Invalid_argument] outside any {!run}. *)

val wait_i : int -> unit [@@benchmark_only]
(** [wait_i d] is {!wait_in} on the engine running the calling fiber.
    Raises [Invalid_argument] outside any {!run}. *)

(** {1 Operations valid only inside a fiber} *)

val suspend : (waker -> unit) -> unit
(** [suspend f] parks the calling fiber and hands [f] a waker that any other
    fiber (or resource bookkeeping code) may call to resume it. *)

(** {2 Reusable park cells}

    [suspend] allocates a one-shot flag and two closures per call; a
    fiber that parks on the same resource over and over (an input
    context on an empty ring, an output context on a full queue) can
    instead wire a {!cell} once and {!park} on it for the life of the
    run.  Semantics match [suspend] exactly: the continuation is
    captured first, then the registrar runs — so a registrar that finds
    the resource already ready may fire the waker immediately, and the
    resulting event ordering is identical to the [suspend] form. *)

type cell
(** A reusable park point for one fiber on one resource. *)

val make_cell : t -> cell
(** [make_cell t] is a fresh, empty cell for engine [t]. *)

val on_park : cell -> (unit -> unit) -> unit
(** [on_park c f] installs [f] as the cell's registrar, called (inside
    the scheduler, after continuation capture) each time the owning
    fiber {!park}s.  Typically [f] enrolls {!cell_waker}[ c] with the
    resource being waited on. *)

val cell_waker : cell -> waker
(** [cell_waker c] is the cell's permanent waker: calling it schedules
    the parked fiber at the current instant.  Stable across parks, so
    waiter lists can hold it without a fresh closure per suspension.
    Raises [Invalid_argument] if the cell is empty (double wake). *)

val park : cell -> unit
(** [park c] parks the calling fiber on [c] (must be called by the same
    fiber each time, running on the cell's engine; a cell holds at most
    one continuation).  Raises [Invalid_argument] if the cell's engine
    is not dispatching. *)

(** {1 Clocks} *)

module Clock : sig
  type clock
  (** A processor clock: a conversion between cycles and picoseconds. *)

  val of_mhz : float -> clock
  (** [of_mhz f] is the clock of an [f] MHz processor. *)

  val ps_of_cycles : clock -> int -> int64
  (** [ps_of_cycles c n] converts [n] cycles to picoseconds. *)

  val ps_of_cycles_i : clock -> int -> int
  (** [ps_of_cycles_i c n] is {!ps_of_cycles} unboxed: pure int
      multiply, no allocation.  The hot-path form. *)

  val cycles_of_ps : clock -> int64 -> float
  (** [cycles_of_ps c ps] converts a duration back to (fractional) cycles. *)

  val wait_cycles : t -> clock -> int -> unit
  (** [wait_cycles t c n] is [wait_in t (ps_of_cycles_i c n)] for
      [n > 0] and nothing otherwise (inside a fiber on [t]). *)
end

val ps_of_ns : float -> int64
(** [ps_of_ns x] converts nanoseconds to picoseconds (rounded). *)

val seconds : int64 -> float
(** [seconds ps] converts picoseconds to seconds. *)

val of_seconds : float -> int64
(** [of_seconds s] converts seconds to picoseconds. *)
