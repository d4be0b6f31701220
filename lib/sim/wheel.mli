(** Two-tier event queue: timing wheel over a binary-heap far tier.

    Drop-in ordering-compatible replacement for using {!Heap} directly as
    the engine run queue.  Events within ~8.4 us of the last popped time
    hash into one of 1024 wheel buckets (8192 ps each) and are pushed and
    popped without allocating; events beyond that horizon fall back to
    the heap.  Every pop returns the [(time, seq)]-minimal event across
    both tiers, so the global pop order is {e identical} to a single
    heap — the simulation stays bit-for-bit deterministic.

    The one contract beyond {!Heap}: [push] takes the current clock
    [~now], and no event may be scheduled in the past ([time >= now]),
    which the engine guarantees by construction. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val far_hits : 'a t -> int
(** Cumulative count of pushes that landed beyond the wheel horizon in
    the far-tier heap — each one pays a heap push/pop instead of an O(1)
    bucket insert.  An efficiency gauge for telemetry. *)

val push : 'a t -> now:int -> time:int -> seq:int -> 'a -> unit
(** [push t ~now ~time ~seq v] queues [v] at key [(time, seq)].
    Requires [time >= now] and [now] at or after the last popped time.
    Times are native-int picoseconds, matching the engine's clock. *)

val pop : 'a t -> 'a
(** [pop t] removes the event with the smallest key and returns its
    value; the key's time is then {!popped_time}.  Raises
    [Invalid_argument] on an empty queue.  A wheel-tier pop allocates
    nothing.  A bounded pop is [min_time t <= until] followed by
    [pop t]; the [min_time] probe leaves the minimum's position cached
    for the pop. *)

val popped_time : 'a t -> int
(** Key time of the event the last {!pop} returned. *)

val peek_time : 'a t -> int option [@@test_only]
(** [peek_time t] is the key time of the next event without removing it. *)

val min_time : 'a t -> int
(** Earliest pending event time across both tiers, or [max_int] when the
    queue is empty.  Amortized O(1): cached across pushes, recomputed
    with one bucket scan after a pop. *)
