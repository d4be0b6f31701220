(** Token-passing mutual exclusion (paper section 3.2.2).

    The IXP1200 router serializes access to the shared DMA state machine by
    rotating a token among the contexts using the single-cycle on-chip
    inter-thread signalling mechanism.  The token visits members in a fixed
    order; a member may only enter its critical section while holding the
    token, and passing it costs [pass_ps] (one MicroEngine cycle on real
    hardware) without touching memory.

    The rotation order is the member index order, which callers arrange so
    that consecutive holders sit on different MicroEngines and the two
    contexts serving one port are maximally far apart (section 3.2.2).

    The token is granted {e on demand}: it rests at its last holder's
    slot when nobody wants it and travels directly to the next
    requester, paying the per-hop signalling delay only for ring
    distance actually traversed.  Members that are parked (e.g. an input
    context blocked on an empty port) therefore never stall the ring —
    the original always-rotating model required every member to keep
    spinning just to pass the token along.  Contention is still resolved
    in ring order from the releasing slot, so fairness among active
    members matches the original rotation. *)

type t

val create : ?name:string -> ?pass_ps:int64 -> members:int -> Engine.t -> t
(** [create ~members engine] is a ring of [members] slots, whose members
    are contexts of [engine], with the token parked at slot 0, unheld.
    [pass_ps] is the signalling delay per hand-off. *)

val join : t -> int -> unit
(** [join ring idx] claims slot [idx] for one member.  Must be called
    once before the member's first {!request}.  Raises
    [Invalid_argument] if the slot is taken or out of range. *)

(** {1 Taking the token}

    Nothing here suspends; a member waits by its own means.  It
    {!request}s the token; if the token is held elsewhere it parks with
    a registrar that calls {!register}, and once woken by the grant
    reads the remaining flight with {!arrival}.  When that delay has
    passed it calls {!hold}, and holds the token until {!release}. *)

val request : t -> int -> int
(** [request ring idx] asks for the token at slot [idx].  If the token
    is at rest, claims it for [idx] and returns the picoseconds (>= 0)
    until it arrives there.  If another slot holds it, returns [-1]:
    the member must {!register} and wait for the grant. *)

val register : t -> int -> Engine.waker -> unit
(** [register ring idx w] enrolls slot [idx]'s waker after a refused
    {!request}; [w] fires when a {!release} grants the token to [idx].
    Raises [Invalid_argument] if [idx] is already enrolled. *)

val arrival : t -> int
(** [arrival ring] is the picoseconds (>= 0) until the granted token
    reaches its holder. *)

val hold : t -> unit
(** [hold ring] marks the token arrived at its holder: the hold time
    counts from now. *)

val release : t -> int -> unit
(** [release ring idx] hands the token to the nearest waiting slot in
    ring order after [idx], or parks it at [idx] when nobody waits. *)

val rotations : t -> int [@@test_only]
(** Completed full rotations of the token (diagnostics). *)

val hold_time_total : t -> int64
(** Cumulative time the token was held: the serialized span this ring
    imposes.  [hold_time_total / elapsed] close to 1.0 means the ring is the
    bottleneck. *)
