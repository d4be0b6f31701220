(** The IXP1200 hardware hashing unit.

    The fast path classifies "using a one-cycle hardware hash" of the
    destination address (section 3.5.1), and the full classifier hashes the
    IP and TCP headers separately (section 4.5).  The VRP budget allows a
    forwarder 3 hashes per MP (section 4.3). *)

type t

val create : Sim.Engine.t -> Sim.Engine.Clock.clock -> cycles:int -> t
(** [create engine clock ~cycles] is a unit of [cycles] latency used by
    fibers of [engine]. *)

val hash : t -> int64 -> int
(** [hash u v] (inside a fiber) charges the unit's latency and returns a
    well-mixed non-negative hash of [v]. *)

val hash_booked : t -> int64 -> int * int
(** [hash_booked u v] counts the use and returns
    [(charge_ps, hash)] for the per-batch charging path to accumulate
    instead of waiting. *)

val charge : t -> unit
(** [charge u] (inside a fiber) pays the unit's latency and counts the
    use without computing a value — for sites that model the hardware
    cost of a hash whose result they discard.  Allocation-free. *)

val charge_booked : t -> int
(** [charge_booked u] is the booked form of {!charge}: counts the use
    and returns the charge in picoseconds. *)

val hash_free : t -> int64 -> int
(** The same mixing function without the cycle charge (for code that
    accounts costs in aggregate, e.g. the VRP interpreter). *)

val uses : t -> int
