(** The IXP1200 hardware hashing unit.

    The fast path classifies "using a one-cycle hardware hash" of the
    destination address (section 3.5.1), and the full classifier hashes the
    IP and TCP headers separately (section 4.5).  The VRP budget allows a
    forwarder 3 hashes per MP (section 4.3). *)

type t

val create : Sim.Engine.Clock.clock -> cycles:int -> t
(** [create clock ~cycles] is a unit of [cycles] latency. *)

val charge : t -> int
(** [charge u] counts one use and returns the unit's latency in
    picoseconds for the caller to pay.  The unit computes no value:
    every call site models the hardware cost of a hash whose result it
    discards. *)

val uses : t -> int [@@test_only]
