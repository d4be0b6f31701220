(** Port Filter (paper Table 5: 20 bytes SRAM, 26 register ops).

    "A simple filter that drops packets addressed to a set of up to five
    port ranges."  General forwarder; the control plane writes the ranges
    with [setdata].

    State layout: five [lo, hi] pairs of 16-bit ports ([lo = hi = 0] means
    an unused slot).  A packet whose TCP/UDP destination port falls in any
    range is dropped. *)

val forwarder : Router.Forwarder.t

val set_range : Bytes.t -> slot:int -> lo:int -> hi:int -> unit
(** Fill range [slot] (0..4) in a state buffer destined for [setdata]. *)
