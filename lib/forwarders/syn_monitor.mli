(** SYN Monitor (paper Table 5: 4 bytes SRAM, 5 register ops).

    "Counts the rate of SYN packets in an effort to detect a SYN attack."
    The data forwarder increments one counter; the control forwarder
    periodically reads it via [getdata], computes a rate, and may install
    filters in response.

    State layout: [0..3] SYN count. *)

val forwarder : Router.Forwarder.t
(** A general ([All]-key) data forwarder for the MicroEngines. *)

val syn_count : Bytes.t -> int
(** Read the counter from a [getdata] snapshot. *)
