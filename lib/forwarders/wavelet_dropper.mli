(** Wavelet Dropper (paper Table 5: 8 bytes SRAM, 28 register ops).

    Smart dropping for layered (wavelet-encoded) video (section 4.4,
    after Dasen et al. [3]): "packets carrying low-frequency layers are
    forwarded and packets carrying high-frequency layers are dropped."
    The data forwarder counts successes; the control forwarder watches the
    count, deduces the available rate, and moves the cutoff layer.

    Per-flow.  The packet's layer number is the first UDP payload byte.
    State layout: [0..3] cutoff layer (drop if layer > cutoff),
    [4..7] packets forwarded. *)

val forwarder : Router.Forwarder.t

val set_cutoff : Bytes.t -> int -> unit
val cutoff : Bytes.t -> int
val forwarded : Bytes.t -> int
