(** Performance Monitor (paper section 4.4, after Ranum et al. [20]).

    "The data forwarder increments one or more counters based on some
    property of the packet; the control forwarder periodically aggregates
    these counters and sends summaries to a global coordinator."

    General forwarder.  State layout: [0..3] total packets, [4..7] TCP,
    [8..11] UDP, [12..15] total bytes (mod 2^32). *)

val forwarder : Router.Forwarder.t

type snapshot = { packets : int; tcp : int; udp : int; bytes : int }

val read : Bytes.t -> snapshot [@@test_only]
(** Decode a [getdata] buffer. *)
