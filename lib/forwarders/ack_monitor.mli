(** ACK Monitor (paper Table 5: 12 bytes SRAM, 15 register ops).

    "Watches a TCP connection for repeat ACKs in an effort to determine the
    connection's behavior" (after Paxson [17]).  Per-flow.

    State layout: [0..3] last ACK seen, [4..7] duplicate-ACK count,
    [8..11] total ACKs. *)

val forwarder : Router.Forwarder.t

val last_ack : Bytes.t -> int32 [@@test_only]
val dup_acks : Bytes.t -> int [@@test_only]
val total_acks : Bytes.t -> int [@@test_only]
