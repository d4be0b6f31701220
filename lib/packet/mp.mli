(** MAC-Packets (paper section 3.1).

    "The common unit of data transferred through the IXP1200 is a 64-byte
    MAC-Packet (MP).  As each packet is received, the MAC breaks it into
    separate MPs; tags each MP as being the first, an intermediate, the
    last, or the only MP of the packet."

    Everything between a MAC port and DRAM moves in these units, so
    per-packet costs in the forwarding pipeline scale with [count]. *)

val size : int
(** 64 bytes. *)

type tag = Only | First | Intermediate | Last

val count : int -> int
(** [count len] is the number of MPs a [len]-byte frame occupies (>= 1).
    A 1500-byte IP packet in a 1518-byte Ethernet frame takes 24. *)
