(** ICMP (RFC 792): the error messages the slow path owns.

    The MicroEngine fast path diverts TTL-expiring and unroutable packets
    up the hierarchy; the StrongARM's exceptional-IP handler answers with
    Time Exceeded / Destination Unreachable built here.  Echo is included
    for workloads and tests. *)

val type_echo_reply : int [@@test_only]
val type_echo_request : int [@@test_only]
val type_time_exceeded : int [@@test_only]

val get_type : Frame.t -> int [@@test_only]

val checksum_ok : Frame.t -> bool [@@test_only]
(** Verify the ICMP checksum over the ICMP message. *)

val echo_request :
  src:Ipv4.addr -> dst:Ipv4.addr -> id:int -> seq:int -> unit -> Frame.t
  [@@test_only]
(** A minimal valid echo request frame. *)

val echo_reply_of : Frame.t -> Frame.t [@@test_only]
(** Turn a received echo request into its reply (addresses swapped, type
    rewritten, checksums fixed). *)

val time_exceeded : router:Ipv4.addr -> Frame.t -> Frame.t
(** [time_exceeded ~router original] is the Time Exceeded (TTL) error a
    router at address [router] sends to [original]'s source, quoting the
    original IP header + 8 payload bytes as RFC 792 requires. *)

val dest_unreachable : router:Ipv4.addr -> code:int -> Frame.t -> Frame.t
(** Destination Unreachable with the given code (0 = net unreachable). *)

val quoted_src : Frame.t -> Ipv4.addr option [@@test_only]
(** For a received ICMP error: the source address of the quoted original
    packet (who the error is about). *)
