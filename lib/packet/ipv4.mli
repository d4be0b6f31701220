(** IPv4 header access, validation, and the forwarding transformations of
    the paper's IP forwarders: header validation, TTL decrement with
    incremental checksum update (fast path), and option handling (slow
    path, diverted up the processor hierarchy). *)

type addr = int32
(** An IPv4 address in network bit order. *)

val addr_of_string : string -> addr
(** [addr_of_string "10.0.0.1"] parses dotted quad. *)

val pp_addr : Format.formatter -> addr -> unit
(** Prints dotted quad. *)

val offset : int
(** Byte offset of the IP header in an Ethernet frame. *)

val min_header_len : int
(** 20 bytes (no options). *)

val get_ihl : Frame.t -> int [@@test_only]
(** Header length in 32-bit words; > 5 means options are present. *)

val header_len : Frame.t -> int
(** IHL in bytes. *)

val get_tos : Frame.t -> int
(** The Type-of-Service byte. *)

val set_tos : Frame.t -> int -> unit
(** Writes the TOS byte; the header checksum must be refreshed afterwards
    (e.g. {!fill_cksum}). *)

val precedence : Frame.t -> int
(** The IP precedence bits (TOS [7:5]) — the classic class selector a
    per-class fabric queue keys on. *)

val dscp : Frame.t -> int
(** The DiffServ code point (TOS [7:2]) — the sixth dimension of the
    multi-field classifier.  [dscp f lsr 3 = precedence f] for the
    class-selector code points. *)

val has_options : Frame.t -> bool
val get_total_len : Frame.t -> int
val set_total_len : Frame.t -> int -> unit
val get_ttl : Frame.t -> int
val set_ttl : Frame.t -> int -> unit
val get_proto : Frame.t -> int
val set_proto : Frame.t -> int -> unit
val get_src : Frame.t -> addr
val set_src : Frame.t -> addr -> unit
val get_dst : Frame.t -> addr
val set_dst : Frame.t -> addr -> unit

val get_src_i : Frame.t -> int
(** Source address as a native int ([0 .. 2^32-1]) — the allocation-free
    form for per-packet reads. *)

val get_dst_i : Frame.t -> int

val set_src_i : Frame.t -> int -> unit
(** Native-int setters: the allocation-free form for per-packet writes
    (workload generators stamp both addresses on every frame). *)

val set_dst_i : Frame.t -> int -> unit

val proto_tcp : int
val proto_udp : int

val fill_cksum : Frame.t -> unit
(** Recompute and store the header checksum. *)

val valid : Frame.t -> bool
(** The classifier's validation (section 4.4): version is 4, IHL and total
    length are sane, header checksum verifies. *)

val decrement_ttl : Frame.t -> bool
(** [decrement_ttl f] performs the fast-path transformation: decrement TTL
    and incrementally update the checksum.  Returns false (frame untouched)
    if TTL is already 0 or 1 — the packet must be diverted/dropped. *)

val payload_offset : Frame.t -> int
(** First byte past the IP header (start of TCP/UDP). *)
