(** Packet constructors for workloads, examples and tests. *)

val min_frame : int
(** 64 bytes: the minimum Ethernet frame, the paper's worst case. *)

val max_frame : int
(** 1518 bytes: a maximal Ethernet frame (1500-byte IP packet). *)

val udp :
  ?pool:Frame_pool.t ->
  ?frame_len:int ->
  src:Ipv4.addr ->
  dst:Ipv4.addr ->
  src_port:int ->
  dst_port:int ->
  ?ttl:int ->
  ?tos:int ->
  ?payload:string ->
  unit ->
  Frame.t
(** A well-formed Ethernet/IPv4/UDP frame with valid checksums, padded to
    [frame_len] (default {!min_frame}).  With [pool] the frame is checked
    out of a {!Frame_pool} instead of freshly allocated; size the pool's
    [frame_bytes] with encapsulation headroom included.  [tos] (default 0)
    writes the Type-of-Service byte — DSCP in bits [7:2]. *)

val udp_i :
  ?pool:Frame_pool.t ->
  ?frame_len:int ->
  src:int ->
  dst:int ->
  src_port:int ->
  dst_port:int ->
  unit ->
  Frame.t
(** {!udp} with native-int addresses ([0 .. 2^32-1]): the
    allocation-free form for per-packet workload generators, which
    otherwise box two [int32] addresses per frame. *)

val tcp :
  ?pool:Frame_pool.t ->
  ?frame_len:int ->
  src:Ipv4.addr ->
  dst:Ipv4.addr ->
  src_port:int ->
  dst_port:int ->
  ?ttl:(int[@test_only]) ->
  ?tos:int ->
  ?seq:int32 ->
  ?ack:int32 ->
  ?flags:int ->
  ?payload:string ->
  unit ->
  Frame.t
(** A well-formed Ethernet/IPv4/TCP frame with valid checksums. *)

val with_ip_options : Frame.t -> Frame.t
(** [with_ip_options f] is a copy of [f] with a 4-byte NOP IP option block
    inserted (IHL 6), checksums fixed — an "exceptional" packet that the
    fast path must divert (paper section 3.2). *)
