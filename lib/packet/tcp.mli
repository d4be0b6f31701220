(** TCP header access.

    Enough protocol surface for the paper's forwarders: the ACK/SYN
    monitors read flags and sequence numbers; the TCP splicer rewrites
    sequence/acknowledgement numbers and updates the checksum
    incrementally. *)

val get_src_port : Frame.t -> int
val set_src_port : Frame.t -> int -> unit
val get_dst_port : Frame.t -> int
val set_dst_port : Frame.t -> int -> unit
val get_seq : Frame.t -> int32
val set_seq : Frame.t -> int32 -> unit
val get_ack : Frame.t -> int32
val set_ack : Frame.t -> int32 -> unit
val get_flags : Frame.t -> int [@@test_only]
val set_flags : Frame.t -> int -> unit
val get_cksum : Frame.t -> int
val set_cksum : Frame.t -> int -> unit

val flag_syn : int
val flag_ack : int

val has_flag : Frame.t -> int -> bool
(** [has_flag f flag] tests a flag bit. *)

val fill_cksum : Frame.t -> unit
(** Recompute the TCP checksum over pseudo-header + segment. *)

val cksum_ok : Frame.t -> bool
(** Verify the TCP checksum. *)

val update_cksum_u32 : Frame.t -> old_v:int32 -> new_v:int32 -> unit
(** Incrementally patch the checksum after a 32-bit covered field (seq or
    ack) changed — the splicer's per-packet operation. *)
