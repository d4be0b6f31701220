(** UDP header access (workload traffic and the wavelet video dropper,
    whose layered stream rides UDP). *)

val get_src_port : Frame.t -> int [@@test_only]
val set_src_port : Frame.t -> int -> unit
val get_dst_port : Frame.t -> int
val set_dst_port : Frame.t -> int -> unit
val set_len : Frame.t -> int -> unit

val fill_cksum : Frame.t -> unit
(** Recompute the UDP checksum (pseudo-header included). *)

val payload_offset : Frame.t -> int
(** First byte of UDP payload. *)
