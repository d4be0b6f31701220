(** A network frame: a fixed buffer plus a live length.

    All header modules ({!Ethernet}, {!Ipv4}, {!Tcp}, {!Udp}) read and write
    fields in place, mirroring how the MicroEngine code patches headers in
    FIFO registers and DRAM. *)

type t = {
  data : Bytes.t;
  mutable len : int;
  mutable pool_slot : int;
      (** {!Frame_pool} slot owning this frame, [-1] while unpooled.
          Maintained by {!Frame_pool}; treat as read-only elsewhere. *)
  mutable pool_gen : int;
      (** Recycle generation stamped by {!Frame_pool.take}. *)
}

val alloc : ?headroom:int -> int -> t
(** [alloc n] is a zeroed frame of length [n].  [headroom] adds spare
    capacity beyond [n] (the router's DRAM buffers are 2 KB regardless of
    frame size, so encapsulations like MPLS push always have room there;
    default 0). *)

val of_bytes : Bytes.t -> t
(** [of_bytes b] wraps [b] (no copy). *)

val copy : t -> t
(** Deep copy. *)

val prefix_copy : t -> len:int -> t
(** [prefix_copy f ~len] is a fresh frame holding the first [len] bytes of
    [f] (no headroom) — what a MAC delivers after reassembling [len] bytes
    off the wire. *)

val len : t -> int
(** Current frame length in bytes. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
(** Big-endian 16-bit read at byte offset. *)

val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int32
val set_u32 : t -> int -> int32 -> unit

val get_u32_i : t -> int -> int
(** Big-endian 32-bit read as a native int ([0 .. 2^32-1]) — the
    allocation-free form ([int32] results are boxed). *)

val set_u32_i : t -> int -> int -> unit

val equal : t -> t -> bool [@@test_only]
(** Byte equality over the live length. *)
