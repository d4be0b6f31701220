(** Ethernet II framing.

    The minimal IP forwarder's only mandatory transformation is rewriting
    the destination MAC to the next hop's and the source MAC to the output
    port's (paper section 3.2), so MAC field access is the hot path here. *)

type mac = int
(** A 48-bit MAC address in the low bits of an [int]. *)

val header_len : int
(** 14 bytes: dst(6) src(6) ethertype(2). *)

val mac_of_string : string -> mac
(** [mac_of_string "aa:bb:cc:dd:ee:ff"] parses colon notation. *)

val pp_mac : Format.formatter -> mac -> unit [@@test_only]
(** Prints colon notation. *)

val mac_of_port : int -> mac
(** [mac_of_port i] is the deterministic locally-administered address this
    simulation assigns to router port [i]. *)

val get_dst : Frame.t -> mac
val set_dst : Frame.t -> mac -> unit
val set_src : Frame.t -> mac -> unit

val get_ethertype : Frame.t -> int
val set_ethertype : Frame.t -> int -> unit

val ethertype_ipv4 : int
(** 0x0800. *)
