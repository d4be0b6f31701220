(** Flow keys for the classifier (paper section 4.5).

    A key is the [(src_addr, src_port, dst_addr, dst_port)] 4-tuple, or the
    wildcard [All] used by general forwarders that apply to every packet. *)

type tuple = {
  src_addr : Ipv4.addr;
  src_port : int;
  dst_addr : Ipv4.addr;
  dst_port : int;
}

type t = All | Tuple of tuple

val of_frame : Frame.t -> tuple option
(** [of_frame f] extracts the 4-tuple if [f] carries TCP or UDP. *)

type five = {
  f_src : Ipv4.addr;
  f_src_port : int;
  f_dst : Ipv4.addr;
  f_dst_port : int;
  f_proto : int;
  f_dscp : int;  (** TOS [7:2] — see {!Ipv4.dscp} *)
}
(** The multi-field classifier's key: the 5-tuple plus the DiffServ code
    point. *)

val ports_offset : Frame.t -> int
(** The byte offset of [f]'s TCP/UDP source and destination ports, or
    [-1] when [f] carries neither or is too short to hold them.  With
    {!Ipv4.get_src_i} and friends it reads a key without building one. *)

val five_of_frame : Frame.t -> five option
(** [five_of_frame f] extracts the classifier key if [f] carries TCP or
    UDP with an intact header. *)

val reverse : tuple -> tuple
(** Swap the endpoint pair (the splicer's other connection half). *)

val equal : t -> t -> bool
val equal_tuple : tuple -> tuple -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val matches : t -> Frame.t -> bool
(** [matches k f] is true if [k] is [All] or [f]'s 4-tuple equals [k]'s. *)
