(** IPv4 prefixes for routing tables. *)

type t [@@immediate]
(** A canonical prefix: host bits below the mask are zero.  An immediate
    value (the 32 address bits packed above the 6-bit length), so a
    prefix is never allocated. *)

val make : Packet.Ipv4.addr -> int -> t
(** [make addr len] is [addr/len]; host bits are cleared.  [0 <= len <= 32]. *)

val of_string : string -> t
(** [of_string "10.1.0.0/16"] parses CIDR notation. *)

val of_bits : int -> int -> t
(** [of_bits u len] is {!make} over the 32 address bits held in the
    native int [u] (bits above 31 are ignored). *)

val addr : t -> Packet.Ipv4.addr

val bits : t -> int
(** The 32 address bits as a native int in [[0, 2^32)]: what the lookup
    structures read, so their hot paths never box an [int32]. *)

val length : t -> int

val matches : t -> Packet.Ipv4.addr -> bool
(** [matches p a] is true iff [a] falls inside [p]. *)

val default : t
(** The 0.0.0.0/0 prefix. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Shorter prefixes first; equal lengths by unsigned address. *)

val pp : Format.formatter -> t -> unit

val expand : t -> int -> t list
(** [expand p len] rewrites [p] as the list of [2^(len - length p)]
    prefixes of exactly [len] bits that cover it — the primitive of
    controlled prefix expansion.  Requires [len >= length p]. *)
