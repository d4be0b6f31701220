(** Internet one's-complement checksum (RFC 1071) and incremental update
    (RFC 1624).

    The router's IP forwarder never recomputes a checksum from scratch on
    the fast path: decrementing the TTL updates the checksum incrementally,
    exactly as the paper's minimal IP forwarder does. *)

val sum : Bytes.t -> off:int -> len:int -> int
(** [sum b ~off ~len] is the one's-complement running sum (not folded, not
    complemented) of the given byte range, big-endian 16-bit words; an odd
    trailing byte is padded with zero. *)

val finish : int -> int
(** [finish s] folds carries and complements, yielding the 16-bit checksum
    field value. *)

val compute : Bytes.t -> off:int -> len:int -> int
(** [compute b ~off ~len] is [finish (sum b ~off ~len)]. *)

val verify : Bytes.t -> off:int -> len:int -> bool
(** [verify b ~off ~len] is true iff the range (including its embedded
    checksum field) sums to [0xFFFF] — a valid header. *)

val update16 : old_cksum:int -> old_word:int -> new_word:int -> int
(** [update16 ~old_cksum ~old_word ~new_word] is the RFC 1624 incremental
    update of a checksum after one 16-bit word of covered data changed. *)

val pseudo_header_sum_i :
  src:int -> dst:int -> proto:int -> len:int -> int
(** [pseudo_header_sum_i ~src ~dst ~proto ~len] is the unfinished sum of
    the TCP/UDP pseudo header, with native-int addresses
    ([0 .. 2^32-1]): the allocation-free form for the per-frame L4
    checksum fills. *)
