(** MPLS label stacks (RFC 3032 encoding).

    The paper's fixed infrastructure "applies equally well to a router
    that supports MPLS" (section 3), and section 4.5 notes the classifier
    "could itself be replaced with one that also understands, say, MPLS
    labels" — the {!Mpls} core library is that replacement; this module is
    the wire format.

    A label stack entry is 32 bits: label (20) | traffic class (3) |
    bottom-of-stack (1) | TTL (8), carried between the Ethernet header and
    the IP packet under ethertype 0x8847. *)

type entry = { label : int; tc : int; bos : bool; ttl : int }

val ethertype : int
(** 0x8847 (unicast). *)

val is_mpls : Frame.t -> bool
(** Ethertype check. *)

val read_entry : Frame.t -> int -> entry [@@test_only]
(** [read_entry f depth] decodes the stack entry [depth] levels down
    (0 = top). *)

val top : Frame.t -> entry
(** [read_entry f 0]. *)

val stack_depth : Frame.t -> int [@@test_only]
(** Number of entries down to and including the bottom-of-stack bit.
    Raises [Invalid_argument] on a malformed (unterminated) stack. *)

val push : Frame.t -> entry -> unit
(** Insert a new top entry (shifts the payload right 4 bytes; the frame
    must have capacity).  If the frame was plain IP the ethertype flips to
    MPLS and the new entry gets [bos = true]. *)

val pop : Frame.t -> entry
(** Remove and return the top entry (shifts the payload left).  Popping
    the bottom entry restores ethertype IPv4. *)

val swap : Frame.t -> label:int -> unit
(** Replace the top label, decrementing its TTL (the LSR transit
    operation). *)

val payload_is_ipv4 : Frame.t -> bool [@@test_only]
(** After the bottom of stack, is the payload an IPv4 header?  (MPLS
    carries no explicit protocol field; this peeks the version nibble.) *)
