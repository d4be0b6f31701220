(** Unibit binary trie: the reference longest-prefix-match structure.

    One bit per level, so a lookup inspects up to 32 nodes.  Slow but
    obviously correct; {!Poptrie} is validated against it by the qcheck
    equivalence properties. *)

type 'a t

val empty : 'a t

val add : 'a t -> Prefix.t -> 'a -> 'a t
(** [add t p v] binds [p] to [v], replacing any previous binding. *)

val remove : 'a t -> Prefix.t -> 'a t
(** [remove t p] drops the exact prefix [p] (no-op if absent). *)

val find : 'a t -> Prefix.t -> 'a option [@@test_only]
(** Exact-prefix lookup. *)

val lookup : 'a t -> Packet.Ipv4.addr -> (Prefix.t * 'a) option
(** [lookup t a] is the longest prefix in [t] matching [a]. *)

val bindings : 'a t -> (Prefix.t * 'a) list [@@test_only]
(** All bindings, longest-prefix-last order unspecified. *)

val size : 'a t -> int [@@test_only]
(** Number of stored prefixes. *)

val node_count : 'a t -> int [@@test_only]
(** Number of trie nodes (memory-cost comparison against {!Poptrie}). *)
