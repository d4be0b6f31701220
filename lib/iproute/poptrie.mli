(** Compressed multibit-trie FIB for internet-scale tables.

    A stride-6 multibit trie in the Poptrie/Tree-Bitmap family: each
    node covers 6 address bits and holds three bitmaps — an {e internal}
    bitmap of the 63 heap-numbered prefixes ending inside the node
    (lengths [depth .. depth+5]), a {e leaf} bitmap of the up to 64
    prefixes of length exactly [depth+6], folded into the node as in
    Poptrie, and an {e external} bitmap of its up to 64 children, which
    exist only for longer prefixes — with the values and children packed
    into dense arrays indexed by popcount rank.  A lookup is at most 6
    node visits, each a table-driven bitmap intersection plus one
    popcount, against the reference {!Btrie}'s 32 pointer chases; a
    million-route table fits in about 215 thousand nodes.

    Updates are incremental: an add or remove touches only the nodes on
    the prefix's path (splicing one rank-compressed array per level),
    never rebuilding the structure — the property that makes continuous
    RIP announce/withdraw churn affordable.  The structure is mutable.
    It is the one engine behind {!Table}.

    Correctness at scale is established differentially: the qcheck suite
    and the million-route battery in [test/test_iproute.ml] check
    [lookup]/[find]/[size]/[bindings] equivalence against {!Btrie} under
    random add/remove/lookup interleavings, and `bench fib` replays
    seeded churn against both engines. *)

type 'a t

val create : unit -> 'a t
(** An empty table. *)

val is_empty : 'a t -> bool [@@test_only]

val add : 'a t -> Prefix.t -> 'a -> unit
(** [add t p v] binds [p] to [v], replacing any previous binding.
    Touches only the [length p / 6 + 1] nodes on [p]'s path. *)

val remove : 'a t -> Prefix.t -> unit
(** Drop the exact prefix [p] (no-op if absent); nodes on the path
    left with no prefix, leaf or child are pruned. *)

val find : 'a t -> Prefix.t -> 'a option [@@test_only]
(** Exact-prefix lookup. *)

val lookup : 'a t -> Packet.Ipv4.addr -> (Prefix.t * 'a) option
(** [lookup t a] is the longest prefix in [t] matching [a]. *)

val lookup_or : 'a t -> int -> default:'a -> 'a
(** [lookup_or t k ~default] is the value of the longest prefix matching
    the address whose 32 bits are the native int [k], or [default] when
    none does.  The same walk as {!lookup}, answering the bare value:
    it allocates nothing once the address's jump slot is filled. *)

val bindings : 'a t -> (Prefix.t * 'a) list
(** All bindings, order unspecified. *)

val size : 'a t -> int
(** Number of stored prefixes (O(1)). *)

val node_count : 'a t -> int
(** Allocated trie nodes (memory-cost comparison against {!Btrie}). *)

val memory_words : 'a t -> int
(** Approximate heap words held by the structure: per-node overhead plus
    the rank-compressed value and child arrays, plus 2·2{^18} for the
    direct-pointing jump table, which exists only while some node sits
    at depth 18, i.e. while the table holds a prefix of /19 or longer. *)

val depth : 'a t -> Packet.Ipv4.addr -> int [@@test_only]
(** Nodes inspected by [lookup] for this address (at most 6). *)
