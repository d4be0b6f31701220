(** Direct-mapped route cache.

    The MicroEngine fast path classifies "using a one-cycle hardware hash of
    [the destination] address, and we assume a hit in a route cache"
    (section 3.5.1).  A miss diverts the packet to the StrongARM, which
    performs the full longest-prefix match and refills the cache. *)

type 'a t

val create : ?hash:(int -> int) -> slots:int -> unit -> 'a t
(** [create ~slots ()] is an empty cache of [slots] lines ([slots > 0]).
    Keys are the 32 address bits as a native int ([0 .. 2^32-1]).
    [hash] defaults to a multiplicative hash standing in for the IXP1200
    hardware hash unit. *)

val find_or : 'a t -> int -> default:'a -> 'a
(** [find_or c k ~default] is the one probe: the cached value for
    exactly key [k] if its line holds it, or [default] on a miss.
    Counts a hit or a miss and allocates nothing — the caller
    distinguishes a miss by physical comparison with its own sentinel
    value. *)

val insert : 'a t -> int -> 'a -> unit
(** [insert c k v] fills [k]'s line, evicting any previous occupant.
    Allocates nothing after the cache's first insert, which builds its
    value array. *)

val invalidate : 'a t -> unit
(** Drop every line (route table changed).  Clearing an occupied cache
    costs O(slots); an empty one costs nothing. *)

val invalidate_matching : 'a t -> (Packet.Ipv4.addr -> bool) -> unit
(** Drop only the lines whose key satisfies the predicate — selective
    invalidation for a single-prefix table change.  Scans every line,
    O(slots) predicate calls, unless the cache is empty, when it returns
    at once. *)

val invalidate_covered : 'a t -> Prefix.t -> unit
(** Drop the lines whose key falls inside the prefix.  When the prefix
    covers fewer addresses than the cache has slots (any prefix longer
    than /[32 - log2 slots]), each covered address's line is probed
    directly — a /32 change costs one probe instead of a full scan.
    Wide prefixes fall back to {!invalidate_matching}.  An empty cache
    returns at once. *)

val scan_cost : 'a t -> int
(** Cumulative invalidation work: slots cleared by a full {!invalidate}
    of a non-empty cache, slots visited by predicate scans, and
    addresses probed by covered-prefix invalidation.  Invalidating an
    empty cache adds nothing.  The regression tests pin that host-route
    churn stays O(1) per change and that installing a table into a cold
    cache costs 0. *)

val hits : 'a t -> int
val misses : 'a t -> int

val hit_rate : 'a t -> float
(** Hits over total probes (0 if no probes yet). *)
