(** The router's routing table: next-hop entries in a {!Poptrie} with a
    route cache in front.

    The control plane (OSPF on the Pentium, in the paper) updates the
    table; updates invalidate the cache.  The data plane calls
    {!lookup_cached}, which is a cache probe on the fast path and a full
    LPM + refill on a miss.  The simulated cost of that LPM is the cost
    model's fixed StrongARM charge, whatever structure answers it here. *)

type nexthop = {
  out_port : int;  (** which router port forwards this packet *)
  gateway_mac : Packet.Ethernet.mac;  (** next hop's MAC address *)
}

type engine = Poptrie
(** The one longest-prefix-match engine.  Nothing reads this type; it
    stays only because the end-to-end benchmark harness sets
    [Router.config.route_engine], and goes with that field in the next
    benchmark change. *)

type t

val create : ?cache_slots:int -> ?selective_invalidation:bool -> unit -> t
(** [create ()] is an empty table with a 1024-line cache.  With
    [selective_invalidation] (default false), a route change only drops
    the cache lines the changed prefix covers, instead of the whole
    cache — cheap control-plane churn at the cost of a per-line scan. *)

val add : t -> Prefix.t -> nexthop -> unit
(** Insert/replace a route; invalidates the cache.  The invalidation
    costs nothing while the cache is empty, so loading a table before
    traffic costs the trie writes alone; against a warm cache it costs
    O(slots), or the covered lines under [selective_invalidation]. *)

val remove : t -> Prefix.t -> unit
(** Delete a route; invalidates the cache like {!add}. *)

val lookup : t -> Packet.Ipv4.addr -> nexthop option
(** Full longest-prefix match (no cache) — what the StrongARM runs. *)

val no_route : nexthop
(** Sentinel returned by {!lookup_cached} when no route matches
    (compare physically).  Its [out_port] is [min_int], which no real
    route carries. *)

val lookup_cached : t -> int -> hit:bool ref -> nexthop
(** [lookup_cached t k ~hit] is the fast-path lookup, keyed by the 32
    destination-address bits as a native int: a cache probe, and on a
    miss the full match plus a cache refill when a route matched.  Sets
    [hit] to whether the cache line held the answer and returns the
    next hop or {!no_route}.  Allocation-free on a hit and on a miss
    whose jump slot is filled. *)

val size : t -> int
(** Number of routes (O(1)). *)

val bindings : t -> (Prefix.t * nexthop) list [@@test_only]
(** Every installed route, order unspecified — the differential tests
    rebuild a reference {!Btrie} from this set mid-churn. *)

val cache_hit_rate : t -> float

val cache_scan_cost : t -> int
(** Cumulative route-cache invalidation work (see
    {!Route_cache.scan_cost}): 0 after any number of changes made while
    the cache was empty. *)
