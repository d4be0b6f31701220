(** The router's routing table: next-hop entries behind a pluggable
    longest-prefix-match engine with a route cache in front.

    The control plane (OSPF on the Pentium, in the paper) updates the
    table; updates invalidate the cache.  The data plane calls
    {!lookup_cached}, which is a cache probe on the fast path and a full
    LPM + refill on a miss. *)

type nexthop = {
  out_port : int;  (** which router port forwards this packet *)
  gateway_mac : Packet.Ethernet.mac;  (** next hop's MAC address *)
}

type engine = Trie | Cpe | Poptrie
(** Lookup engine: the unibit trie ({!Btrie}, the reference), controlled
    prefix expansion ({!Cpe}, the paper's ref [22]), and the compressed
    stride-6 bitmap trie ({!Poptrie}) sized for million-route tables
    under incremental churn. *)

type t

val create :
  ?engine:engine -> ?cache_slots:int -> ?selective_invalidation:bool ->
  unit -> t
(** [create ()] is an empty table (default engine [Cpe], 1024-line cache).
    With [selective_invalidation] (default false), a route change only
    drops the cache lines the changed prefix covers, instead of the whole
    cache — cheap control-plane churn at the cost of a per-line scan. *)

val add : t -> Prefix.t -> nexthop -> unit
(** Insert/replace a route; invalidates the cache.  The invalidation
    costs nothing while the cache is empty, so loading a table before
    traffic costs the engine writes alone; against a warm cache it costs
    O(slots), or the covered lines under [selective_invalidation]. *)

val remove : t -> Prefix.t -> unit
(** Delete a route; invalidates the cache like {!add}. *)

val lookup : t -> Packet.Ipv4.addr -> nexthop option
(** Full longest-prefix match (no cache) — what the StrongARM runs. *)

val lookup_cached : t -> Packet.Ipv4.addr -> [ `Hit of nexthop | `Miss of nexthop option ]
(** Fast-path lookup: [`Hit] on a cache hit; on a miss, runs the full match,
    refills the cache on success, and reports what it found. *)

val no_route : nexthop
(** Sentinel returned by {!lookup_cached_i} when no route matches
    (compare physically).  Its [out_port] is [min_int], which no real
    route carries. *)

val lookup_cached_i : t -> int -> hit:bool ref -> nexthop
(** [lookup_cached_i t k ~hit] is {!lookup_cached} keyed by the 32
    destination-address bits as a native int: sets [hit] to whether the
    cache line held the answer, returns the next hop or {!no_route}.
    Allocation-free on a cache hit. *)

val size : t -> int
(** Number of routes, counted when called: O(1) on [Poptrie], a full
    traversal on the other engines.  Not for the packet path. *)

val bindings : t -> (Prefix.t * nexthop) list
(** Every installed route, order unspecified — the differential tests
    rebuild a reference {!Btrie} from this set mid-churn. *)

val node_count : t -> int
(** Engine memory footprint in its native unit (trie nodes or expanded
    CPE entries). *)

val cache_hit_rate : t -> float

val cache_scan_cost : t -> int
(** Cumulative route-cache invalidation work (see
    {!Route_cache.scan_cost}): 0 after any number of changes made while
    the cache was empty. *)

val engine_name : t -> string

val pp_nexthop : Format.formatter -> nexthop -> unit
