(** Synthetic routing tables with Internet-like shape.

    Real BGP tables are dominated by /24s, with heavy /16 and /19-/22
    populations, a few very short prefixes and essentially nothing longer
    than /24 — the distribution the controlled-prefix-expansion stride DP
    optimizes for.  This generator reproduces that shape deterministically
    from a seed, for lookup benchmarks and stride-selection tests. *)

val table : rng:Sim.Rng.t -> n:int -> n_ports:int -> (Prefix.t * int) list
(** [table ~rng ~n ~n_ports] is [n] distinct prefixes with next-hop port
    values in [0, n_ports), Internet-like length mix, plus a default
    route. *)

val matching_addr : rng:Sim.Rng.t -> (Prefix.t * 'a) list -> Packet.Ipv4.addr
(** An address covered by a random table entry (a "hit" workload, vs
    uniformly random addresses that mostly fall to the default route). *)

val bgp_table :
  rng:Sim.Rng.t -> n:int -> n_ports:int -> (Prefix.t * int) array
(** [bgp_table ~rng ~n ~n_ports] is a BGP-table-shaped route set sized
    for millions of entries: ~[n]/512 short provider aggregates
    (/8–/12) with the bulk of the table punched into them as nested
    more-specifics following {!table}'s backbone length mix, plus flat
    announcements and a default route at index 0.  Distinct prefixes,
    deterministic from [rng], O(n).

    Footprint: the result is [n] (prefix, port) pairs, 4 words a route.
    While drawing, duplicates are rejected with a flat int array of at
    least [2n] slots (a power of two, one word a slot: 16 MB at a
    million routes), garbage once the table is returned; drawing
    allocates about 7.8 words a route in all (the [bench alloc] row
    "route-set generation words per route"). *)

type op =
  | Announce of Prefix.t * int  (** install/replace prefix via port *)
  | Withdraw of Prefix.t

val churn :
  rng:Sim.Rng.t ->
  base:(Prefix.t * int) array ->
  n_ports:int ->
  steps:int ->
  op array
(** A deterministic announce/withdraw stream over [base], shaped like
    RIP/BGP churn: ~45% re-announcements of previously flapped routes
    (often via a new port), ~40% withdrawals of random entries, ~15%
    brand-new more-specifics down to /32 hosts.  Never touches the
    default route. *)

val hit_addr : rng:Sim.Rng.t -> (Prefix.t * 'a) array -> Packet.Ipv4.addr
(** {!matching_addr} over an array — no O(n) conversion per draw, which
    matters when sampling a million-route table. *)
