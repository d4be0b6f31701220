(** Multi-field packet classification: tuple-space search over 5-tuple +
    DSCP rules, with a Zipf-friendly flow cache in front.

    A {e rule} matches on source/destination prefixes and optional exact
    ports, protocol and DSCP; the highest-priority (lowest [prio]) match
    wins.  Rules whose fields are masked identically form a {e tuple}
    (Srinivasan et al.'s tuple-space search): each tuple is one hash
    table keyed by the masked field values, so a lookup probes one table
    per {e distinct mask combination} instead of one per rule.  Tuples
    are probed in ascending best-priority order and the search stops as
    soon as the best match found so far beats every remaining tuple —
    the pruning that keeps a cache miss near O(tuples), not O(rules).

    In front of the tuple walk sits an exact-match {e flow cache}:
    Zipf-skewed traffic concentrates on few flows, so most packets hit
    one hash probe.  A rule write invalidates it {e selectively}: adding
    or removing rule [r] can change the answer only for keys [r]
    matches, so the write marks stale exactly the cached keys whose
    packed halves, masked by [r]'s tuple masks, equal [r]'s own, and
    every other flow stays cached.  A stale entry is never served: its
    next lookup misses and rewrites it (the staleness audit in the test
    battery checks this at 10k ops).  The write also empties the
    batch-span memo.  Its cost is one pass over the cache's slot table,
    whose size is bounded by [cache_capacity] (at most
    [max 512 (4 * cache_capacity)] slots); a write into an empty cache
    costs nothing.

    Decisions are priority-stable under insertion order: ties on [prio]
    break on canonical rule content, never on arrival sequence.

    {b Packed keys.}  A key packs into two native ints,
    [hi = src:32|sport:16] and [lo = dst:32|dport:16|proto:8|dscp:6].
    Each tuple precomputes its masks in the same layout, so masking a key
    for a tuple is two [land]s.  Tuple tables and the flow cache are
    open-addressed arrays keyed by the packed pair, and a tuple's slot
    holds its bucket's best rule already wrapped as the [rule option]
    {!lookup} returns.  A probe is then one hash of two ints and one
    two-int compare, and a lookup allocates nothing from the flow-cache
    probe through the pruned walk to the cache insert (the cache grows
    in place up to its capacity; a flush is an epoch bump).  Pruning
    compares the precomputed order key [(prio, specificity)] and reads
    rule content only on an exact tie.  A probe costs ~30–40 ns on a
    2-vCPU x86 container (~180 ns with boxed keys); a cache-missing
    lookup over 10k rules makes ~87 of them.

    Packing is injective only while every field fits its wire width
    (ports 16 bits, protocol 8, DSCP 6): {!lookup} refuses a wider key
    and {!add} a wider rule with [Invalid_argument], so one key can never
    be served another's cached answer. *)

type action =
  | Accept  (** admit; continue down the forwarder chain to routing *)
  | Drop
  | Forward of int  (** steer to an output port, bypassing the FIB *)
  | Mark of int  (** rewrite the DSCP, then continue *)

type rule = {
  prio : int;  (** smaller wins *)
  src : Packet.Ipv4.addr;
  src_len : int;  (** prefix length 0..32; 0 = wildcard *)
  dst : Packet.Ipv4.addr;
  dst_len : int;
  src_port : int option;  (** [None] = wildcard *)
  dst_port : int option;
  proto : int option;
  dscp : int option;
  act : action;
}

val rule :
  ?prio:int ->
  ?src:Packet.Ipv4.addr * int ->
  ?dst:Packet.Ipv4.addr * int ->
  ?src_port:int ->
  ?dst_port:int ->
  ?proto:int ->
  ?dscp:int ->
  action ->
  rule
(** Constructor with every field defaulting to wildcard and [prio] to
    100.  Prefix addresses are canonicalized (host bits cleared). *)

val matches : rule -> Packet.Flow.five -> bool
(** Field-by-field match — the definition the differential oracle uses. *)

val compare_rule : rule -> rule -> int
(** Priority order: [prio] first, then specificity (total matched bits,
    more specific wins a priority tie), then canonical rule content —
    so the winner is independent of insertion order. *)

type t

val create : ?cache_capacity:int -> unit -> t
(** An empty classifier.  [cache_capacity] (default 4096) bounds the
    flow cache; exceeding it flushes (counted, never wrong). *)

val add : t -> rule -> unit
(** Insert a rule (idempotent: re-adding an identical rule is a no-op).
    Invalidates only the cached flows the rule matches, at the cost of
    one pass over the flow cache (none when it is empty).  Raises
    [Invalid_argument] if a prefix length lies outside 0..32 or a port,
    protocol or DSCP value exceeds its wire width. *)

val remove : t -> rule -> bool
(** Remove a rule matching exactly (same canonical content); [false] if
    absent.  Invalidates only the cached flows the rule matches, like
    {!add}; a remove of an absent rule invalidates nothing. *)

val lookup : t -> Packet.Flow.five -> rule option
(** The winning rule via flow cache + pruned tuple walk, or [None] when
    nothing matches.  Raises [Invalid_argument] if a port, protocol or
    DSCP field of the key exceeds its wire width ({!lookup_span} too). *)

val lookup_span : t -> span:int -> Packet.Flow.five -> rule option
(** {!lookup} behind a one-entry batch-span memo: when [span] is nonzero
    and equals the span of the previous call with the same key (and no
    rule was written since), the previous answer is returned without
    touching the flow cache.  Bursts inside one context activation are
    strongly flow-local, so the memo absorbs most of a burst after its
    first frame.  Pass [Sim.Engine.current_span]; [span = 0] (outside
    any batch span) bypasses the memo entirely. *)

val lookup_linear : t -> Packet.Flow.five -> rule option
(** The naive oracle: scan every installed rule, keep the best by
    {!compare_rule}.  Exists so the differential battery can compare the
    tuple-space answer against an independent implementation. *)

val n_rules : t -> int
val n_tuples : t -> int

val cache_hits : t -> int
val cache_misses : t -> int
val cache_flushes : t -> int

val probes : t -> int
(** Cumulative tuple-table probes across all cache-miss lookups — the
    pruning effectiveness measure ([probes / cache_misses] = average
    tuples touched per miss). *)

val batch_memo_hits : t -> int
(** Lookups answered by the batch-span memo ({!lookup_span}) without
    touching the flow cache. *)

val attach : t -> Telemetry.Scope.t -> unit
(** Register gauges ([tuples], [rules], [cache_entries]) and counters
    ([cache_hit], [cache_miss], [cache_flush], [probes],
    [mf_batch_memo_hits]) under a scope. *)

val forwarder :
  ?max_probes:int -> cm:Router.Cost_model.t -> t -> Router.Forwarder.t
(** A general (match-all) forwarder running {!lookup} on every packet.
    Declared VRP cost: the flow-cache probe ([mf_cache_instr] + one
    hash) plus [max_probes] (default 4) worst-case tuple probes at
    [mf_probe_instr] instructions and [mf_probe_sram_bytes] of rule
    fetch each — so admission control sees (and charges) the configured
    probe ceiling, and an oversized [max_probes] is refused against
    {!Router.Vrp.prototype_budget} like any other over-budget forwarder.
    Verdicts: no match or [Accept] continue the chain, [Drop] drops,
    [Forward p] steers, [Mark d] rewrites DSCP (checksum fixed) and
    continues, keeping the ECN bits.  The key is read straight from
    the frame, so running the forwarder allocates nothing.  Frames that
    carry neither TCP nor UDP continue unclassified. *)

(** Seeded realistic rule sets for tests and benches. *)
module Gen : sig
  val rules :
    rng:Sim.Rng.t ->
    n:int ->
    ?n_ports:int ->
    ?forward_share:float ->
    unit ->
    rule list
  (** [n] distinct rules with Internet-flavoured shape: prefix lengths
      drawn from {0, 8, 16, 24, 32}, service-port and protocol fields
      wildcarded more often than exact, a few DSCP matchers, priorities
      with deliberate collisions (to exercise the canonical tie-break).
      [Forward] targets are drawn below [n_ports] (default 4);
      [forward_share] (default 0.25) is the fraction of rules that
      steer — set it to [0.] for delivery-digest runs where steering
      would bypass the FIB. *)
end
