(** Internet-realistic flow workload: what traffic from millions of users
    looks like, as a seeded deterministic generator.

    Three stochastic shapes compose, each individually testable:

    - {b Zipf destination popularity} over a configurable host population
      ([n_hosts], up to millions): a few destinations absorb most flows,
      the long tail the rest — the skew every flow cache banks on.
    - {b Pareto (heavy-tailed) flow sizes}: most flows are mice of a few
      packets, a small fraction are elephants carrying most of the bytes.
    - {b MMPP bursty arrivals}: a two-state Markov-modulated Poisson
      process alternates calm and burst periods, so offered load arrives
      in waves instead of the line-rate drumbeat of {!Source}.

    All randomness comes from the caller's {!Sim.Rng}, split at {!create}
    into independent arrival and flow-structure streams; equal seeds give
    byte-identical packet and gap sequences (the replay-identity test).
    Disabled features draw nothing: [burst_ratio = 1] makes the arrival
    stream exactly the Poisson stream, [dscp_classes = 1] draws no DSCP,
    [udp_share] 0 or 1 draws no protocol coin — the fault plane's
    zero-draw-when-disabled convention. *)

module Zipf : sig
  type t
  (** A rejection-inversion Zipf sampler over ranks [1..n] with exponent
      [s] (Hörmann's method): O(1) per draw, no per-rank tables, so a
      population of millions costs nothing to set up. *)

  val create : rng:Sim.Rng.t -> n:int -> s:float -> t
  (** Draws nothing; [n >= 1], [s > 0]. *)

  val draw : t -> int
  (** A rank in [1..n] with P(rank = k) proportional to [1/k^s]. *)
end

val pareto_pkts :
  rng:Sim.Rng.t -> shape:float -> min_pkts:float -> max_pkts:int -> int
(** A bounded-Pareto flow size in packets: at least [ceil min_pkts], tail
    index [shape] (smaller = heavier tail), capped at [max_pkts]. *)

type config = {
  pps : float;  (** mean packet rate across calm and burst states *)
  n_hosts : int;  (** Zipf destination population *)
  n_subnets : int;  (** routed /16s the hosts are spread over *)
  zipf_s : float;  (** popularity exponent (1.0 = classic Zipf) *)
  pareto_shape : float;  (** flow-size tail index *)
  pareto_min_pkts : float;  (** minimum flow size *)
  max_flow_pkts : int;  (** elephant cap *)
  concurrency : int;  (** active-flow working set interleaved on the wire *)
  burst_ratio : float;  (** burst-state rate multiplier; 1.0 = no MMPP *)
  burst_us : float;  (** mean burst sojourn *)
  idle_us : float;  (** mean calm sojourn *)
  frame_len : int;
  udp_share : float;  (** fraction of flows that are UDP (rest TCP) *)
  dscp_classes : int;  (** flows draw a class in [0..n-1], TOS = class<<5 *)
}

val default : config
(** 100 Kpps, 65536 hosts over 8 subnets, Zipf 1.0, Pareto 1.2 with
    2-packet mice, 64-flow working set, 4x bursts of 200 us every ~1 ms,
    80% UDP, 4 DSCP classes. *)

val parse : string -> (config, string) result
(** [parse spec] reads ["flows"] or ["flows:key=value,..."] (the leading
    ["flows"] is optional) with keys [pps], [hosts], [subnets], [zipf],
    [pareto], [minpkts], [maxpkts], [conc], [burst] (the ratio),
    [burst_us], [idle_us], [frame], [udp], [dscp].  Unknown keys,
    malformed or non-finite values, fractions or magnitudes of 2^62 and
    above for the integer keys ([hosts], [subnets], [maxpkts], [conc],
    [frame], [dscp]), and out-of-range parameters are errors. *)

val to_spec : config -> string
(** Canonical spec string (non-default fields only, sorted);
    [parse (to_spec c) = Ok c].  What a repro command prints. *)

type t

val create : ?pool:Packet.Frame_pool.t -> rng:Sim.Rng.t -> config -> t
(** Splits [rng] into the generator's arrival and flow streams (exactly
    two splits, no other draws), so two generators created from equal
    seeds replay identically. *)

val next_gap : t -> int64
(** The next MMPP inter-arrival gap in picoseconds. *)

val gen : t -> int -> Packet.Frame.t
(** The next packet: continues a flow from the working set, starting a
    replacement flow (Zipf destination, Pareto size) when one retires. *)

val spawn :
  t ->
  Sim.Engine.t ->
  name:string ->
  offer:(Packet.Frame.t -> bool) ->
  Source.stats
(** Drive the generator through {!Source.spawn_with_gap} — the same
    fiber/stats shape as every other traffic source. *)

val flows_started : t -> int
val pkts : t -> int
