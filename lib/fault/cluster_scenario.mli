(** Pure-data description of cluster-level fault scenarios.

    A scenario is a seeded list of timed events against cluster members:
    damage to a member's fabric (uplink) link, or a whole-member
    crash/restart.  The spec grammar is a [;]-separated list of events,
    each [kind:member:start_us:dur_us[:param]]:

    - [link_drop:1:200:600:0.5] — drop each fabric frame crossing member
      1's uplink with probability 0.5 during [200, 800) us.
    - [link_corrupt:0:100:400:0.3] — corrupt frames on member 0's link
      (probability 0.3) during [100, 500) us.
    - [link_stall:2:100:500:40] — add 40 us of latency to frames on
      member 2's link during [100, 600) us.
    - [crash:3:500:400] — member 3 fail-stops at 500 us and rejoins at
      900 us.  A duration of 0 means it never restarts.
    - [route_churn:1:200:800:20000] — member 1's control plane rewrites
      routes (announce/withdraw churn against its live table) at 20000
      updates per simulated second during [200, 1000) us.

    Probabilities default to 1.0, stall to 50 us, churn to 1000
    updates/s.  [dur_us = 0] means the event lasts forever.  Like
    [Fault.Scenario], this module is pure data: all randomness is drawn
    by the cluster from one stream seeded with [seed], so replays are
    deterministic. *)

type kind = Link_drop | Link_corrupt | Link_stall | Crash | Route_churn

type event = {
  kind : kind;
  member : int;
  start_us : float;
  dur_us : float;  (** 0 = lasts forever *)
  param : float;
      (** drop/corrupt probability in [0, 1], or stall latency in us *)
}

type t = { seed : int64; events : event list }

val zero : t
(** No events.  A cluster built with [zero] behaves byte-identically to
    one built with no fault argument at all. *)

val is_zero : t -> bool
val with_seed : t -> int64 -> t

val max_member : t -> int
(** Largest member index named by any event, or [-1] when empty. *)

val parse : string -> (t, string) result
(** Parse a spec string (seed 0; combine with [with_seed]).  [""] and
    ["none"] parse to [zero].  Every number must be finite and
    non-negative. *)

val to_spec : t -> string
(** Inverse of [parse] (modulo whitespace); [zero] prints as ["none"]. *)

(** {1 Schedule queries}

    All pure: what damage is in force for [member]'s fabric link at
    simulated time [at_us]?  Overlapping windows combine — probabilities
    by max, stalls by sum. *)

val drop_rate : t -> member:int -> at_us:float -> float
val corrupt_rate : t -> member:int -> at_us:float -> float
val stall_us : t -> member:int -> at_us:float -> float

val churn_events : t -> member:int -> event list
(** The [Route_churn] windows targeting [member], in spec order — the
    cluster's churn driver walks these directly. *)

val crashed : t -> member:int -> at_us:float -> bool
(** Is a crash window covering [at_us]?  (The member {e should} be
    down.) *)

val member_active : t -> member:int -> at_us:float -> bool
(** Any event (damage or crash) in force against [member] at [at_us]. *)

val matrix : (string * string) list
(** The canonical [(spec, description)] scenario matrix (one entry per
    damage kind plus a combined run, all naming members < 4).  Shared by
    the cluster fault-matrix bench, the parallel-vs-sequential identity
    sweep, and the test suite. *)
