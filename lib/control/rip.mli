(** A distance-vector routing daemon on the Pentium.

    The paper's control plane runs "signalling protocols like RSVP, OSPF,
    and LDP" on the host processor, with the proportional-share scheduler
    guaranteeing the protocol "is able to update the routing table at an
    acceptable rate" (section 4.1).  This module is a small RIP-style
    protocol exercising that whole path: neighbor announcements arrive on
    a port, the classifier's per-flow entry diverts them up the hierarchy,
    a Pentium forwarder parses them and updates the routing table (which
    invalidates the route cache — the data-plane cost of control-plane
    activity, measured by `bench routing`).

    Wire format (UDP, port 520): a count byte, then 8 bytes per route:
    prefix address (4), prefix length (1), metric (1), 2 bytes padding.
    Metric 16 is infinity (withdrawal), as in RIP. *)

val infinity_metric : int
(** 16. *)

type announcement = { prefix : Iproute.Prefix.t; metric : int }

val encode :
  src:Packet.Ipv4.addr ->
  dst:Packet.Ipv4.addr ->
  announcement list ->
  Packet.Frame.t
(** Build an announcement packet (at most 16 routes per packet). *)

val decode : Packet.Frame.t -> announcement list option [@@test_only]
(** Parse; [None] if the frame is not a well-formed announcement. *)

type stats = {
  announcements : Sim.Stats.Counter.t;  (** packets processed *)
  routes_installed : Sim.Stats.Counter.t;
  routes_withdrawn : Sim.Stats.Counter.t;
  rejected : Sim.Stats.Counter.t;  (** malformed or worse-metric entries *)
}

type t

val create : Router.t -> t
(** A daemon bound to a router's table (does not listen yet). *)

val stats : t -> stats

val router_addr : int -> Packet.Ipv4.addr
(** The address a neighbor on port [p] sends announcements to
    (10.254.[p].1 — the router's own per-port address). *)

val apply : t -> via_port:int -> announcement -> unit
(** Process one announcement entry as if it arrived from the neighbor on
    [via_port]: distance-vector accept/reject, RIB bookkeeping, and the
    routing-table write (which invalidates route-cache lines).  Exposed
    so churn tests and benchmarks can drive the update path at a chosen
    rate without synthesizing wire frames. *)

val table_changes : t -> int
(** Total routing-table writes (installs + withdrawals). *)

val quiet_ps : t -> int64
(** Picoseconds since the last table write — the convergence measure:
    once announcements keep arriving but [quiet_ps] grows, the table has
    converged.  Also exported as the [rip.quiet_us] telemetry gauge. *)

val add_neighbor :
  t -> addr:Packet.Ipv4.addr -> via_port:int -> (int, string list) result
(** Start accepting announcements from a configured neighbor: installs a
    per-flow Pentium forwarder for (neighbor, 520) → (router_addr, 520)
    — control traffic rides the same classify-and-divert
    machinery as everything else.  Returns the forwarder's fid. *)

val best_metric : t -> Iproute.Prefix.t -> int option
(** Current metric for a prefix, if routed by this daemon. *)

val route_count : t -> int
