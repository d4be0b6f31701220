(** The classifier (paper sections 2.1, 4.5).

    Reads packets from an input port and selects forwarders: first the
    header is validated ("the checksum verified and the version and length
    fields checked — but this is done as part of the classifier rather than
    the forwarder"), then the IP and TCP headers are hashed separately and
    combined to index the flow metadata table, yielding the per-flow
    forwarder (if any), the general forwarder chain, and the routing
    decision (a route-cache probe on the fast path).

    The router charges section 4.5's classifier (56 instructions, 20 bytes
    of SRAM, two hardware hashes, counted against the VRP budget).  The
    trivial classifier of the section 3 infrastructure experiments
    (destination hash, route-cache hit assumed) has no flow table and is
    charged inline by {!Fixed_infra}. *)

type entry = {
  fid : int;  (** the install handle *)
  key : Packet.Flow.t;
  where : Desc.level;
  fwdr : Forwarder.t;
  state : Bytes.t;  (** the flow's SRAM state block *)
}

type t

val create : Cost_model.t -> routes:Iproute.Table.t -> t

(** {1 Table management (driven by {!Iface})} *)

val add : t -> entry -> unit
(** Adds a per-flow or general entry.  General entries keep install order;
    an entry named ["ip"] is kept last (Figure 11's fall-through layout). *)

val remove : t -> int -> entry option
(** [remove t fid] unbinds and returns the entry. *)

val find_fid : t -> int -> entry option
val general_chain : t -> entry list [@@test_only]

(** {1 Data-plane lookups} *)

val classify : t -> Chip_ctx.t -> Packet.Frame.t -> bool
(** Section 4.5's classifier: charge its instructions, two hardware
    hashes and flow-metadata SRAM read, then validate, probe the flow
    table and resolve the route.  Allocation-free: [false] means Invalid
    (drop); [true] means the scratch accessors below hold this packet's
    decision.  The caller MUST copy the scratch out before its next
    hardware charge — a charge can suspend, and the next context to
    classify overwrites it. *)

val decide : t -> Packet.Frame.t -> bool
(** {!classify} without the hardware charges: the same decision into
    the same scratch — for tests, microbenchmarks and benches that
    charge their own classifier. *)

val scratch_per_flow : t -> entry option
val scratch_general : t -> entry list

val scratch_route : t -> Iproute.Table.nexthop
(** Physically equal to {!Iproute.Table.no_route} when no route matched. *)

val scratch_route_cache_hit : t -> bool
